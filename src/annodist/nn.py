"""Small feed-forward predictors with explicit backprop and Adam, in stacks.

All variants share the same bottleneck layout: two hidden ReLU layers at 75%
and 50% of the input width (round half up), then a head.  A variant is a
sequence of chains of layers, each reading the one before it (the first
reads the features), and the last ends in the head:

* ``independent``  - a mu and a sigma chain, each on the features
* ``shared_first`` - a one-layer shared chain, read by a mu and a sigma chain
* ``fully_shared`` - one chain with a two-unit (mu, sigma) head
* ``point``        - one chain with a scalar head, for per-descriptor baselines

A mu and a sigma chain have the same layer shapes, so they are one chain
with a mu and a sigma copy, run as one stacked pass over a copy axis; the
output of a one-copy chain that they read broadcasts over that axis.

A head applies one activation per output column.  Moment heads squash: mu
passes through a logistic so it stays in (0, 1), sigma through a softplus so
it stays positive.  Validity of sigma^2 against mu(1-mu) is NOT enforced
here; the Beta conversion clamps downstream.  Point heads are identity
(descriptor targets can be negative).

A :class:`Network` is a stack of M members of one variant; a single network
is the M = 1 case.  Each member has its own seed and parameters.  A layer's
weights ``W`` and bias ``b`` are adjacent in its member's row of one ``(M,
P)`` buffer, and a chain's sigma copy follows its mu copy there, so a layer
sees its copies' parameters as one ``(M, copies, fan_in + 1, fan_out)``
view ``[W; b]``.  Every activation that feeds a layer carries a trailing
ones column, so a layer's forward pass is one batched ``np.matmul`` over
members and copies, and one more writes ``[gW; gb]`` in its backward pass.
Every pass takes plain ``(n, d)`` or ``(M, n, d)`` features and adds the
ones column itself; the one input that already has it is a workspace's own
batch buffer, which :func:`train` gathers each batch into.
Every pass runs all members at once.  Each reduction stays inside one
member's slice, so a member's numbers do not depend on which other members
share its stack.

A :class:`Workspace` holds the ``(M, P)`` gradient buffer, whose per-layer
``[gW; gb]`` views each backward pass writes into with ``out=``, and, for
every number of input rows it sees (the full batch, a ragged last batch,
the validation set), the input buffer that :func:`train` gathers a batch
into, each layer's pre-activation, activation and backward buffers, and
every view of them a step reads.  An :class:`AdamState` holds the moments
and two temporaries.  :func:`train` allocates both once per live-member
count, not once per step.  A result written into a buffer has the bits a
freshly allocated one would have, so the buffers change no numbers.

Training minimises the joint MSE of mu and sigma (plain MSE for point nets)
with Adam (beta1=0.9, beta2=0.999, eps=1e-8) applied to the whole buffer.  A
member's seed draws both its init and its per-epoch shuffle.  Each member
early-stops on its own validation loss and ends with its best-epoch
parameters.  Features are checked to be finite once per :func:`train` call.
Each step checks every member's loss and gradient norm; a member where either
is not finite fails alone, with a :class:`TrainingError` in its history.
A member that fails leaves the stack after that step, and one that stops
leaves after that epoch: the others train on as a smaller stack with their
own parameters and Adam moments, and no step spends work on a member that
has left.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# MOMENT_KINDS is imported for callers that take it from here.
from .config import KINDS, MOMENT_KINDS, TrainConfig
from .errors import DomainError, TrainingError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_IMPROVEMENT = 1e-6
# Output heads start near-neutral (mu ~ 0.5, sigma ~ softplus(0)); large head
# weights at init make convergence within the 50-epoch budget a seed lottery.
HEAD_INIT_SCALE = 0.05


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def hidden_dims(input_dim: int) -> tuple[int, int]:
    """Hidden widths at 75% and 50% of the input size (round half up)."""
    return round_half_up(0.75 * input_dim), round_half_up(0.5 * input_dim)


@dataclass(frozen=True)
class NetworkVariant:
    kind: str
    input_dim: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"NetworkVariant: unknown kind {self.kind!r}")
        if self.input_dim < 1:
            raise DomainError("NetworkVariant: input_dim must be >= 1")


@functools.lru_cache(maxsize=None)
def _chains(variant: NetworkVariant) -> tuple[tuple, ...]:
    """The variant's chains ``(copies, layers)`` in order; each reads the one
    before it, and the first reads the features.  A chain has one or two
    copies with the same layer shapes and their own parameters, and
    ``copies`` holds each copy's prefix of its parameter names.  A layer is
    ``(param name, fan-in, fan-out, activation)``; a head's activation is a
    tuple of one head activation per output column of each copy, copy by
    copy, and the last chain ends in the head."""
    d = variant.input_dim
    h1, h2 = hidden_dims(d)
    trunk = (("l1", d, h1, "relu"), ("l2", h1, h2, "relu"))
    moments = ("head", h2, 1, ("sigmoid", "softplus"))  # a mu and a sigma copy
    if variant.kind == "point":
        return ((("",), trunk + (("head", h2, 1, ("identity",)),)),)
    if variant.kind == "fully_shared":
        return ((("",), trunk + (("head", h2, 2, ("sigmoid", "softplus")),)),)
    if variant.kind == "shared_first":
        return ((("",), (("shared", d, h1, "relu"),)),
                (("mu_", "sigma_"), (trunk[1], moments)))
    return ((("mu_", "sigma_"), trunk + (moments,)),)


@functools.lru_cache(maxsize=None)
def _out_width(variant: NetworkVariant) -> int:
    # One output column per head activation; the last chain ends in the head.
    *_, head = _chains(variant)[-1][1]
    return len(head[-1])


class FlatParams(dict):
    """Named ``(M, ...)`` parameter arrays that are views into ``flat`` (M, P).

    Each layer has a ``name.w`` ``(M, fan_in, fan_out)`` and a ``name.b``
    ``(M, 1, fan_out)`` entry, and ``layers[name]`` is their ``(M, fan_in +
    1, fan_out)`` union ``[W; b]``.  A chain's copies fill adjacent blocks of
    a member's row, each holding its layers' ``[W; b]`` in order (``W``
    row-major, the bias row last), so ``stacked`` views each layer, in
    order, as one ``(M, copies, fan_in + 1, fan_out)`` array.  Assigning to
    a name copies into the buffer, so every entry stays a view and
    whole-stack updates of ``flat`` reach all of them.
    """

    def __init__(self, variant: NetworkVariant, flat: np.ndarray):
        super().__init__()
        self.flat, self.layers, self.stacked = flat, {}, []
        m, lo = flat.shape[0], 0
        for copies, layers in _chains(variant):
            size = sum((fan_in + 1) * fan_out for _, fan_in, fan_out, _ in layers)
            block = flat[:, lo : lo + len(copies) * size].reshape(m, len(copies), size)
            lo, views = lo + len(copies) * size, []
            for _, fan_in, fan_out, _ in layers:
                views.append(block[..., : (fan_in + 1) * fan_out].reshape(
                    m, len(copies), fan_in + 1, fan_out))
                block = block[..., (fan_in + 1) * fan_out :]
            self.stacked += views
            for c, prefix in enumerate(copies):
                for (name, fan_in, *_), wb in zip(layers, views):
                    self.layers[prefix + name] = wb[:, c]
                    dict.__setitem__(self, prefix + name + ".w", wb[:, c, :fan_in])
                    dict.__setitem__(self, prefix + name + ".b", wb[:, c, fan_in:])

    def __setitem__(self, name: str, value) -> None:
        self[name][...] = value


@dataclass
class Network:
    """A stack of ``len(seeds)`` members of one variant."""

    variant: NetworkVariant
    seeds: tuple[int, ...]
    params: FlatParams

    @property
    def kind(self) -> str:
        return self.variant.kind

    @property
    def input_dim(self) -> int:
        return self.variant.input_dim

    @property
    def n_members(self) -> int:
        return len(self.seeds)

    @property
    def flat(self) -> np.ndarray:
        return self.params.flat


def build(variant: NetworkVariant, seeds) -> Network:
    """Initialise one member per seed (an int gives a one-member stack).

    Weights are He-style uniform with fan-in scaling, head layers scaled down
    by ``HEAD_INIT_SCALE``; biases start at zero.  Member m's init is drawn
    from ``default_rng(seeds[m])`` alone.
    """
    seeds = (int(seeds),) if np.ndim(seeds) == 0 else tuple(int(s) for s in seeds)
    if not seeds:
        raise DomainError("Network: a stack needs at least one member")
    flat = np.zeros((len(seeds), count_params(variant.kind, variant.input_dim)))
    net = Network(variant, seeds, FlatParams(variant, flat))
    for m, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        for copies, layers in _chains(variant):
            for prefix in copies:
                for name, fan_in, fan_out, act in layers:
                    limit = math.sqrt(6.0 / fan_in)
                    if isinstance(act, tuple):
                        limit *= HEAD_INIT_SCALE
                    net.params[f"{prefix}{name}.w"][m] = rng.uniform(
                        -limit, limit, (fan_in, fan_out))
    return net


def count_params(kind: str, input_dim: int) -> int:
    """Trainable parameter count for one variant (one member)."""
    return sum(len(copies) * (fan_in + 1) * fan_out
               for copies, layers in _chains(NetworkVariant(kind, input_dim))
               for _, fan_in, fan_out, _ in layers)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows.
    e = np.exp(-np.abs(z))
    return np.divide(np.where(z >= 0, 1.0, e), 1.0 + e, out=out)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.where(z > 30.0, z, np.log1p(np.exp(np.minimum(z, 30.0))))


# Head activations by name: (a(z, s), da/dz from z, s and a), where s is the
# logistic of z, which a moment head computes once for all its columns.  ReLU
# layers are handled inline by _forward_layers and _backward_layers.
_HEADS = {
    "identity": (lambda z, s: z, lambda z, s, a: 1.0),
    "sigmoid": (lambda z, s: s, lambda z, s, a: a * (1.0 - a)),
    "softplus": (lambda z, s: _softplus(z), lambda z, s, a: s),
}


class _Layer:
    """One layer of a stack at one number of input rows, over every copy of
    its chain: its ``(M, copies, fan_in + 1, fan_out)`` ``[W; b]`` parameter
    and gradient views, its input ``a_in``, and the buffers its passes write.
    A ReLU layer's activation ``a`` is a view of ``a_ones``, which adds the
    ones column that the next layer's bias row multiplies; a head layer's is
    ``out``, its columns of the pass's output.  A moment head keeps ``s``,
    the logistic of ``z`` over all its columns, and ``heads`` holds each
    output column's activation, derivative and views of ``z``, ``s``, ``a``
    and ``dz``.  A backward pass also keeps each layer's input transposed
    and, but in the first layer (which reads the features), a buffer for
    its input's gradient; when two copies read one, ``fold`` holds their
    halves of it, whose sum is that gradient."""

    __slots__ = ("act", "heads", "wb", "gwb", "w_t", "a_in", "a_in_t", "z", "s", "a",
                 "a_ones", "mask", "dz", "din", "product", "fold")

    def __init__(self, act, wb, gwb, a_in, n, backward, din, out=None):
        m, copies, rows, fan_out = wb.shape
        self.act, self.wb, self.gwb, self.a_in = act, wb, gwb, a_in
        self.w_t = np.swapaxes(wb[..., : rows - 1, :], -1, -2)
        self.a_in_t = np.swapaxes(a_in, -1, -2) if backward else None
        self.z = np.empty((m, copies, n, fan_out))
        self.a_ones = np.ones((m, copies, n, fan_out + 1)) if out is None else None
        self.a = self.a_ones[..., :fan_out] if out is None else out
        relu_backward = backward and out is None
        self.mask = np.empty(self.z.shape, dtype=bool) if relu_backward else None
        self.dz = np.empty_like(self.z) if backward else None
        self.s = None if out is None or act == ("identity",) else np.empty_like(self.z)

        def column(a, k):  # output column k, copy by copy
            return None if a is None else a[:, k // fan_out, :, k % fan_out]

        self.heads = None if out is None else [
            (*_HEADS[name], *(column(a, k) for a in (self.z, self.s, out, self.dz)))
            for k, name in enumerate(act)]
        self.din = np.empty((m, copies, n, rows - 1)) if backward and din else None
        # Through a one-unit layer the input gradient is an outer product: a
        # broadcast multiply gives the matmul's bits at a fraction of its cost.
        self.product = np.multiply if fan_out == 1 else np.matmul
        self.fold = (None if self.din is None or a_in.shape[1] == copies
                     else (self.din[:, :1], self.din[:, 1:]))


@dataclass
class _Pass:
    """A stack's layers and buffers for one number of input rows."""

    layers: list[_Layer]
    out: np.ndarray  # the output, which the head layers write
    x: np.ndarray | None = None  # the (M, n, d + 1) inputs, last column ones
    residual: np.ndarray | None = None  # output - targets
    dout: np.ndarray | None = None  # d(loss)/d(output)
    dhead: np.ndarray | None = None  # dout as the head's (M, copies, n, fan_out)


class Workspace:
    """Every buffer a stack's passes reuse.

    ``grads`` is the ``(M, P)`` gradient buffer as :class:`FlatParams`; each
    layer writes its ``[gW; gb]`` straight into its view.  Inputs,
    activations, pre-activations, backward temporaries and every view a step
    reads are kept per number of input rows (the full batch, a ragged last
    batch, the validation set), so a step allocates no stack-sized array and
    builds no view; a shape that only runs forward gets no backward buffers.
    A pass at one shape overwrites the previous pass at that shape; outputs
    that alias a buffer are valid until then.
    """

    def __init__(self, net: Network):
        self.net = net
        self.grads = FlatParams(net.variant, np.zeros_like(net.flat))
        self.scratch = np.empty_like(net.flat)
        self._passes: dict[int, _Pass] = {}

    def pass_for(self, shape: tuple[int, ...], backward: bool = False) -> _Pass:
        """The buffers for inputs of ``shape``, ``(n, d)`` or ``(M, n, d)``,
        with or without the ones column."""
        n = shape[-2]
        found = self._passes.get(n)
        if found is None or (backward and found.x is None):
            found = self._passes[n] = self._allocate(n, backward)
        return found

    def load(self, x) -> _Pass:
        """The backward pass for inputs ``x``, as :func:`forward` takes them,
        with ``x`` in its input buffer.  :func:`train` gathers each batch
        straight into that buffer, ones column included, and hands it in."""
        for found in self._passes.values():
            if x is found.x:
                return found
        x = _as_inputs(self.net, x)
        found = self.pass_for(x.shape, backward=True)
        found.x[...] = x
        return found

    def _allocate(self, n: int, backward: bool) -> _Pass:
        net, params = self.net, self.net.params
        m, acts = net.n_members, [act for _, layers in _chains(net.variant)
                                  for *_, act in layers]
        out, dout = (np.empty((m, n, len(acts[-1]))) for _ in range(2))
        # The head writes each copy's columns of the output, copy by copy.
        by_copy = [a.reshape(m, n, *params.stacked[-1].shape[1::2]).swapaxes(1, 2)
                   for a in (out, dout)]
        # Every batch fills all of x, ones column included.
        x = np.empty((m, n, net.input_dim + 1)) if backward else None
        a_in, layers = None if x is None else x[:, None], []
        for i, (act, wb, gwb) in enumerate(zip(acts, params.stacked, self.grads.stacked)):
            layers.append(_Layer(act, wb, gwb, a_in, n, backward, din=i > 0,
                                 out=by_copy[0] if i == len(acts) - 1 else None))
            a_in = layers[-1].a_ones
        # A one-column output is returned without its column axis.
        if out.shape[-1] == 1:
            out, dout = out[..., 0], dout[..., 0]
        if not backward:
            return _Pass(layers, out)
        return _Pass(layers, out, x, np.empty_like(out), dout, by_copy[1])


def _forward_layers(layers: list[_Layer], x: np.ndarray) -> None:
    # ``x`` carries the ones column; so does the output of a ReLU layer.
    a = x
    for layer in layers:
        z = np.matmul(a, layer.wb, out=layer.z)
        if layer.heads is None:
            np.maximum(z, 0.0, out=layer.a)
            a = layer.a_ones
        else:
            if layer.s is not None:
                _sigmoid(z, out=layer.s)
            for activation, _, z_k, s_k, a_k, _ in layer.heads:
                a_k[...] = activation(z_k, s_k)


def _backward_layers(layers: list[_Layer], dout: np.ndarray) -> None:
    # Walks the layers of the last forward pass in reverse, writing each
    # gradient into the workspace.
    for layer in reversed(layers):
        if layer.heads is None:
            dz = np.multiply(dout, np.greater(layer.z, 0.0, out=layer.mask),
                             out=layer.dz)
        else:
            dz = layer.dz
            for _, derivative, z_k, s_k, a_k, dz_k in layer.heads:
                dz_k[...] = derivative(z_k, s_k, a_k)
            dz *= dout
        # The input's ones column turns the bias gradient into the last row.
        np.matmul(layer.a_in_t, dz, out=layer.gwb)
        if layer.din is None:
            return
        dout = layer.product(dz, layer.w_t, out=layer.din)
        if layer.fold is not None:
            dout = np.add(*layer.fold, out=layer.fold[0])


def _as_inputs(net: Network, x) -> np.ndarray:
    """``x`` as ``(n, d + 1)`` or ``(M, n, d + 1)`` inputs whose last column
    is ones."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if (x.ndim not in (2, 3) or x.shape[-1] != net.input_dim
            or (x.ndim == 3 and x.shape[0] != net.n_members)):
        raise DomainError(
            f"forward: expected (n, {net.input_dim}) or "
            f"({net.n_members}, n, {net.input_dim}) inputs, got {x.shape}"
        )
    out = np.ones(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    return out


def _require_finite(what: str, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise DomainError(f"{what}: inputs must be finite")


def forward(net: Network, x, work: Workspace | None = None) -> np.ndarray:
    """Batch forward pass of every member.

    ``x`` is ``(n, d)``, shared by all members, or ``(M, n, d)``, one batch
    per member.  Moment variants return an ``(M, n, 2)`` array of (mu_hat,
    sigma_hat); point variants an ``(M, n)`` array.  The pass runs in
    ``work``'s buffers for this input shape (a fresh :class:`Workspace`
    without one).  Inputs are not scanned for finiteness here; :func:`train`
    and :func:`predict` do that.
    """
    x = _as_inputs(net, x)
    buffers = (work or Workspace(net)).pass_for(x.shape)
    # Per-member inputs broadcast over the copy axis.
    _forward_layers(buffers.layers, x if x.ndim == 2 else x[:, None])
    return buffers.out


def predict(net: Network, x) -> np.ndarray:
    """:func:`forward` on inputs that are first checked to be finite."""
    x = np.asarray(x, dtype=np.float64)
    _require_finite("predict", x)
    return forward(net, x)


def _residual_loss(residual: np.ndarray, width: int) -> np.ndarray:
    # The sum of each output column's mean square; each mean is
    # add.reduce(d*d)/n over a contiguous row, as np.mean sums.
    columns = residual[..., None] if width == 1 else residual
    squares = np.square(columns.swapaxes(-1, -2), order="C")
    return np.add.reduce(np.add.reduce(squares, axis=-1) / columns.shape[-2], axis=-1)


def loss_value(net: Network, out: np.ndarray, targets) -> np.ndarray:
    """Per-member loss, shape ``(M,)``: joint MSE over (mu, sigma) for moment
    nets, plain MSE for point nets.

    ``targets`` is shared by all members (``(n,)`` / ``(n, 2)``) or given per
    member (``(M, n)`` / ``(M, n, 2)``).
    """
    residual = out - np.asarray(targets, dtype=np.float64)
    return _residual_loss(residual, _out_width(net.variant))


def loss(net: Network, x, targets, work: Workspace | None = None) -> np.ndarray:
    return loss_value(net, forward(net, x, work), targets)


def gradients(
    net: Network, x, targets, work: Workspace | None = None
) -> tuple[np.ndarray, FlatParams]:
    """Per-member losses and the analytic gradient of each member's loss
    with respect to its own parameters, laid out like ``net.params``.

    The gradients are ``work.grads`` (a fresh workspace's without one), and
    the next call on that workspace overwrites them.
    """
    work = work or Workspace(net)
    buffers = work.load(x)
    _forward_layers(buffers.layers, buffers.layers[0].a_in)
    out = buffers.out
    residual = np.subtract(out, targets, out=buffers.residual)
    np.multiply(residual, 2.0 / out.shape[1], out=buffers.dout)
    value = _residual_loss(residual, _out_width(net.variant))
    _backward_layers(buffers.layers, buffers.dhead)
    return value, work.grads


@dataclass
class AdamState:
    """First and second moments over the whole ``(M, P)`` buffer, and two
    temporaries of that shape; each is allocated at the first step that
    lacks it."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def adam_step(
    flat: np.ndarray,
    grads: np.ndarray,
    state: AdamState,
    lr: float,
    active: np.ndarray | None = None,
) -> None:
    """One Adam update of the ``(M, P)`` buffer; rows where ``active`` is
    False are left unchanged (their gradients must be finite)."""
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    if state.scratch is None:
        state.scratch = np.empty_like(flat), np.empty_like(flat)
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    update, denom = state.scratch
    m *= ADAM_BETA1
    m += np.multiply(grads, 1.0 - ADAM_BETA1, out=update)
    v *= ADAM_BETA2
    v += np.multiply(np.multiply(grads, 1.0 - ADAM_BETA2, out=update), grads,
                     out=update)
    # lr * m_hat / (sqrt(v_hat) + eps), each operation in that order.
    np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**t, out=denom), out=denom)
    denom += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**t, out=update)
    update *= lr
    update /= denom
    if active is not None and not active.all():
        update *= active[:, None]
    flat -= update


def backward_and_step(
    net: Network, x, targets, state: AdamState, cfg: TrainConfig,
    work: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One gradient step of every member, in ``work``'s buffers.

    Returns the per-member losses and a mask of the members whose loss and
    gradient norm were finite.  A member outside that mask is not updated.
    """
    work = work or Workspace(net)
    value, grads = gradients(net, x, targets, work)
    # The max-norm is finite exactly when every entry is, and cannot overflow.
    norm = np.maximum.reduce(np.abs(grads.flat, out=work.scratch), axis=1)
    finite = np.isfinite(value) & np.isfinite(norm)
    if not finite.all():
        grads.flat[~finite] = 0.0
    adam_step(net.flat, grads.flat, state, cfg.learning_rate, finite)
    return value, finite


@dataclass
class TrainHistory:
    """One member's training record; ``error`` is set if the member failed."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = 0
    error: TrainingError | None = None

    @property
    def n_epochs(self) -> int:
        return len(self.train_loss)


@dataclass
class StackHistory:
    """The member histories of one :func:`train` call.

    ``n_epochs`` and ``best_epoch`` are sums over members, so their
    difference counts the epochs members ran past their best.
    """

    members: list[TrainHistory]

    @property
    def n_epochs(self) -> int:
        return sum(h.n_epochs for h in self.members)

    @property
    def best_epoch(self) -> int:
        return sum(h.best_epoch for h in self.members)


def _keep(ids: np.ndarray, stack: Network, state: AdamState, rows: np.ndarray,
          sizes: list[int]):
    """The members ``ids[rows]`` of a live stack, as a stack of their own.

    Returns their ids, the stack of their parameters, a workspace sized for
    it with the backward pass of a batch of each of ``sizes`` rows, those
    passes, and their Adam moments at the same step count.  Every operation
    runs within one member's row, so they train on with the same bits.
    """
    seeds = tuple(seed for seed, kept in zip(stack.seeds, rows) if kept)
    kept = Network(stack.variant, seeds, FlatParams(stack.variant, stack.flat[rows]))
    work = Workspace(kept)
    return (ids[rows], kept, work, [work.pass_for((size, 0), True) for size in sizes],
            AdamState(state.m[rows], state.v[rows], state.step))


# The per-step checks catch every non-finite value member by member, so
# NumPy's floating-point errors stay off: one member's overflow must not raise
# out of the whole stack, whatever error state the caller set.
@np.errstate(all="ignore")
def train(
    net: Network,
    train_x,
    train_y,
    val_x,
    val_y,
    cfg: TrainConfig,
) -> StackHistory:
    """Mini-batch Adam with per-member early stopping on the validation loss.

    Features are shared by all members and must be finite; targets are
    shared or per member (see :func:`loss_value`).  Member m shuffles with
    ``default_rng(net.seeds[m])``.  A member stops after ``cfg.patience``
    epochs without a strict improvement (>= 1e-6 lower validation loss) or
    at ``cfg.max_epochs``, and keeps the parameters of its best epoch.  A
    member whose loss or gradient turns non-finite fails with a
    :class:`TrainingError` in its history and all-zero parameters, and
    records no losses for that epoch; the others are not affected.  A
    member that fails leaves the stack after that step, and one that stops
    leaves after that epoch: the rest train on as a smaller stack of the
    live members alone.
    """
    train_y = np.asarray(train_y, dtype=np.float64)
    val_y = np.asarray(val_y, dtype=np.float64)
    if np.shape(train_x)[0] == 0 or np.shape(val_x)[0] == 0:
        raise TrainingError("train: empty training or validation split")
    # Features are shared by every member; a member's own non-finite targets
    # fail it alone, through the per-step loss check.  The training split
    # gets its ones column here, once, and every batch is gathered from it.
    train_x, val_x = _as_inputs(net, train_x), np.asarray(val_x, dtype=np.float64)
    _require_finite("train", train_x, val_x)
    n, n_members = train_x.shape[0], net.n_members
    member_ndim = 2 if _out_width(net.variant) == 1 else 3  # targets per member
    rngs = [np.random.default_rng(seed) for seed in net.seeds]
    members = [TrainHistory() for _ in net.seeds]
    starts = range(0, n, cfg.batch_size)
    sizes = [min(cfg.batch_size, n - lo) for lo in starts]
    # Per member: its shuffle and batch losses in this epoch, and its best
    # parameters and validation loss.
    order = np.empty((n_members, n), dtype=np.int64)
    batch_losses = np.empty((n_members, len(starts)))
    best, best_val = net.flat.copy(), [math.inf] * n_members
    # The live stack: its members' ids, in order, and its buffers, with the
    # pass that each batch is gathered into; at first, every member.
    ids, stack, work, batches, state = _keep(
        np.arange(n_members), net, AdamState(np.zeros_like(best), np.zeros_like(best)),
        np.ones(n_members, dtype=bool), sizes)
    for epoch in range(1, cfg.max_epochs + 1):
        # Shuffling a copy of arange(n) draws what permutation(n) draws.
        order[...] = np.arange(n)
        for m in ids.tolist():
            rngs[m].shuffle(order[m])
        for j, lo in enumerate(starts):
            idx = order[ids, lo : lo + cfg.batch_size]
            y = (train_y[ids[:, None], idx] if train_y.ndim == member_ndim
                 else train_y.take(idx, axis=0))
            train_x.take(idx, axis=0, out=batches[j].x, mode="clip")
            value, finite = backward_and_step(stack, batches[j].x, y, state, cfg, work)
            batch_losses[ids, j] = value
            if not finite.all():
                for row in np.flatnonzero(~finite):
                    members[ids[row]].error = TrainingError(
                        f"non-finite loss or gradient in epoch {epoch} "
                        f"(loss={float(value[row])!r}); member stopped"
                    )
                best[ids[~finite]] = 0.0
                del work, batches  # freed before the smaller stack's buffers
                ids, stack, work, batches, state = _keep(ids, stack, state, finite, sizes)
                if not ids.size:
                    break
        if not ids.size:
            break
        train_loss = np.add.reduce(batch_losses[ids], axis=1) / len(starts)
        val = loss(stack, val_x, val_y[ids] if val_y.ndim == member_ndim else val_y, work)
        # A member stops after cfg.patience epochs past its best one.
        live = []
        for row, (m, t, v) in enumerate(zip(ids.tolist(), train_loss.tolist(),
                                            val.tolist())):
            history = members[m]
            history.train_loss.append(t)
            history.val_loss.append(v)
            if v < best_val[m] - MIN_IMPROVEMENT:
                best_val[m], history.best_epoch, best[m] = v, epoch, stack.flat[row]
            live.append(epoch - history.best_epoch < cfg.patience)
        if not all(live):
            del work, batches
            ids, stack, work, batches, state = _keep(ids, stack, state, np.array(live),
                                                     sizes)
            if not ids.size:
                break
    net.flat[...] = best
    return StackHistory(members)
