"""Small feed-forward predictors with explicit backprop and Adam, in stacks.

All variants share the same bottleneck layout: two hidden ReLU layers at 75%
and 50% of the input width (round half up).  Four head arrangements exist:

* ``independent``  - two disjoint networks, one per moment (mu, sigma)
* ``shared_first`` - one shared first layer, split second layers and heads
* ``fully_shared`` - one shared trunk with a two-unit head
* ``point``        - a single scalar head, used for per-descriptor baselines

Moment heads squash: the mu output passes through a logistic so it stays in
(0, 1), the sigma output through a softplus so it stays positive.  Validity
of sigma^2 against mu(1-mu) is NOT enforced here; the Beta conversion clamps
downstream.  Point heads are identity (descriptor targets can be negative).

A :class:`Network` is a stack of M members of one variant; a single network
is the M = 1 case.  Each member has its own seed and parameters.  A layer's
weights ``W`` and bias ``b`` are adjacent in its member's row of one ``(M,
P)`` buffer, so the layer sees them as one ``(M, fan_in + 1, fan_out)``
view ``[W; b]``.  Every activation that feeds a layer carries a trailing
ones column, so a layer's forward pass is one batched ``np.matmul``, and
one more writes ``[gW; gb]`` in its backward pass.  Every pass runs all
members at once.  Each reduction stays inside one member's slice, so a
member's numbers do not depend on which other members share its stack.

A :class:`Workspace` holds the ``(M, P)`` gradient buffer, whose per-layer
``[gW; gb]`` views each backward pass writes into with ``out=``, and each
layer's pre-activation, activation and backward buffers for every number of
input rows it sees (the full batch, a ragged last batch, the validation
set).  An :class:`AdamState` holds the moments and two temporaries.
:func:`train` allocates both once per live-member count, not once per step.
A result written into a buffer has the bits a freshly allocated one would
have, so the buffers change no numbers.

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
        if self.input_dim < 2:
            raise DomainError("NetworkVariant: input_dim must be >= 2")


# Layers as (param prefix, fan-in, fan-out, activation) per chain.
def _chains(variant: NetworkVariant) -> dict[str, list[tuple[str, int, int, str]]]:
    d = variant.input_dim
    h1, h2 = hidden_dims(d)
    if variant.kind == "point":
        return {"trunk": [("l1", d, h1, "relu"), ("l2", h1, h2, "relu"),
                          ("head", h2, 1, "identity")]}
    if variant.kind == "fully_shared":
        return {"trunk": [("l1", d, h1, "relu"), ("l2", h1, h2, "relu"),
                          ("head", h2, 2, "moment")]}
    if variant.kind == "shared_first":
        return {
            "shared": [("shared", d, h1, "relu")],
            "mu": [("mu_l2", h1, h2, "relu"), ("mu_head", h2, 1, "sigmoid")],
            "sigma": [("sigma_l2", h1, h2, "relu"),
                      ("sigma_head", h2, 1, "softplus")],
        }
    return {
        "mu": [("mu_l1", d, h1, "relu"), ("mu_l2", h1, h2, "relu"),
               ("mu_head", h2, 1, "sigmoid")],
        "sigma": [("sigma_l1", d, h1, "relu"), ("sigma_l2", h1, h2, "relu"),
                  ("sigma_head", h2, 1, "softplus")],
    }


@functools.lru_cache(maxsize=None)
def _layout(variant: NetworkVariant) -> tuple[tuple[str, int, int, int], ...]:
    """(layer name, offset, fan-in, fan-out) of every layer in the buffer.

    A layer's ``[W; b]`` fill ``(fan_in + 1) * fan_out`` adjacent entries,
    ``W`` row-major and the bias row last.
    """
    out, offset = [], 0
    for layers in _chains(variant).values():
        for name, fan_in, fan_out, _ in layers:
            out.append((name, offset, fan_in, fan_out))
            offset += (fan_in + 1) * fan_out
    return tuple(out)


class FlatParams(dict):
    """Named ``(M, ...)`` parameter arrays that are views into ``flat`` (M, P).

    Each layer has a ``name.w`` ``(M, fan_in, fan_out)`` and a ``name.b``
    ``(M, 1, fan_out)`` entry, and ``layers[name]`` is their ``(M, fan_in +
    1, fan_out)`` union ``[W; b]``.  Assigning to a name copies into the
    buffer, so every entry stays a view and whole-stack updates of ``flat``
    reach all of them.
    """

    def __init__(self, variant: NetworkVariant, flat: np.ndarray):
        super().__init__()
        self.flat = flat
        self.layers = {}
        for name, lo, fan_in, fan_out in _layout(variant):
            wb = flat[:, lo : lo + (fan_in + 1) * fan_out].reshape(
                flat.shape[0], fan_in + 1, fan_out)
            self.layers[name] = wb
            dict.__setitem__(self, name + ".w", wb[:, :fan_in])
            dict.__setitem__(self, name + ".b", wb[:, fan_in:])

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


def _zeros(variant: NetworkVariant, seeds) -> Network:
    seeds = (int(seeds),) if np.ndim(seeds) == 0 else tuple(int(s) for s in seeds)
    if not seeds:
        raise DomainError("Network: a stack needs at least one member")
    flat = np.zeros((len(seeds), count_params(variant.kind, variant.input_dim)))
    return Network(variant, seeds, FlatParams(variant, flat))


def build(variant: NetworkVariant, seeds) -> Network:
    """Initialise one member per seed (an int gives a one-member stack).

    Weights are He-style uniform with fan-in scaling, head layers scaled down
    by ``HEAD_INIT_SCALE``; biases start at zero.  Member m's init is drawn
    from ``default_rng(seeds[m])`` alone.
    """
    net = _zeros(variant, seeds)
    for m, seed in enumerate(net.seeds):
        rng = np.random.default_rng(seed)
        for layers in _chains(variant).values():
            for name, fan_in, fan_out, _ in layers:
                limit = math.sqrt(6.0 / fan_in)
                if name.endswith("head"):
                    limit *= HEAD_INIT_SCALE
                net.params[f"{name}.w"][m] = rng.uniform(-limit, limit, (fan_in, fan_out))
    return net


def count_params(kind: str, input_dim: int) -> int:
    """Closed-form trainable parameter count for one variant (one member)."""
    d = input_dim
    h1, h2 = hidden_dims(d)
    trunk = d * h1 + h1 + h1 * h2 + h2
    if kind == "point":
        return trunk + h2 + 1
    if kind == "fully_shared":
        return trunk + 2 * h2 + 2
    if kind == "shared_first":
        return d * h1 + h1 + 2 * (h1 * h2 + h2) + 2 * (h2 + 1)
    if kind == "independent":
        return 2 * (trunk + h2 + 1)
    raise DomainError(f"count_params: unknown kind {kind!r}")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below: exp never overflows.
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.where(z > 30.0, z, np.log1p(np.exp(np.minimum(z, 30.0))))


def _activate(kind: str, z: np.ndarray) -> np.ndarray:
    # ReLU layers are handled inline by _chain_forward and _chain_backward.
    if kind == "identity":
        return z
    if kind == "sigmoid":
        return _sigmoid(z)
    if kind == "softplus":
        return _softplus(z)
    if kind == "moment":
        out = np.empty_like(z)
        out[..., 0] = _sigmoid(z[..., 0])
        out[..., 1] = _softplus(z[..., 1])
        return out
    raise DomainError(f"unknown activation {kind!r}")


def _pre_activation_grad(kind: str, dout: np.ndarray, z: np.ndarray,
                         a: np.ndarray) -> np.ndarray:
    # dL/dz from dL/da, using the activation value where that is cheaper.
    if kind == "identity":
        return dout
    if kind == "sigmoid":
        return dout * (a * (1.0 - a))
    if kind == "softplus":
        return dout * _sigmoid(z)
    if kind == "moment":
        g = np.empty_like(z)
        g[..., 0] = a[..., 0] * (1.0 - a[..., 0])
        g[..., 1] = _sigmoid(z[..., 1])
        return dout * g
    raise DomainError(f"unknown activation {kind!r}")


class _Layer:
    """One layer of a stack at one input shape: its ``[W; b]`` parameter and
    gradient views, and the buffers its forward (and backward) passes write
    into.  A ReLU layer's activation ``a`` is a view of ``a_ones``, which
    adds the ones column that the next layer's bias row multiplies."""

    __slots__ = ("act", "wb", "gwb", "w_t", "z", "a", "a_ones", "mask", "dz",
                 "din", "a_in")

    def __init__(self, act, wb, gwb, n, backward, din):
        m, rows, fan_out = wb.shape
        fan_in = rows - 1
        self.act, self.wb, self.gwb = act, wb, gwb
        self.w_t = np.swapaxes(wb[:, :fan_in], -1, -2)
        self.z = np.empty((m, n, fan_out))
        relu = act == "relu"
        self.a_ones = np.ones((m, n, fan_out + 1)) if relu else None
        self.a = self.a_ones[..., :fan_out] if relu else None
        relu_backward = relu and backward
        self.mask = np.empty(self.z.shape, dtype=bool) if relu_backward else None
        self.dz = np.empty_like(self.z) if relu_backward else None
        self.din = np.empty((m, n, fan_in)) if backward and din else None
        self.a_in = None


@dataclass
class _Pass:
    """A stack's layers and loss buffers for one input shape."""

    chains: dict[str, list[_Layer]]
    residual: np.ndarray | None  # output - targets
    dout: np.ndarray | None  # d(loss)/d(output)


class Workspace:
    """Every buffer a stack's passes reuse.

    ``grads`` is the ``(M, P)`` gradient buffer as :class:`FlatParams`; each
    layer writes its ``[gW; gb]`` straight into its view.  Activations,
    pre-activations and backward temporaries are kept per number of input
    rows (the full batch, a ragged last batch, the validation set), so a
    step allocates no stack-sized array; a shape that only runs forward gets
    no backward buffers.  A pass at one shape overwrites the previous pass at
    that shape; outputs that alias a buffer are valid until then.
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
        if found is None or (backward and found.dout is None):
            found = self._passes[n] = self._allocate(n, backward)
        return found

    def _allocate(self, n: int, backward: bool) -> _Pass:
        net, params, grads = self.net, self.net.params, self.grads
        # The chains that read the features need no gradient for their input.
        reads_x = {"trunk", "shared"} if net.kind != "independent" else {"mu", "sigma"}
        chains = {
            chain: [
                _Layer(act, params.layers[name], grads.layers[name], n, backward,
                       din=i > 0 or chain not in reads_x)
                for i, (name, _, _, act) in enumerate(layers)
            ]
            for chain, layers in _chains(net.variant).items()
        }
        if not backward:
            return _Pass(chains, None, None)
        shape = (net.n_members, n) + (() if net.kind == "point" else (2,))
        return _Pass(chains, np.empty(shape), np.empty(shape))


def _chain_forward(layers: list[_Layer], x: np.ndarray) -> np.ndarray:
    # ``x`` carries the ones column; so does the output of a ReLU layer.
    a = x
    for layer in layers:
        layer.a_in = a
        z = np.matmul(a, layer.wb, out=layer.z)
        if layer.act == "relu":
            np.maximum(z, 0.0, out=layer.a)
            a = layer.a_ones
        else:
            a = layer.a = _activate(layer.act, z)
    return a


def _chain_backward(layers: list[_Layer], dout: np.ndarray, input_grad: bool = True):
    # Walks the layers of the last forward pass in reverse, writing each
    # gradient into the workspace; returns dL/d(chain input), or None when
    # ``input_grad`` is off (the chain reads the features).
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        if layer.act == "relu":
            dz = np.multiply(dout, np.greater(layer.z, 0.0, out=layer.mask),
                             out=layer.dz)
        else:
            dz = _pre_activation_grad(layer.act, dout, layer.z, layer.a)
        # The input's ones column turns the bias gradient into the last row.
        np.matmul(np.swapaxes(layer.a_in, -1, -2), dz, out=layer.gwb)
        if i or input_grad:
            # Through a one-unit layer this is an outer product: a broadcast
            # multiply gives the matmul's bits at a fraction of its cost.
            product = np.multiply if dz.shape[-1] == 1 else np.matmul
            dout = product(dz, layer.w_t, out=layer.din)
    return dout if input_grad else None


def _as_inputs(net: Network, x, augmented: bool = False) -> np.ndarray:
    """``x`` as ``(n, d + 1)`` or ``(M, n, d + 1)`` inputs whose last column
    is ones; ``augmented`` inputs already have it."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if (x.ndim not in (2, 3) or x.shape[-1] != net.input_dim + augmented
            or (x.ndim == 3 and x.shape[0] != net.n_members)):
        raise DomainError(
            f"forward: expected (n, {net.input_dim}) or "
            f"({net.n_members}, n, {net.input_dim}) inputs, got {x.shape}"
        )
    if augmented:
        return x
    out = np.ones(x.shape[:-1] + (x.shape[-1] + 1,))
    out[..., :-1] = x
    return out


def _require_finite(what: str, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise DomainError(f"{what}: inputs must be finite")


def forward(net: Network, x, work: Workspace | None = None,
            augmented: bool = False) -> np.ndarray:
    """Batch forward pass of every member.

    ``x`` is ``(n, d)``, shared by all members, or ``(M, n, d)``, one batch
    per member; ``augmented`` inputs carry a last column of ones, as
    :func:`train` builds them.  Moment variants return an ``(M, n, 2)``
    array of (mu_hat, sigma_hat); point variants an ``(M, n)`` array.  The
    pass runs in ``work``'s buffers for this input shape (a fresh
    :class:`Workspace` without one).  Inputs are not scanned for finiteness
    here; :func:`train` and :func:`predict` do that.
    """
    x = _as_inputs(net, x, augmented)
    return _forward_chains(net, (work or Workspace(net)).pass_for(x.shape).chains, x)


def _forward_chains(net: Network, chains: dict[str, list[_Layer]], x) -> np.ndarray:
    """:func:`forward` of augmented inputs ``x`` in the layers ``chains``."""
    if net.kind in ("point", "fully_shared"):
        out = _chain_forward(chains["trunk"], x)
        return out[..., 0] if net.kind == "point" else out
    h = _chain_forward(chains["shared"], x) if net.kind == "shared_first" else x
    mu = _chain_forward(chains["mu"], h)
    sigma = _chain_forward(chains["sigma"], h)
    return np.concatenate([mu, sigma], axis=-1)


def predict(net: Network, x) -> np.ndarray:
    """:func:`forward` on inputs that are first checked to be finite."""
    x = _as_inputs(net, x)
    _require_finite("predict", x)
    return forward(net, x, augmented=True)


def _residual_loss(kind: str, residual: np.ndarray) -> np.ndarray:
    # Each mean is add.reduce(d*d)/n over a contiguous row, as np.mean sums.
    if kind == "point":
        return np.add.reduce(np.square(residual), axis=-1) / residual.shape[-1]
    n = residual.shape[-2]
    return (np.add.reduce(np.square(residual[..., 0]), axis=-1) / n
            + np.add.reduce(np.square(residual[..., 1]), axis=-1) / n)


def loss_value(net: Network, out: np.ndarray, targets) -> np.ndarray:
    """Per-member loss, shape ``(M,)``: joint MSE over (mu, sigma) for moment
    nets, plain MSE for point nets.

    ``targets`` is shared by all members (``(n,)`` / ``(n, 2)``) or given per
    member (``(M, n)`` / ``(M, n, 2)``).
    """
    return _residual_loss(net.kind, out - np.asarray(targets, dtype=np.float64))


def loss(net: Network, x, targets, work: Workspace | None = None,
         augmented: bool = False) -> np.ndarray:
    return loss_value(net, forward(net, x, work, augmented), targets)


def gradients(
    net: Network, x, targets, work: Workspace | None = None, augmented: bool = False
) -> tuple[np.ndarray, FlatParams]:
    """Per-member losses and the analytic gradient of each member's loss
    with respect to its own parameters, laid out like ``net.params``.

    The gradients are ``work.grads`` (a fresh workspace's without one), and
    the next call on that workspace overwrites them.
    """
    work = work or Workspace(net)
    x = _as_inputs(net, x, augmented)
    buffers = work.pass_for(x.shape, backward=True)
    chains = buffers.chains
    out = _forward_chains(net, chains, x)
    residual = np.subtract(out, targets, out=buffers.residual)
    value = _residual_loss(net.kind, residual)
    dout = np.multiply(residual, 2.0 / out.shape[1], out=buffers.dout)
    if net.kind == "point":
        _chain_backward(chains["trunk"], dout[..., None], input_grad=False)
    elif net.kind == "fully_shared":
        _chain_backward(chains["trunk"], dout, input_grad=False)
    else:
        shared = net.kind == "shared_first"
        dh = _chain_backward(chains["mu"], dout[..., :1], input_grad=shared)
        dh_sigma = _chain_backward(chains["sigma"], dout[..., 1:], input_grad=shared)
        if shared:
            _chain_backward(chains["shared"], np.add(dh, dh_sigma, out=dh),
                            input_grad=False)
    return value, work.grads


def finite_difference_gradients(
    net: Network, x, targets, h: float = 1e-5
) -> FlatParams:
    """Central-difference gradients; the oracle for gradient validation.

    One parameter index is perturbed in every member at once, and each
    member's own loss gives its entry, so a member whose loss read another
    member's parameters would not match the analytic gradients.
    """
    flat = net.flat
    grads = np.zeros_like(flat)
    work = Workspace(net)
    for i in range(flat.shape[1]):
        orig = flat[:, i].copy()
        flat[:, i] = orig + h
        up = loss(net, x, targets, work)
        flat[:, i] = orig - h
        down = loss(net, x, targets, work)
        flat[:, i] = orig
        grads[:, i] = (up - down) / (2.0 * h)
    return FlatParams(net.variant, grads)


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
    work: Workspace | None = None, augmented: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One gradient step of every member, in ``work``'s buffers.

    Returns the per-member losses and a mask of the members whose loss and
    gradient norm were finite.  A member outside that mask is not updated.
    """
    work = work or Workspace(net)
    value, grads = gradients(net, x, targets, work, augmented)
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


def _keep(ids: np.ndarray, stack: Network, state: AdamState, rows: np.ndarray):
    """The members ``ids[rows]`` of a live stack, as a stack of their own.

    Returns their ids, the stack of their parameters, a workspace sized for
    it and their Adam moments at the same step count.  Every operation runs
    within one member's row, so they train on with the same bits.
    """
    seeds = tuple(seed for seed, kept in zip(stack.seeds, rows) if kept)
    kept = Network(stack.variant, seeds, FlatParams(stack.variant, stack.flat[rows]))
    return (ids[rows], kept, Workspace(kept),
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
    # fail it alone, through the per-step loss check.  Both splits get their
    # ones column here, once, and every batch is gathered from them.
    train_x, val_x = _as_inputs(net, train_x), _as_inputs(net, val_x)
    _require_finite("train", train_x, val_x)
    n, n_members = train_x.shape[0], net.n_members
    member_ndim = 2 if net.kind == "point" else 3  # targets given per member
    rngs = [np.random.default_rng(seed) for seed in net.seeds]
    members = [TrainHistory() for _ in net.seeds]
    starts = range(0, n, cfg.batch_size)
    # Per member: its shuffle and batch losses in this epoch, its best
    # parameters and validation loss, and the epochs since that improved.
    order = np.empty((n_members, n), dtype=np.int64)
    batch_losses = np.empty((n_members, len(starts)))
    best, best_val = net.flat.copy(), np.full(n_members, math.inf)
    bad_epochs = np.zeros(n_members, dtype=np.int64)
    # The live stack: its members' ids, in order, and its buffers.
    ids, stack, work, state = np.arange(n_members), net, Workspace(net), AdamState()
    for epoch in range(1, cfg.max_epochs + 1):
        for m in ids:
            order[m] = rngs[m].permutation(n)
        for j, lo in enumerate(starts):
            idx = order[ids, lo : lo + cfg.batch_size]
            y = (train_y[ids[:, None], idx] if train_y.ndim == member_ndim
                 else train_y.take(idx, axis=0))
            value, finite = backward_and_step(stack, train_x.take(idx, axis=0), y,
                                              state, cfg, work, augmented=True)
            batch_losses[ids, j] = value
            if not finite.all():
                for row in np.flatnonzero(~finite):
                    members[ids[row]].error = TrainingError(
                        f"non-finite loss or gradient in epoch {epoch} "
                        f"(loss={float(value[row])!r}); member stopped"
                    )
                best[ids[~finite]] = 0.0
                ids, stack, work, state = _keep(ids, stack, state, finite)
                if not ids.size:
                    break
        if not ids.size:
            break
        train_loss = np.add.reduce(batch_losses[ids], axis=1) / len(starts)
        val = loss(stack, val_x, val_y[ids] if val_y.ndim == member_ndim else val_y,
                   work, augmented=True)
        for m, t, v in zip(ids, train_loss.tolist(), val.tolist()):
            members[m].train_loss.append(t)
            members[m].val_loss.append(v)
        improved = val < best_val[ids] - MIN_IMPROVEMENT
        for m in ids[improved]:
            members[m].best_epoch = epoch
        best[ids[improved]] = stack.flat[improved]
        best_val[ids[improved]] = val[improved]
        bad_epochs[ids] = np.where(improved, 0, bad_epochs[ids] + 1)
        live = bad_epochs[ids] < cfg.patience
        if not live.all():
            ids, stack, work, state = _keep(ids, stack, state, live)
            if not ids.size:
                break
    net.flat[...] = best
    return StackHistory(members)
