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
is the M = 1 case.  Each member has its own seed and parameters.  Weights
are ``(M, fan_in, fan_out)`` and biases ``(M, 1, fan_out)`` views into one
``(M, P)`` buffer, and every pass runs all members at once with batched
``np.matmul``.  Each reduction stays inside one member's slice, so a
member's numbers do not depend on which other members share its stack.

Each :func:`train` call allocates one :class:`Workspace` and one
:class:`AdamState`, and every step reuses them.  The workspace holds the
``(M, P)`` gradient buffer, whose per-layer ``.w``/``.b`` views each
backward pass writes into with ``out=``, and each layer's pre-activation,
activation and backward buffers for every input shape it sees (the full
batch, a ragged last batch, the validation set).  The Adam state holds the
moments and two temporaries.  A result written into a buffer has the bits a
freshly allocated one would have, so the buffers change no numbers.

Training minimises the joint MSE of mu and sigma (plain MSE for point nets)
with Adam (beta1=0.9, beta2=0.999, eps=1e-8) applied to the whole buffer.  A
member's seed draws both its init and its per-epoch shuffle.  Each member
early-stops on its own validation loss; a stopped member freezes (its update
is masked to zero) while the others train on, and it ends with its best-epoch
parameters.  Features are checked to be finite once per :func:`train` call.
Each step checks every member's loss and gradient norm; a member where either
is not finite fails alone, with a :class:`TrainingError` in its history.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import POSITIVE, DomainError, TrainingError, check_fields

KINDS = ("independent", "shared_first", "fully_shared", "point")
MOMENT_KINDS = ("independent", "shared_first", "fully_shared")

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


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 5

    def __post_init__(self):
        check_fields(self, learning_rate=POSITIVE, batch_size=POSITIVE,
                     max_epochs=POSITIVE, patience=POSITIVE)


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
def _layout(variant: NetworkVariant) -> tuple[tuple[str, int, int, tuple[int, int]], ...]:
    """(name, start, stop, per-member shape) of every parameter in the buffer."""
    out, offset = [], 0
    for layers in _chains(variant).values():
        for name, fan_in, fan_out, _ in layers:
            for suffix, shape in ((".w", (fan_in, fan_out)), (".b", (1, fan_out))):
                size = shape[0] * shape[1]
                out.append((name + suffix, offset, offset + size, shape))
                offset += size
    return tuple(out)


class FlatParams(dict):
    """Named ``(M, ...)`` parameter arrays that are views into ``flat`` (M, P).

    Assigning to a name copies into the buffer, so every entry stays a view
    and whole-stack updates of ``flat`` reach all of them.
    """

    def __init__(self, variant: NetworkVariant, flat: np.ndarray):
        super().__init__(
            (name, flat[:, lo:hi].reshape((flat.shape[0],) + shape))
            for name, lo, hi, shape in _layout(variant)
        )
        self.flat = flat

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
    if kind == "relu":
        return np.maximum(z, 0.0)
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
    if kind == "relu":
        return dout * (z > 0.0)
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
    """One layer of a stack at one input shape: its parameter and gradient
    views, and the buffers its forward (and backward) passes write into."""

    __slots__ = ("act", "w", "b", "w_t", "gw", "gb", "z", "a", "mask", "dz",
                 "din", "a_in")

    def __init__(self, act, w, b, gw, gb, n, backward, din):
        m, fan_in, fan_out = w.shape
        self.act, self.w, self.b, self.gw, self.gb = act, w, b, gw, gb
        self.w_t = np.swapaxes(w, -1, -2)
        self.z = np.empty((m, n, fan_out))
        relu = act == "relu"
        self.a = np.empty_like(self.z) if relu else None
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
    """Every buffer a stack's passes reuse, allocated once per :func:`train`.

    ``grads`` is the ``(M, P)`` gradient buffer as :class:`FlatParams`; each
    layer writes its weight and bias gradients straight into its views.
    Activations, pre-activations and backward temporaries are kept per input
    shape (the full batch, a ragged last batch, the validation set), so a
    step allocates no stack-sized array; a shape that only runs forward gets
    no backward buffers.  A pass at one shape overwrites the previous pass at
    that shape; outputs that alias a buffer are valid until then.
    """

    def __init__(self, net: Network):
        self.net = net
        self.grads = FlatParams(net.variant, np.zeros_like(net.flat))
        self.scratch = np.empty_like(net.flat)
        self._passes: dict[tuple[int, ...], _Pass] = {}

    def pass_for(self, shape: tuple[int, ...], backward: bool = False) -> _Pass:
        """The buffers for inputs of ``shape``, ``(n, d)`` or ``(M, n, d)``."""
        found = self._passes.get(shape)
        if found is None or (backward and found.dout is None):
            found = self._passes[shape] = self._allocate(shape[-2], backward)
        return found

    def _allocate(self, n: int, backward: bool) -> _Pass:
        net, params, grads = self.net, self.net.params, self.grads
        # The chains that read the features need no gradient for their input.
        reads_x = {"trunk", "shared"} if net.kind != "independent" else {"mu", "sigma"}
        chains = {
            chain: [
                _Layer(act, params[name + ".w"], params[name + ".b"],
                       grads[name + ".w"], grads[name + ".b"], n, backward,
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
    a = x
    for layer in layers:
        layer.a_in = a
        z = np.matmul(a, layer.w, out=layer.z)
        z += layer.b
        if layer.act == "relu":
            a = np.maximum(z, 0.0, out=layer.a)
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
        np.matmul(np.swapaxes(layer.a_in, -1, -2), dz, out=layer.gw)
        np.add.reduce(dz, axis=-2, keepdims=True, out=layer.gb)
        if i or input_grad:
            # Through a one-unit layer this is an outer product: a broadcast
            # multiply gives the matmul's bits at a fraction of its cost.
            product = np.multiply if dz.shape[-1] == 1 else np.matmul
            dout = product(dz, layer.w_t, out=layer.din)
    return dout if input_grad else None


def _as_inputs(net: Network, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if (x.ndim not in (2, 3) or x.shape[-1] != net.input_dim
            or (x.ndim == 3 and x.shape[0] != net.n_members)):
        raise DomainError(
            f"forward: expected (n, {net.input_dim}) or "
            f"({net.n_members}, n, {net.input_dim}) inputs, got {x.shape}"
        )
    return x


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
    without one), where :func:`gradients` finds it.  Inputs are not scanned
    for finiteness here; :func:`train` and :func:`predict` do that.
    """
    x = _as_inputs(net, x)
    chains = (work or Workspace(net)).pass_for(x.shape).chains
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
    return forward(net, x)


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
    x = _as_inputs(net, x)
    buffers = work.pass_for(x.shape, backward=True)
    out = forward(net, x, work)
    chains = buffers.chains
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
    temporaries of that shape; all are allocated at the first step."""

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
    active: np.ndarray | None = None, work: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One gradient step of every active member, in ``work``'s buffers.

    Returns the per-member losses and a mask of the members whose loss and
    gradient norm were finite.  A member outside that mask is not updated.
    """
    work = work or Workspace(net)
    value, grads = gradients(net, x, targets, work)
    # The max-norm is finite exactly when every entry is, and cannot overflow.
    norm = np.max(np.abs(grads.flat, out=work.scratch), axis=1)
    finite = np.isfinite(value) & np.isfinite(norm)
    if not finite.all():
        grads.flat[~finite] = 0.0
        active = finite if active is None else active & finite
    adam_step(net.flat, grads.flat, state, cfg.learning_rate, active)
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
    member whose loss or gradient turns non-finite stops with a
    :class:`TrainingError` in its history and all-zero parameters; the others
    are not affected.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    val_y = np.asarray(val_y, dtype=np.float64)
    n = train_x.shape[0]
    if n == 0 or val_x.shape[0] == 0:
        raise TrainingError("train: empty training or validation split")
    # Features are shared by every member; a member's own non-finite targets
    # fail it alone, through the per-step loss check.
    _require_finite("train", train_x, val_x)
    per_member_targets = train_y.ndim == (2 if net.kind == "point" else 3)
    rows = np.arange(net.n_members)[:, None]
    rngs = [np.random.default_rng(seed) for seed in net.seeds]
    members = [TrainHistory() for _ in net.seeds]
    work = Workspace(net)
    state = AdamState()
    active = np.ones(net.n_members, dtype=bool)
    best_val = np.full(net.n_members, math.inf)
    best = net.flat.copy()
    bad_epochs = np.zeros(net.n_members, dtype=np.int64)
    order = np.empty((net.n_members, n), dtype=np.int64)
    starts = range(0, n, cfg.batch_size)
    batch_losses = np.empty((net.n_members, len(starts)))
    for epoch in range(1, cfg.max_epochs + 1):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        for m in live:
            order[m] = rngs[m].permutation(n)
        for j, lo in enumerate(starts):
            idx = order[:, lo : lo + cfg.batch_size]
            y = train_y[rows, idx] if per_member_targets else train_y[idx]
            value, finite = backward_and_step(net, train_x[idx], y, state, cfg,
                                              active, work)
            if not finite.all():
                failed = active & ~finite
                for m in np.flatnonzero(failed):
                    members[m].error = TrainingError(
                        f"non-finite loss or gradient in epoch {epoch} "
                        f"(loss={float(value[m])!r}); member stopped"
                    )
                # Zeroed parameters keep a failed member's later passes finite.
                net.flat[failed] = 0.0
                best[failed] = 0.0
                active &= ~failed
            batch_losses[:, j] = value
        train_loss = batch_losses.mean(axis=1)
        val = loss(net, val_x, val_y, work)
        improved = active & (val < best_val - MIN_IMPROVEMENT)
        for m in np.flatnonzero(active):
            members[m].train_loss.append(float(train_loss[m]))
            members[m].val_loss.append(float(val[m]))
            if improved[m]:
                members[m].best_epoch = epoch
        best_val[improved] = val[improved]
        best[improved] = net.flat[improved]
        bad_epochs[improved] = 0
        bad_epochs[active & ~improved] += 1
        active &= bad_epochs < cfg.patience
    net.flat[...] = best
    return StackHistory(members)
