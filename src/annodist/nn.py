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
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, TrainingError

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
        if (
            self.learning_rate <= 0
            or self.batch_size < 1
            or self.max_epochs < 1
            or self.patience < 1
        ):
            raise DomainError("TrainConfig: all fields must be positive")


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


def _chain_forward(params, layers, x, cache=None):
    a = x
    for name, _, _, act in layers:
        z = a @ params[f"{name}.w"] + params[f"{name}.b"]
        a_next = _activate(act, z)
        if cache is not None:
            cache.append((name, act, a, z, a_next))
        a = a_next
    return a


def _chain_backward(params, cache, dout, grads, input_grad=True):
    # Walks the cached layer records in reverse; returns dL/d(chain input),
    # or None when ``input_grad`` is off (the chain reads the features).
    for i in range(len(cache) - 1, -1, -1):
        name, act, a_in, z, a_out = cache[i]
        dz = _pre_activation_grad(act, dout, z, a_out)
        grads[f"{name}.w"] = np.swapaxes(a_in, -1, -2) @ dz
        grads[f"{name}.b"] = dz.sum(axis=-2, keepdims=True)
        if i or input_grad:
            w_t = np.swapaxes(params[f"{name}.w"], -1, -2)
            # Through a one-unit layer this is an outer product: a broadcast
            # multiply gives the matmul's bits at a fraction of its cost.
            dout = dz * w_t if dz.shape[-1] == 1 else dz @ w_t
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


def forward(net: Network, x, caches: dict | None = None) -> np.ndarray:
    """Batch forward pass of every member.

    ``x`` is ``(n, d)``, shared by all members, or ``(M, n, d)``, one batch
    per member.  Moment variants return an ``(M, n, 2)`` array of (mu_hat,
    sigma_hat); point variants an ``(M, n)`` array.  ``caches`` collects
    per-chain activation records for the backward pass.  Inputs are not
    scanned for finiteness here; :func:`train` and :func:`predict` do that.
    """
    x = _as_inputs(net, x)
    chains = _chains(net.variant)
    record = (lambda key: caches.setdefault(key, [])) if caches is not None else (
        lambda key: None
    )
    if net.kind in ("point", "fully_shared"):
        out = _chain_forward(net.params, chains["trunk"], x, record("trunk"))
        return out[..., 0] if net.kind == "point" else out
    if net.kind == "shared_first":
        h = _chain_forward(net.params, chains["shared"], x, record("shared"))
    else:
        h = x
    mu = _chain_forward(net.params, chains["mu"], h, record("mu"))
    sigma = _chain_forward(net.params, chains["sigma"], h, record("sigma"))
    return np.concatenate([mu, sigma], axis=-1)


def predict(net: Network, x) -> np.ndarray:
    """:func:`forward` on inputs that are first checked to be finite."""
    x = _as_inputs(net, x)
    _require_finite("predict", x)
    return forward(net, x)


def predict_moments(net: Network, x) -> tuple[np.ndarray, np.ndarray]:
    """(mu_hat, sigma_hat), each ``(M, n)``; only for the moment kinds."""
    if net.kind not in MOMENT_KINDS:
        raise DomainError(f"predict_moments: not a moment variant: {net.kind!r}")
    out = predict(net, x)
    return out[..., 0], out[..., 1]


def loss_value(net: Network, out: np.ndarray, targets) -> np.ndarray:
    """Per-member loss, shape ``(M,)``: joint MSE over (mu, sigma) for moment
    nets, plain MSE for point nets.

    ``targets`` is shared by all members (``(n,)`` / ``(n, 2)``) or given per
    member (``(M, n)`` / ``(M, n, 2)``).
    """
    targets = np.asarray(targets, dtype=np.float64)
    if net.kind == "point":
        return np.mean((out - targets) ** 2, axis=-1)
    return (
        np.mean((out[..., 0] - targets[..., 0]) ** 2, axis=-1)
        + np.mean((out[..., 1] - targets[..., 1]) ** 2, axis=-1)
    )


def loss(net: Network, x, targets) -> np.ndarray:
    return loss_value(net, forward(net, x), targets)


def gradients(net: Network, x, targets) -> tuple[np.ndarray, FlatParams]:
    """Per-member losses and the analytic gradient of each member's loss
    with respect to its own parameters, laid out like ``net.params``."""
    targets = np.asarray(targets, dtype=np.float64)
    caches: dict = {}
    out = forward(net, x, caches)
    n = out.shape[1]
    grads = FlatParams(net.variant, np.zeros_like(net.flat))
    value = loss_value(net, out, targets)
    if net.kind == "point":
        dout = (2.0 / n) * (out - targets)[..., None]
        _chain_backward(net.params, caches["trunk"], dout, grads, input_grad=False)
    elif net.kind == "fully_shared":
        dout = (2.0 / n) * (out - targets)
        _chain_backward(net.params, caches["trunk"], dout, grads, input_grad=False)
    else:
        d_mu = (2.0 / n) * (out[..., 0] - targets[..., 0])[..., None]
        d_sigma = (2.0 / n) * (out[..., 1] - targets[..., 1])[..., None]
        shared = net.kind == "shared_first"
        dh = _chain_backward(net.params, caches["mu"], d_mu, grads, input_grad=shared)
        dh_sigma = _chain_backward(net.params, caches["sigma"], d_sigma, grads,
                                   input_grad=shared)
        if shared:
            _chain_backward(net.params, caches["shared"], dh + dh_sigma, grads,
                            input_grad=False)
    return value, grads


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
    for i in range(flat.shape[1]):
        orig = flat[:, i].copy()
        flat[:, i] = orig + h
        up = loss(net, x, targets)
        flat[:, i] = orig - h
        down = loss(net, x, targets)
        flat[:, i] = orig
        grads[:, i] = (up - down) / (2.0 * h)
    return FlatParams(net.variant, grads)


@dataclass
class AdamState:
    """First and second moments over the whole ``(M, P)`` buffer."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step: int = 0


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
        state.m = np.zeros_like(flat)
        state.v = np.zeros_like(flat)
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    update = lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    if active is not None and not active.all():
        update *= active[:, None]
    flat -= update


def backward_and_step(
    net: Network, x, targets, state: AdamState, cfg: TrainConfig,
    active: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One gradient step of every active member.

    Returns the per-member losses and a mask of the members whose loss and
    gradient norm were finite.  A member outside that mask is not updated.
    """
    value, grads = gradients(net, x, targets)
    # The max-norm is finite exactly when every entry is, and cannot overflow.
    finite = np.isfinite(value) & np.isfinite(np.max(np.abs(grads.flat), axis=1))
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
    state = AdamState()
    active = np.ones(net.n_members, dtype=bool)
    best_val = np.full(net.n_members, math.inf)
    best = net.flat.copy()
    bad_epochs = np.zeros(net.n_members, dtype=np.int64)
    order = np.empty((net.n_members, n), dtype=np.int64)
    for epoch in range(1, cfg.max_epochs + 1):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        for m in live:
            order[m] = rngs[m].permutation(n)
        batch_losses = []
        for lo in range(0, n, cfg.batch_size):
            idx = order[:, lo : lo + cfg.batch_size]
            y = train_y[rows, idx] if per_member_targets else train_y[idx]
            value, finite = backward_and_step(net, train_x[idx], y, state, cfg, active)
            failed = active & ~finite
            if failed.any():
                for m in np.flatnonzero(failed):
                    members[m].error = TrainingError(
                        f"non-finite loss or gradient in epoch {epoch} "
                        f"(loss={float(value[m])!r}); member stopped"
                    )
                # Zeroed parameters keep a failed member's later passes finite.
                net.flat[failed] = 0.0
                best[failed] = 0.0
                active &= ~failed
            batch_losses.append(value)
        train_loss = np.stack(batch_losses, axis=1).mean(axis=1)
        val = loss(net, val_x, val_y)
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


def save_checkpoint(net: Network, path, manifest: dict | None = None) -> None:
    """Write parameters (npz) plus a JSON manifest alongside."""
    path = Path(path)
    np.savez(path.with_suffix(".npz"), **net.params)
    meta = {
        "kind": net.kind,
        "input_dim": net.input_dim,
        "seeds": list(net.seeds),
        "param_count": count_params(net.kind, net.input_dim),
    }
    meta.update(manifest or {})
    with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def load_checkpoint(path) -> tuple[Network, dict]:
    path = Path(path)
    with open(path.with_suffix(".json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    net = _zeros(NetworkVariant(meta["kind"], int(meta["input_dim"])), meta["seeds"])
    with np.load(path.with_suffix(".npz")) as data:
        for name in net.params:
            net.params[name] = data[name]
    return net, meta
