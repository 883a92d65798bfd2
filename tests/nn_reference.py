"""A member-by-member, chain-by-chain reference for annodist's networks.

It runs one member at a time, walks each variant's chains of layers as the
module docstring of ``annodist.nn`` names them (a mu and a sigma chain are
two chains here), and builds every activation afresh, with no workspace and
no stack.  Each operation is the one ``annodist.nn`` applies to that
element, in the same order, so :func:`forward`, :func:`gradients` and
:func:`train` give the stacked code's bits exactly.  Parameters are read
and written through the network's named ``[W; b]`` views.
"""

import math

import numpy as np

from annodist.errors import TrainingError
from annodist.nn import TrainHistory

# kind -> chains (name, source chain, layers); a layer is (parameter name,
# None for ReLU or one head activation per output column).
CHAINS = {
    "point": [("trunk", None, [("l1", None), ("l2", None), ("head", ("identity",))])],
    "fully_shared": [("trunk", None, [("l1", None), ("l2", None),
                                      ("head", ("sigmoid", "softplus"))])],
    "shared_first": [
        ("shared", None, [("shared", None)]),
        ("mu", "shared", [("mu_l2", None), ("mu_head", ("sigmoid",))]),
        ("sigma", "shared", [("sigma_l2", None), ("sigma_head", ("softplus",))]),
    ],
    "independent": [
        ("mu", None, [("mu_l1", None), ("mu_l2", None), ("mu_head", ("sigmoid",))]),
        ("sigma", None, [("sigma_l1", None), ("sigma_l2", None),
                         ("sigma_head", ("softplus",))]),
    ],
}


def sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def softplus(z):
    return np.where(z > 30.0, z, np.log1p(np.exp(np.minimum(z, 30.0))))


# name -> (activation, derivative from z and the activation)
HEADS = {
    "identity": (lambda z: z, lambda z, a: np.ones_like(z)),
    "sigmoid": (sigmoid, lambda z, a: a * (1.0 - a)),
    "softplus": (softplus, lambda z, a: sigmoid(z)),
}


def with_ones(a):
    return np.hstack([a, np.ones((a.shape[0], 1))])


def member_forward(net, m, x):
    """Member ``m``'s ``(n, width)`` output on ``(n, d)`` inputs, and every
    layer's (input with ones column, pre-activation, activation)."""
    outputs, tape, heads = {None: with_ones(np.asarray(x, dtype=np.float64))}, {}, []
    for chain, source, layers in CHAINS[net.kind]:
        a, tape[chain] = outputs[source], []
        for name, acts in layers:
            z = a @ net.params.layers[name][m]
            if acts is None:
                out = np.maximum(z, 0.0)
                tape[chain].append((a, z, out))
                a = with_ones(out)
            else:
                out = np.column_stack([HEADS[act][0](z[:, j]) for j, act in enumerate(acts)])
                tape[chain].append((a, z, out))
                heads.append(out)
        outputs[chain] = a
    return np.hstack(heads), tape


def forward(net, x):
    """Every member's output: ``(M, n, 2)`` moments or ``(M, n)`` points."""
    x = np.asarray(x, dtype=np.float64)
    out = np.stack([member_forward(net, m, x if x.ndim == 2 else x[m])[0]
                    for m in range(net.n_members)])
    return out[..., 0] if net.kind == "point" else out


def member_loss(residual):
    n = residual.shape[0]
    total = np.add.reduce(np.square(residual[:, 0])) / n
    for j in range(1, residual.shape[1]):
        total += np.add.reduce(np.square(residual[:, j])) / n
    return total


def member_gradients(net, m, x, targets):
    """Member ``m``'s loss and ``{layer name: (fan_in + 1, fan_out) [gW; gb]}``."""
    out, tape = member_forward(net, m, x)
    residual = out - np.asarray(targets, dtype=np.float64).reshape(out.shape)
    dout = residual * (2.0 / out.shape[0])
    grads, dchain, end = {}, {}, out.shape[1]
    for chain, source, layers in reversed(CHAINS[net.kind]):
        if layers[-1][1] is None:
            d = dchain[chain]
        else:
            end -= len(layers[-1][1])
            d = dout[:, end : end + len(layers[-1][1])]
        for i in range(len(layers) - 1, -1, -1):
            name, acts = layers[i]
            a_in, z, a = tape[chain][i]
            if acts is None:
                dz = d * (z > 0.0)
            else:
                dz = np.column_stack([HEADS[act][1](z[:, j], a[:, j])
                                      for j, act in enumerate(acts)]) * d
            grads[name] = a_in.T @ dz
            w = net.params.layers[name][m][:-1]
            if i or source is not None:
                # Through one unit the product is an outer one, a multiply.
                d = dz * w.T if dz.shape[1] == 1 else dz @ w.T
        if source is not None:
            dchain[source] = d if source not in dchain else dchain[source] + d
    return member_loss(residual), grads


def gradients(net, x, targets):
    """Per-member losses ``(M,)`` and ``{layer name: (M, fan_in + 1, fan_out)}``."""
    x, targets = np.asarray(x, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    shared = targets.ndim == (1 if net.kind == "point" else 2)
    per_member = [member_gradients(net, m, x if x.ndim == 2 else x[m],
                                   targets if shared else targets[m])
                  for m in range(net.n_members)]
    return (np.array([value for value, _ in per_member]),
            {name: np.stack([g[name] for _, g in per_member]) for name in per_member[0][1]})


def train(net, train_x, train_y, val_x, val_y, cfg):
    """Each member trained alone, as :func:`annodist.nn.train` trains it in a
    stack; returns the members' :class:`~annodist.nn.TrainHistory` and
    leaves their best parameters in ``net``."""
    train_x, val_x = np.asarray(train_x, float), np.asarray(val_x, float)
    train_y, val_y = np.asarray(train_y, float), np.asarray(val_y, float)
    shared = train_y.ndim == (1 if net.kind == "point" else 2)
    # A member's row of net.flat holds its layers in the order CHAINS lists them.
    names = [name for _, _, layers in CHAINS[net.kind] for name, _ in layers]
    n, histories = train_x.shape[0], []
    for m, seed in enumerate(net.seeds):
        ty, vy = (train_y, val_y) if shared else (train_y[m], val_y[m])
        rng, row, history = np.random.default_rng(seed), net.flat[m], TrainHistory()
        best, best_val, step = row.copy(), math.inf, 0
        adam_m, adam_v = np.zeros_like(row), np.zeros_like(row)
        for epoch in range(1, cfg.max_epochs + 1):
            order, losses = rng.permutation(n), []
            for lo in range(0, n, cfg.batch_size):
                idx = order[lo : lo + cfg.batch_size]
                value, grads = member_gradients(net, m, train_x[idx], ty[idx])
                g = np.concatenate([grads[name].ravel() for name in names])
                if not (np.isfinite(value) and np.isfinite(np.max(np.abs(g)))):
                    history.error = TrainingError(
                        f"non-finite loss or gradient in epoch {epoch} "
                        f"(loss={float(value)!r}); member stopped")
                    break
                # Adam, each operation in annodist.nn.adam_step's order.
                step += 1
                adam_m *= 0.9
                adam_m += g * (1.0 - 0.9)
                adam_v *= 0.999
                adam_v += (g * (1.0 - 0.999)) * g
                denom = np.sqrt(adam_v / (1.0 - 0.999**step)) + 1e-8
                row -= adam_m / (1.0 - 0.9**step) * cfg.learning_rate / denom
                losses.append(value)
            if history.error is not None:
                best[:] = 0.0
                break
            history.train_loss.append(float(np.add.reduce(np.array(losses)) / len(losses)))
            out, _ = member_forward(net, m, val_x)
            history.val_loss.append(float(member_loss(out - vy.reshape(out.shape))))
            if history.val_loss[-1] < best_val - 1e-6:
                best_val, history.best_epoch, best[:] = history.val_loss[-1], epoch, row
            if epoch - history.best_epoch >= cfg.patience:
                break
        row[:] = best
        histories.append(history)
    return histories
