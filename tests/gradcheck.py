"""Shared gradient-check helpers for the unit and acceptance suites."""

import numpy as np

from annodist import nn


def min_relu_margin(net, x) -> float:
    """Smallest |pre-activation| over all ReLU units for this batch.

    Central differences are invalid when a perturbation crosses the ReLU
    kink; callers should redraw inputs until the margin clears the step.
    """
    work = nn.Workspace(net)
    nn.forward(net, x, work)
    margin = np.inf
    for layer in work.pass_for(np.shape(x)).layers:
        if layer.act == "relu":
            margin = min(margin, float(np.min(np.abs(layer.z))))
    return margin


def kink_safe_problem(rng, kind, input_dim, n=12, h=1e-5, margin_factor=50.0,
                      members=1):
    """Draw (net, x, targets) whose ReLU margins clear the difference step.

    With ``members`` > 1 the net is a stack of that many members with their
    own seeds and their own targets, ``(members, n)`` or ``(members, n, 2)``.
    """
    for attempt in range(200):
        net = nn.build(nn.NetworkVariant(kind, input_dim),
                       [int(rng.integers(0, 2**31)) for _ in range(members)])
        # Zero-initialised biases can park pre-activations exactly on the
        # ReLU kink (dead previous layer); check a generic parameter point.
        for name, value in net.params.items():
            if name.endswith(".b"):
                net.params[name] = value + rng.uniform(-0.3, 0.3, value.shape)
        x = rng.normal(size=(n, input_dim))
        lead = (members,) if members > 1 else ()
        if kind == "point":
            y = rng.normal(size=lead + (n,))
        else:
            y = np.stack(
                [rng.uniform(0.1, 0.9, lead + (n,)), rng.uniform(0.02, 0.3, lead + (n,))],
                axis=-1,
            )
        if min_relu_margin(net, x) > margin_factor * h:
            return net, x, y
    raise AssertionError("could not find a kink-safe gradient-check instance")


def finite_difference_gradients(net, x, targets, h=1e-5) -> nn.FlatParams:
    """Central-difference gradients; the oracle for gradient validation.

    One parameter index is perturbed in every member at once, and each
    member's own loss gives its entry, so a member whose loss read another
    member's parameters would not match the analytic gradients.
    """
    flat = net.flat
    grads = np.zeros_like(flat)
    work = nn.Workspace(net)
    for i in range(flat.shape[1]):
        orig = flat[:, i].copy()
        flat[:, i] = orig + h
        up = nn.loss(net, x, targets, work)
        flat[:, i] = orig - h
        down = nn.loss(net, x, targets, work)
        flat[:, i] = orig
        grads[:, i] = (up - down) / (2.0 * h)
    return nn.FlatParams(net.variant, grads)


def relative_gradient_error(net, x, targets, h=1e-5) -> float:
    _, analytic = nn.gradients(net, x, targets)
    numeric = finite_difference_gradients(net, x, targets, h=h)
    worst = 0.0
    for name in analytic:
        a = analytic[name].ravel()
        num = numeric[name].ravel()
        denom = np.maximum(np.maximum(np.abs(a), np.abs(num)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - num) / denom)))
    return worst
