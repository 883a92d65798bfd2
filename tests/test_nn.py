"""Network construction, forward/backward correctness, Adam training."""

import math

import numpy as np
import pytest

from annodist import nn
from annodist.errors import DomainError, TrainingError
from gradcheck import kink_safe_problem, relative_gradient_error


def random_problem(rng, kind, input_dim, n=12):
    x = rng.normal(size=(n, input_dim))
    if kind == "point":
        y = rng.normal(size=n)
    else:
        y = np.column_stack([rng.uniform(0.1, 0.9, n), rng.uniform(0.02, 0.3, n)])
    return x, y


def moment_targets(z):
    """Per-window (mu, sigma) targets that follow the score ``z``."""
    logistic = 1.0 / (1.0 + np.exp(-z))
    return np.stack([logistic, 0.05 + 0.1 * (1.0 - logistic)], axis=-1)


def assert_same_history(got, want):
    assert got.train_loss == want.train_loss
    assert got.val_loss == want.val_loss
    assert got.best_epoch == want.best_epoch
    assert type(got.error) is type(want.error)
    assert str(got.error) == str(want.error)


class TestGeometry:
    def test_hidden_dims_reference(self):
        assert nn.hidden_dims(40) == (30, 20)

    def test_round_half_up(self):
        assert nn.hidden_dims(130) == (98, 65)
        assert nn.hidden_dims(286) == (215, 143)

    @pytest.mark.parametrize("kind", nn.KINDS)
    @pytest.mark.parametrize("dim", [8, 40, 116, 130, 170, 286])
    def test_count_matches_built_parameters(self, kind, dim):
        net = nn.build(nn.NetworkVariant(kind, dim), 0)
        total = sum(v.size for v in net.params.values())
        assert total == nn.count_params(kind, dim)

    def test_fully_shared_reference_count(self):
        # 40*30+30 + 30*20+20 + 20*2+2
        assert nn.count_params("fully_shared", 40) == 1892

    def test_same_seed_identical_init(self):
        a = nn.build(nn.NetworkVariant("shared_first", 12), 5)
        b = nn.build(nn.NetworkVariant("shared_first", 12), 5)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            nn.NetworkVariant("resnet", 8)


class TestForward:
    def test_zero_parameters_give_neutral_outputs(self):
        net = nn.build(nn.NetworkVariant("fully_shared", 6), 0)
        for k in net.params:
            net.params[k] = np.zeros_like(net.params[k])
        out = nn.predict(net, np.random.default_rng(0).normal(size=(4, 6)))
        np.testing.assert_allclose(out[..., 0], 0.5)
        np.testing.assert_allclose(out[..., 1], math.log(2.0))

    def test_zero_input_weights_ignore_features(self):
        net = nn.build(nn.NetworkVariant("fully_shared", 6), 0)
        first = [k for k in net.params if k.startswith("l1.w")]
        net.params[first[0]] = np.zeros_like(net.params[first[0]])
        net.params["l1.b"] = np.full_like(net.params["l1.b"], 0.3)
        rng = np.random.default_rng(1)
        out1 = nn.forward(net, rng.normal(size=(5, 6)))
        out2 = nn.forward(net, rng.normal(size=(5, 6)))
        np.testing.assert_allclose(out1, out2)

    def test_duplicate_rows_identical_predictions(self):
        net = nn.build(nn.NetworkVariant("independent", 7), 2)
        row = np.random.default_rng(3).normal(size=7)
        out = nn.forward(net, np.stack([row, row]))
        np.testing.assert_array_equal(out[0, 0], out[0, 1])

    def test_dim_mismatch(self):
        net = nn.build(nn.NetworkVariant("point", 5), 0)
        with pytest.raises(DomainError):
            nn.forward(net, np.zeros((3, 4)))

    def test_output_ranges(self):
        rng = np.random.default_rng(4)
        for kind in nn.MOMENT_KINDS:
            net = nn.build(nn.NetworkVariant(kind, 9), 11)
            out = nn.predict(net, rng.normal(scale=5.0, size=(50, 9)))
            assert np.all(out[..., 0] > 0.0) and np.all(out[..., 0] < 1.0)
            assert np.all(out[..., 1] > 0.0)


class TestLoss:
    def test_perfect_predictions(self):
        net = nn.build(nn.NetworkVariant("fully_shared", 4), 0)
        x = np.random.default_rng(5).normal(size=(6, 4))
        out = nn.forward(net, x)
        assert nn.loss_value(net, out, out.copy()) == 0.0

    def test_known_error_magnitude(self):
        net = nn.build(nn.NetworkVariant("fully_shared", 4), 0)
        out = np.column_stack([np.full(5, 0.5), np.full(5, 0.2)])
        targets = np.column_stack([np.full(5, 0.4), np.full(5, 0.2)])
        assert nn.loss_value(net, out, targets) == pytest.approx(0.01)

    def test_equal_weighting_of_heads(self):
        net = nn.build(nn.NetworkVariant("fully_shared", 4), 0)
        out = np.column_stack([np.full(5, 0.5), np.full(5, 0.2)])
        mu_err = np.column_stack([out[:, 0] + 0.1, out[:, 1]])
        sigma_err = np.column_stack([out[:, 0], out[:, 1] + 0.1])
        assert nn.loss_value(net, out, mu_err) == pytest.approx(
            nn.loss_value(net, out, sigma_err))


class TestGradients:
    @pytest.mark.parametrize("kind", nn.KINDS)
    def test_finite_difference_agreement(self, kind):
        rng = np.random.default_rng(6)
        for _ in range(5):
            dim = int(rng.integers(3, 9))
            net, x, y = kink_safe_problem(rng, kind, dim)
            assert relative_gradient_error(net, x, y) <= 1e-4

    def test_single_parameter_quadratic(self):
        # With everything zeroed except the scalar head bias b, the loss is
        # mean((b - y)^2) and the analytic gradient is 2*mean(b - y).
        net = nn.build(nn.NetworkVariant("point", 3), 0)
        for k in net.params:
            net.params[k] = np.zeros_like(net.params[k])
        net.params["head.b"] = np.array([0.7])
        x = np.random.default_rng(7).normal(size=(8, 3))
        y = np.random.default_rng(8).normal(size=8)
        _, grads = nn.gradients(net, x, y)
        assert grads["head.b"][0] == pytest.approx(2.0 * np.mean(0.7 - y), abs=1e-12)

    @pytest.mark.parametrize("kind", nn.KINDS)
    def test_ragged_last_batch(self, kind):
        # A workspace keeps one pass per input shape; the gradient of a
        # ragged batch taken after a full one must match a fresh workspace
        # bit for bit, and central differences.
        rng = np.random.default_rng(19)
        net, x, y = kink_safe_problem(rng, kind, 5, n=7, members=2)
        x = np.stack([x, x])  # per-member batches, as train feeds them
        work = nn.Workspace(net)
        full_y = np.concatenate([y, y, y[:, :5]], axis=1)
        nn.gradients(net, rng.normal(size=(2, 19, 5)), full_y, work)
        value, grads = nn.gradients(net, x, y, work)
        fresh_value, fresh = nn.gradients(net, x, y)
        np.testing.assert_array_equal(value, fresh_value)
        np.testing.assert_array_equal(grads.flat, fresh.flat)
        assert relative_gradient_error(net, x, y) <= 1e-4

    @pytest.mark.parametrize("kind", nn.KINDS)
    def test_step_loss_is_loss_value(self, kind):
        rng = np.random.default_rng(21)
        net, x, y = kink_safe_problem(rng, kind, 6, n=9, members=3)
        value, _ = nn.gradients(net, x, y)
        np.testing.assert_array_equal(value, nn.loss(net, x, y))

    def test_zero_loss_leaves_parameters_fixed(self):
        net = nn.build(nn.NetworkVariant("fully_shared", 4), 1)
        x = np.random.default_rng(9).normal(size=(6, 4))
        targets = nn.forward(net, x)
        before = net.flat.copy()
        state = nn.AdamState()
        value, finite = nn.backward_and_step(net, x, targets, state, nn.TrainConfig())
        assert value[0] == 0.0 and finite[0]
        np.testing.assert_allclose(net.flat, before, atol=1e-12)

    def test_inactive_members_are_not_updated(self):
        net = nn.build(nn.NetworkVariant("point", 4), [1, 2])
        before = net.flat.copy()
        grads = np.random.default_rng(17).normal(size=net.flat.shape)
        nn.adam_step(net.flat, grads, nn.AdamState(), 1e-3, np.array([True, False]))
        assert np.all(net.flat[0] != before[0])
        np.testing.assert_array_equal(net.flat[1], before[1])

    def test_non_finite_gradient_aborts(self):
        # The step is refused for that member: it is flagged and not updated.
        net = nn.build(nn.NetworkVariant("point", 3), 0)
        net.params["head.w"][:] = np.inf
        before = net.flat.copy()
        x = np.ones((4, 3))
        with np.errstate(invalid="ignore"):
            _, finite = nn.backward_and_step(net, x, np.ones(4), nn.AdamState(),
                                             nn.TrainConfig())
        assert not finite[0]
        np.testing.assert_array_equal(net.flat, before)


class TestTraining:
    def test_patience_contract_without_improvement(self):
        # lr=0 freezes the network: after the first epoch no strict
        # improvement is possible, so training stops at epoch 1 + patience.
        rng = np.random.default_rng(10)
        net = nn.build(nn.NetworkVariant("fully_shared", 5), 0)
        x, y = random_problem(rng, "fully_shared", 5, n=64)
        cfg = nn.TrainConfig(learning_rate=1e-30, patience=5, max_epochs=50)
        history = nn.train(net, x, y, x, y, cfg).members[0]
        assert history.n_epochs == 6
        assert history.best_epoch == 1

    def test_huge_epoch_budget_is_not_preallocated(self):
        # Early stopping ends a run with a vast epoch budget; nothing may be
        # sized by the budget rather than by the epochs run.
        rng = np.random.default_rng(10)
        net = nn.build(nn.NetworkVariant("point", 5), [0, 1])
        x, y = random_problem(rng, "point", 5, n=64)
        cfg = nn.TrainConfig(learning_rate=1e-30, patience=2, max_epochs=10**15)
        history = nn.train(net, x, y, x, y, cfg)
        assert [h.n_epochs for h in history.members] == [3, 3]

    def test_loss_decreases_across_seeds(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(256, 6))
        w = rng.normal(size=6)
        y = x @ w * 0.05 + 0.5
        net = nn.build(nn.NetworkVariant("point", 6), range(10))
        history = nn.train(net, x, y, x, y,
                           nn.TrainConfig(max_epochs=10, patience=10))
        first = [h.train_loss[0] for h in history.members]
        later = [h.train_loss[-1] for h in history.members]
        assert np.mean(later) < np.mean(first)

    def test_deterministic_history(self):
        rng = np.random.default_rng(12)
        x, y = random_problem(rng, "shared_first", 6, n=128)
        runs = []
        for _ in range(2):
            net = nn.build(nn.NetworkVariant("shared_first", 6), 9)
            history = nn.train(net, x, y, x, y,
                               nn.TrainConfig(max_epochs=8, patience=8)).members[0]
            runs.append((history.train_loss, history.val_loss, net.flat.copy()))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]
        np.testing.assert_array_equal(runs[0][2], runs[1][2])

    def test_no_state_leaks_between_train_calls(self):
        # 50 rows in batches of 16 end in a ragged batch of 2.
        rng = np.random.default_rng(20)
        x = rng.normal(size=(50, 6))
        moments = random_problem(rng, "shared_first", 6, n=50)[1]
        targets = rng.normal(size=(3, 50))
        cfg = nn.TrainConfig(max_epochs=6, patience=6, batch_size=16)

        def trained(net, y, val_y):
            history = nn.train(net, x, y, x[:20], val_y, cfg)
            return net.flat.copy(), [(h.train_loss, h.val_loss, h.best_epoch)
                                     for h in history.members]

        def point_stack():
            net = nn.build(nn.NetworkVariant("point", 6), [3, 4, 5])
            return trained(net, targets, targets[:, :20])

        point_first = point_stack()
        net = nn.build(nn.NetworkVariant("shared_first", 6), [1, 2])
        init = net.flat.copy()
        once = trained(net, moments, moments[:20])
        net.flat[...] = init
        twice = trained(net, moments, moments[:20])
        point_after = point_stack()
        for a, b in ((once, twice), (point_first, point_after)):
            np.testing.assert_array_equal(a[0], b[0])
            assert a[1] == b[1]

    def test_empty_split_rejected(self):
        net = nn.build(nn.NetworkVariant("point", 4), 0)
        with pytest.raises(TrainingError):
            nn.train(net, np.empty((0, 4)), np.empty(0), np.ones((2, 4)),
                     np.ones(2), nn.TrainConfig())

    def test_best_epoch_parameters_restored(self):
        rng = np.random.default_rng(13)
        x, y = random_problem(rng, "point", 5, n=64)
        net = nn.build(nn.NetworkVariant("point", 5), 3)
        history = nn.train(net, x, y, x, y,
                           nn.TrainConfig(max_epochs=15, patience=15)).members[0]
        best_val = min(history.val_loss)
        assert nn.loss(net, x, y)[0] == pytest.approx(best_val, rel=1e-9)

    def test_stack_members_match_single_networks(self):
        # Distinct seeds and targets, and patience short enough that members
        # stop at different epochs: each member must train exactly as alone.
        rng = np.random.default_rng(16)
        x = rng.normal(size=(300, 5))
        y = np.stack([x @ rng.normal(size=5) * s for s in (0.05, 0.5, 2.0)])
        cfg = nn.TrainConfig(learning_rate=1e-2, max_epochs=40, patience=2)
        seeds = [4, 5, 6]
        stack = nn.build(nn.NetworkVariant("point", 5), seeds)
        history = nn.train(stack, x[:200], y[:, :200], x[200:], y[:, 200:], cfg)
        assert len({h.n_epochs for h in history.members}) > 1
        for m, seed in enumerate(seeds):
            alone = nn.build(nn.NetworkVariant("point", 5), seed)
            solo = nn.train(alone, x[:200], y[m, :200], x[200:], y[m, 200:],
                            cfg).members[0]
            assert history.members[m].train_loss == solo.train_loss
            assert history.members[m].val_loss == solo.val_loss
            assert history.members[m].best_epoch == solo.best_epoch
            np.testing.assert_array_equal(stack.flat[m], alone.flat[0])

    @pytest.mark.parametrize("kind", nn.MOMENT_KINDS)
    def test_moment_stack_members_match_single_networks(self, kind):
        # The moment kinds' version of the test above: per-member targets,
        # the noisier ones stopping sooner.
        rng = np.random.default_rng(16)
        x = rng.normal(size=(300, 5))
        y = np.stack([moment_targets(x @ rng.normal(size=5) + noise * rng.normal(size=300))
                      for noise in (0.0, 1.0, 3.0)])
        cfg = nn.TrainConfig(learning_rate=3e-2, max_epochs=40, patience=2)
        seeds = [4, 5, 6]
        stack = nn.build(nn.NetworkVariant(kind, 5), seeds)
        history = nn.train(stack, x[:200], y[:, :200], x[200:], y[:, 200:], cfg)
        assert len({h.n_epochs for h in history.members}) > 1
        for m, seed in enumerate(seeds):
            alone = nn.build(nn.NetworkVariant(kind, 5), seed)
            solo = nn.train(alone, x[:200], y[m, :200], x[200:], y[m, 200:],
                            cfg).members[0]
            assert_same_history(history.members[m], solo)
            np.testing.assert_array_equal(stack.flat[m], alone.flat[0])

    def test_failure_after_a_stop_matches_runs_alone(self, monkeypatch):
        # Member 4 stops at epoch 5; member 5 is poisoned at the start of
        # epoch 8, in a stack that has already shrunk, and member 6 trains on.
        rng = np.random.default_rng(16)
        x = rng.normal(size=(300, 5))
        y = np.stack([x @ rng.normal(size=5) * s for s in (0.05, 0.5, 2.0)])
        cfg = nn.TrainConfig(learning_rate=1e-2, max_epochs=40, patience=2)
        seeds, poisoned, fail_epoch = [4, 5, 6], 5, 8
        calls_per_epoch = 2  # 200 rows in batches of 128
        real_step = nn.backward_and_step
        calls = []

        def poisoning_step(net, *args, **kwargs):
            if (len(calls) == (fail_epoch - 1) * calls_per_epoch
                    and poisoned in net.seeds):
                net.params["head.w"][net.seeds.index(poisoned)] = 1e300
            calls.append(net.n_members)
            return real_step(net, *args, **kwargs)

        monkeypatch.setattr(nn, "backward_and_step", poisoning_step)
        stack = nn.build(nn.NetworkVariant("point", 5), seeds)
        history = nn.train(stack, x[:200], y[:, :200], x[200:], y[:, 200:], cfg)
        stopped, failed, healthy = history.members
        assert stopped.error is None and stopped.n_epochs < fail_epoch
        assert isinstance(failed.error, TrainingError)
        assert failed.n_epochs == fail_epoch - 1
        assert healthy.error is None and healthy.n_epochs > fail_epoch
        for m, seed in enumerate(seeds):
            calls.clear()
            alone = nn.build(nn.NetworkVariant("point", 5), seed)
            solo = nn.train(alone, x[:200], y[m, :200], x[200:], y[m, 200:],
                            cfg).members[0]
            assert_same_history(history.members[m], solo)
            np.testing.assert_array_equal(stack.flat[m], alone.flat[0])

    @pytest.mark.parametrize("kind", ["point", "shared_first"])
    def test_stack_holds_only_live_members(self, kind, monkeypatch):
        # Every step's stack, and its batch, has one row per member that has
        # neither stopped in an earlier epoch nor failed in an earlier step.
        rng = np.random.default_rng(16)
        x = rng.normal(size=(300, 5))
        if kind == "point":
            y = np.stack([x @ rng.normal(size=5) * s for s in (0.05, 0.5, 2.0, 1.0)])
            lr = 1e-2
        else:
            y = np.stack([moment_targets(x @ rng.normal(size=5) + noise * rng.normal(size=300))
                          for noise in (0.0, 1.0, 3.0, 2.0)])
            lr = 3e-2
        seeds, batch, steps = [4, 5, 6, 7], 128, 2  # 200 rows in batches of 128
        y[3, 150] = np.nan  # member 3 fails in the epoch-1 step that draws row 150
        position = np.flatnonzero(np.random.default_rng(seeds[3]).permutation(200) == 150)
        fail_step = int(position[0]) // batch
        real_step = nn.backward_and_step
        sizes = []

        def spy(net, x, *args, **kwargs):
            sizes.append((net.n_members, x.shape[0]))
            return real_step(net, x, *args, **kwargs)

        monkeypatch.setattr(nn, "backward_and_step", spy)
        cfg = nn.TrainConfig(learning_rate=lr, batch_size=batch, max_epochs=40,
                             patience=2)
        stack = nn.build(nn.NetworkVariant(kind, 5), seeds)
        members = nn.train(stack, x[:200], y[:, :200], x[200:], y[:, 200:],
                           cfg).members
        assert isinstance(members[3].error, TrainingError)
        assert "epoch 1 " in str(members[3].error)
        assert members[3].n_epochs == 0  # no losses for the epoch it failed in
        assert np.all(stack.flat[3] == 0.0)
        stopped = [h.n_epochs for h in members[:3]]
        assert all(h.error is None for h in members[:3])
        assert len(set(stopped)) > 1
        live = [sum(epoch <= k for k in stopped) + ((epoch, step) <= (1, fail_step))
                for epoch in range(1, max(stopped) + 1) for step in range(steps)]
        assert sizes == [(k, k) for k in live]

    def test_non_finite_target_fails_only_its_member(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(40, 4))
        y = np.stack([rng.normal(size=40), rng.normal(size=40)])
        y[0, 5] = np.nan
        net = nn.build(nn.NetworkVariant("point", 4), [1, 1])
        history = nn.train(net, x, y, x, y, nn.TrainConfig(max_epochs=3))
        assert isinstance(history.members[0].error, TrainingError)
        assert history.members[1].error is None
        assert history.members[1].n_epochs == 3

    def test_poisoned_member_fails_alone(self):
        rng = np.random.default_rng(15)
        x, y = random_problem(rng, "fully_shared", 5, n=200)
        cfg = nn.TrainConfig(max_epochs=12, patience=3, batch_size=64)
        alone = nn.build(nn.NetworkVariant("fully_shared", 5), 3)
        solo = nn.train(alone, x, y, x, y, cfg).members[0]
        pair = nn.build(nn.NetworkVariant("fully_shared", 5), [7, 3])
        pair.params["head.w"][0] = 1e300
        # The caller's error state must not turn one member's overflow into
        # an exception that stops the whole stack.
        with np.errstate(all="raise"):
            history = nn.train(pair, x, y, x, y, cfg)
        assert isinstance(history.members[0].error, TrainingError)
        assert np.all(pair.flat[0] == 0.0)
        healthy = history.members[1]
        assert healthy.error is None and solo.error is None
        assert healthy.train_loss == solo.train_loss
        assert healthy.val_loss == solo.val_loss
        assert healthy.best_epoch == solo.best_epoch
        assert np.all(pair.flat[1] == alone.flat[0])

