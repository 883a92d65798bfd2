"""Every function the benchmark's ``--trace 1`` wraps still exists by name,
and a grid reaches the ones its per-layer metrics are made of."""

import importlib
from pathlib import Path

from annodist import experiments
from annodist.config import TrainConfig
from annodist.pipeline import WindowConfig, build_dataset
from annodist.synthetic import SyntheticConfig, generate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module(name)


def test_every_trace_target_resolves(monkeypatch):
    run = _perfbench(monkeypatch, "run")
    targets = run.trace_targets()
    assert targets
    for name, owner, attr, _ in targets:
        assert owner.__dict__[attr] is not None, name


def test_grid_calls_the_traced_functions(monkeypatch):
    # A function the program stops calling through its module attribute
    # would leave its metric reading 0 without any error.
    run = _perfbench(monkeypatch, "run")
    tracer = _perfbench(monkeypatch, "tracer")
    synth = SyntheticConfig(n_subjects=6, duration=24.0, frame_rate=10.0,
                            n_annotators=4, feature_dim=8, latent_dim=2, seed=5)
    table, _ = build_dataset(*generate(synth, WindowConfig())[:2], WindowConfig())
    cfg = experiments.ExperimentConfig(
        k_folds=3, n_seeds=2, master_seed=1, variants=("fully_shared",),
        baselines=("median",),
    )
    targets = run.trace_targets()
    spans = tracer.Tracer()
    with tracer.patched(spans, targets):
        experiments.run_grid(table, cfg, TrainConfig(max_epochs=3))
    wanted = [name for name, *_ in targets if name.startswith("nn.")] + [
        "metrics.kl_beta_arrays", "metrics.ccc", "special.inv_reg_inc_beta",
        "consensus.descriptors_arrays",
    ]
    for name in wanted:
        assert spans.counts[f"{name}.calls"] >= 1, name
