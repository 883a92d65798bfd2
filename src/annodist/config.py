"""Every parameter the commands take, checked, and the JSON files they live in.

The config dataclasses (:class:`SyntheticConfig`, :class:`WindowConfig`,
:class:`TrainConfig`, :class:`ExperimentConfig`) hold each parameter's
default, and their ``__post_init__`` its range check; the constants here are
the values those checks accept.  Each key has one owning field, and
``experiments.run_grid`` takes a :class:`TrainConfig`, ``jobs`` and the
dataset's ``epsilon`` as arguments.  :func:`read_json` and :func:`write_json`
read and write every JSON file (config, manifest, run summary).

This module needs only the standard library, so the CLI can resolve and
check a command's parameters, and ``report`` can read a run summary, without
loading NumPy or the numeric modules.  Those modules import these names from
here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DISTINCT,
    POSITIVE,
    DataError,
    DomainError,
    SchemaError,
    at_least,
    check_fields,
    subset_of,
)

KINDS = ("independent", "shared_first", "fully_shared", "point")
MOMENT_KINDS = ("independent", "shared_first", "fully_shared")

DEFAULT_EPSILON = 1e-4
# Near 2e-16 and below, 1 - epsilon rounds to 1 or the rounding of sigma^2 at
# the cap outweighs epsilon, and clamped moments leave the validity region.
EPSILON_RANGE = (lambda e: 1e-12 <= e < 0.5, "in [1e-12, 0.5)")

#: Report order for the derived higher-order descriptors.
DESCRIPTOR_NAMES = ("median", "q25", "q75", "skew", "kurt")

ORACLE_MODEL = "oracle"
# Fold i tests and fold i+1 validates, so k >= 3 leaves a fold to train.
MIN_FOLDS = 3


@dataclass(frozen=True)
class SyntheticConfig:
    """Generator parameters; the seed fully determines the output."""

    n_subjects: int = 20
    duration: float = 150.0
    frame_rate: float = 25.0
    n_annotators: int = 6
    feature_dim: int = 24
    latent_dim: int = 4
    noise_std: float = 0.02
    seed: int = 0
    annotation_rate: float = 5.0

    def __post_init__(self):
        check_fields(
            self, n_subjects=at_least(1), n_annotators=at_least(2),
            duration=POSITIVE, frame_rate=POSITIVE, annotation_rate=POSITIVE,
            feature_dim=at_least(1), latent_dim=at_least(0),
            noise_std=at_least(0), seed=at_least(0),
        )
        if not self.duration * min(self.frame_rate, self.annotation_rate) > 0.5:
            raise DomainError(
                f"SyntheticConfig: duration {self.duration!r} is too short for "
                "one frame and one annotation mark"
            )


@dataclass(frozen=True)
class WindowConfig:
    """3 s windows shifted by 400 ms by default, and the Beta clamp margin."""

    window_len: float = 3.0
    stride: float = 0.4
    label_range: tuple[float, float] = (0.0, 1.0)
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self):
        check_fields(
            self, window_len=POSITIVE,
            stride=(lambda v: 0.0 < v <= self.window_len,
                    f"in (0, window_len={self.window_len!r}]"),
            label_range=(lambda r: len(r) == 2 and r[1] > r[0], "(lo, hi) with hi > lo"),
            epsilon=EPSILON_RANGE,
        )


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 128
    max_epochs: int = 50
    patience: int = 5

    def __post_init__(self):
        check_fields(self, learning_rate=POSITIVE, batch_size=POSITIVE,
                     max_epochs=POSITIVE, patience=POSITIVE)


@dataclass(frozen=True)
class ExperimentConfig:
    k_folds: int = 5
    n_seeds: int = 10
    master_seed: int = 0
    variants: tuple[str, ...] = MOMENT_KINDS
    baselines: tuple[str, ...] = DESCRIPTOR_NAMES
    include_oracle: bool = False

    def __post_init__(self):
        check_fields(
            self, k_folds=at_least(MIN_FOLDS), n_seeds=at_least(1), master_seed=at_least(0),
            variants=subset_of(MOMENT_KINDS), baselines=subset_of(DESCRIPTOR_NAMES),
        )
        check_fields(self, variants=DISTINCT, baselines=DISTINCT)
        if not (self.variants or self.baselines):
            raise DomainError("ExperimentConfig: variants and baselines are both "
                              "empty, so the grid has no model to train")


def _decode_utf8(path, raw: bytes) -> str:
    """``raw``, the whole content of the file at ``path``, as UTF-8 text after
    an optional byte-order mark; a :class:`SchemaError` names the line of the
    first byte that is not UTF-8."""
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # ``exc.object`` and ``exc.start`` count from after the mark.
        line = exc.object[:exc.start].count(b"\n") + 1
        raise SchemaError(f"{path}:{line}: not UTF-8 text") from None


def read_json(path) -> dict:
    """The JSON object in a UTF-8 file.

    A file that is not UTF-8, not valid JSON, or whose top level is not an
    object raises a :class:`DataError` naming its file and line.
    """
    text = _decode_utf8(path, Path(path).read_bytes())
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        line, what = exc.lineno, f"invalid JSON: {exc.msg} (column {exc.colno})"
    else:
        if isinstance(obj, dict):
            return obj
        line = text[: len(text) - len(text.lstrip())].count("\n") + 1
        what = "the top level is not a JSON object"
    raise DataError(f"{path}:{line}: {what}")


def write_json(path, obj) -> None:
    """Write ``obj`` as UTF-8 JSON, indented by 2 with sorted keys and a
    final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
