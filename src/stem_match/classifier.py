"""Tweet-usage features and the college / non-college linear classifier.

Each feature is the fraction of a student's tweets containing a marker
(emoji, hashtag, HAHA/LOL laughter, retweet), discretized into ten bins;
a ``FeatureVector`` holds the bins alone, and retweets are counted only
when that feature is asked for.
A linear max-margin model (hinge loss + L2, trained by deterministic
subgradient descent with a decaying step size) turns weak labels into
predictions for the unlabeled majority.  The retweet feature is off by
default: it is retained only for ablation runs, where it tends to cost a
little accuracy rather than add any.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .attributes import _HASHTAG
from .labeling import COLLEGE, NON_COLLEGE
from .records import StudentRecord, _is_int, write_atomic

# Unicode blocks counted as emoji: Miscellaneous Symbols and Pictographs,
# Emoticons, Transport and Map Symbols, Supplemental Symbols and Pictographs.
EMOJI_RANGES = (
    (0x1F300, 0x1F5FF),
    (0x1F600, 0x1F64F),
    (0x1F680, 0x1F6FF),
    (0x1F900, 0x1F9FF),
)
_EMOJI = re.compile("[" + "".join(f"\\U{lo:08X}-\\U{hi:08X}" for lo, hi in EMOJI_RANGES) + "]")

# Whole-token, case-sensitive laughter markers: HAHA (two or more HA
# repetitions, optional trailing H) and LOL with any number of Os.
_HAHALOL = re.compile(r"\b(?:(?:HA){2,}H?|LO+L)\b")
RETWEET_PREFIX = "RT @"

BASE_FEATURES = ("emoji_bin", "hashtag_bin", "hahalol_bin")
RETWEET_FEATURE = "retweet_bin"
N_BINS = 10


class ClassifierError(ValueError):
    """Raised for unusable training data or mismatched feature vectors."""


def contains_emoji(text: str) -> bool:
    return _EMOJI.search(text) is not None


def contains_hashtag(text: str) -> bool:
    return _HASHTAG.search(text) is not None


def contains_hahalol(text: str) -> bool:
    return _HAHALOL.search(text) is not None


def is_retweet(text: str) -> bool:
    return text.startswith(RETWEET_PREFIX)


def _bin(count: int, total: int) -> int:
    # Integer form of min(floor(10 * count/total), 9); exact, no float
    # boundary artifacts.
    return min((10 * count) // total, N_BINS - 1)


@dataclass(frozen=True)
class FeatureVector:
    """Binned tweet-usage features for one student.

    Each bin is the student's share of tweets with the marker, in tenths;
    ``retweet_bin`` is None unless the ablation feature was requested.
    """

    emoji_bin: int
    hashtag_bin: int
    hahalol_bin: int
    retweet_bin: int | None


def extract_features(record: StudentRecord, with_retweet: bool = False) -> FeatureVector:
    """Compute relative-frequency features over a student's tweets."""
    total = len(record.tweets)
    if total == 0:
        raise ClassifierError(f"student {record.id!r} has no tweets to extract features from")
    emoji = sum(1 for t in record.tweets if contains_emoji(t))
    hashtag = sum(1 for t in record.tweets if contains_hashtag(t))
    hahalol = sum(1 for t in record.tweets if contains_hahalol(t))
    retweet = sum(1 for t in record.tweets if is_retweet(t)) if with_retweet else None
    return FeatureVector(
        emoji_bin=_bin(emoji, total),
        hashtag_bin=_bin(hashtag, total),
        hahalol_bin=_bin(hahalol, total),
        retweet_bin=None if retweet is None else _bin(retweet, total),
    )


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------


_FINITE = (math.isfinite, "a finite number")
# Model field -> (accepts(value), what it must be).  A field without a rule
# of its own, such as a feature's weight, must be finite.  ``TrainConfig``
# and ``ClassifierModel`` check through ``_check``, and ``PipelineConfig``
# takes its training keys' rules from here.
_RULES = {
    "seed": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "epochs": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "lam": (lambda v: (_is_int(v) or isinstance(v, float)) and math.isfinite(v) and v > 0,
            "a finite number > 0"),
    "cv_accuracy": (lambda v: v is None or 0.0 <= v <= 1.0, "null or within [0, 1]"),
}


def _check(name: str, value) -> None:
    accepts, kind = _RULES.get(name, _FINITE)
    if not accepts(value):
        raise ClassifierError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 42
    epochs: int = 200
    lam: float = 0.01
    with_retweet: bool = False

    def __post_init__(self) -> None:
        for name in ("seed", "epochs", "lam"):
            _check(name, getattr(self, name))

    def active_features(self) -> tuple[str, ...]:
        if self.with_retweet:
            return BASE_FEATURES + (RETWEET_FEATURE,)
        return BASE_FEATURES


@dataclass(frozen=True)
class ClassifierModel:
    """Linear model: one finite weight per active feature plus a finite bias."""

    weights: tuple[float, ...]
    bias: float
    active_features: tuple[str, ...]
    seed: int
    epochs: int
    lam: float
    cv_accuracy: float | None = None
    objective_history: tuple[float, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.active_features):
            raise ClassifierError("one weight per active feature expected")
        for name, weight in zip(self.active_features, self.weights):
            _check(name, weight)
        for name in ("bias", "seed", "epochs", "lam", "cv_accuracy"):
            _check(name, getattr(self, name))


def _design_matrix(features: Sequence[FeatureVector], active: Sequence[str]) -> np.ndarray:
    """The feature-major design matrix: one row per active feature, its bins
    0..9 rescaled into [0, 1], then a row of ones that carries the bias."""
    columns = [[getattr(f, name) for f in features] for name in active]
    for name, column in zip(active, columns):
        if None in column:
            raise ClassifierError(f"feature/model arity mismatch: {name} missing from vector")
    scaled = np.array(columns, dtype=float).reshape(len(active), len(features)) / (N_BINS - 1)
    return np.vstack([scaled, np.ones(len(features))])


def _decision(XT: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``w·x + b`` for each row ``(w, b)`` of ``W`` and each column of the
    design matrix ``XT``: an array of one row per row of ``W``.

    The one decision function of training, cross-validation and inference.
    Elementwise products summed feature by feature call no BLAS kernel, so
    the floats are the same on every host; each equals the per-example
    Python sum ``w[0]*x[0] + w[1]*x[1] + ... + b`` bit for bit.
    """
    return np.add.reduce(XT * W[:, :, None], axis=1)


def _signs(labels: Sequence[str]) -> np.ndarray:
    signs = np.empty(len(labels))
    for i, label in enumerate(labels):
        if label == COLLEGE:
            signs[i] = 1.0
        elif label == NON_COLLEGE:
            signs[i] = -1.0
        else:
            raise ClassifierError(f"training label must be college or non-college, got {label!r}")
    return signs


def train(features: Sequence[FeatureVector], labels: Sequence[str],
          config: TrainConfig = TrainConfig()) -> ClassifierModel:
    """Fit the max-margin model on weakly labeled feature vectors.

    Full-batch subgradient descent on mean hinge loss + (lam/2)·||w||²,
    epoch step size 1/(lam·t) with halving until the step does not
    increase the objective, so the recorded objective history is
    nonincreasing and training is deterministic (and invariant to
    duplicating the training set).
    """
    if len(features) != len(labels):
        raise ClassifierError("features and labels must align")
    y = _signs(labels)
    return _fit(_design_matrix(features, config.active_features()), y, config)


# Multipliers of an epoch's step size, 1 down to 2**-59 as one column, tried
# largest first a group at a time: most epochs take the full step.
_HALVINGS = np.split(0.5 ** np.arange(60)[:, None], [1, 8])


def _fit(XT: np.ndarray, y: np.ndarray, config: TrainConfig) -> ClassifierModel:
    """``train`` on a design matrix and its ±1 labels.

    Training runs over the distinct (example, label) pairs in sorted order,
    each weighted by its share of the examples, so the sums are those over
    every example at the cost of the few distinct ones that binned features
    allow.  Each epoch takes the largest step in ``_HALVINGS`` that does not
    increase the objective, evaluating a group of steps at once.
    """
    n = len(y)
    n_pos = int(np.add.reduce(y > 0))
    if n_pos < 2 or n - n_pos < 2:
        raise ClassifierError("need at least 2 examples of each class to train")
    active = config.active_features()
    lam = config.lam
    distinct, counts = np.unique(np.vstack([XT, y]), axis=1, return_counts=True)
    # Each distinct example times its label, so that its decision is its margin.
    signed = np.ascontiguousarray(distinct[:-1] * distinct[-1])
    shares = counts / n
    penalty = np.append(np.full(len(active), lam), 0.0)  # the bias is not penalized
    half_penalty = 0.5 * penalty

    def objectives_and_margins(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        margins = _decision(signed, V)
        hinge = np.maximum(0.0, 1.0 - margins)
        return (np.add.reduce(V * V * half_penalty, axis=1)
                + np.add.reduce(hinge * shares, axis=1)), margins

    v = np.zeros(len(active) + 1)
    objectives, margins = objectives_and_margins(v[None, :])
    objective, margins = objectives[0], margins[0]
    history = [float(objective)]
    for t in range(1, config.epochs + 1):
        grad = penalty * v - np.add.reduce(signed * ((margins < 1.0) * shares), axis=1)
        for halvings in _HALVINGS:
            V = v - halvings * (1.0 / (lam * t)) * grad
            objectives, all_margins = objectives_and_margins(V)
            accepted = np.flatnonzero(objectives <= objective)
            if accepted.size:
                i = accepted[0]
                v, objective, margins = V[i], objectives[i], all_margins[i]
                break
        history.append(float(objective))

    return ClassifierModel(
        weights=tuple(float(x) for x in v[:-1]),
        bias=float(v[-1]),
        active_features=active,
        seed=config.seed,
        epochs=config.epochs,
        lam=lam,
        objective_history=tuple(history),
    )


def _scores(model: ClassifierModel, features: Sequence[FeatureVector]) -> np.ndarray:
    """The decision score of each vector under ``model``."""
    XT = _design_matrix(features, model.active_features)
    return _decision(XT, np.array([model.weights + (model.bias,)]))[0]


def infer(model: ClassifierModel, features: Sequence[FeatureVector]) -> list[str]:
    """Predicted labels, one per vector; a decision score of exactly zero reads as college."""
    return [COLLEGE if score >= 0.0 else NON_COLLEGE for score in _scores(model, features).tolist()]


def cross_validate(features: Sequence[FeatureVector], labels: Sequence[str], k: int,
                   config: TrainConfig = TrainConfig()) -> float:
    """Mean held-out accuracy over k seeded, deterministic folds.

    Examples are shuffled per class with the config seed and dealt
    round-robin (class by class through a shared counter) so fold sizes
    differ by at most one and every fold is populated when n ≥ k.  The
    design matrix is built once and each fold trains on its columns.
    """
    if k < 2:
        raise ClassifierError("cross-validation needs k >= 2")
    if len(features) != len(labels):
        raise ClassifierError("features and labels must align")
    if len(features) < k:
        raise ClassifierError(f"need at least k={k} labeled examples, got {len(features)}")
    y = _signs(labels)  # validates label values up front
    XT = _design_matrix(features, config.active_features())

    rng = np.random.default_rng(config.seed)
    fold_of = np.empty(len(labels), dtype=int)
    counter = 0
    for sign in (1.0, -1.0):
        members = np.flatnonzero(y == sign)
        rng.shuffle(members)
        for index in members:
            fold_of[index] = counter % k
            counter += 1

    accuracies = []
    for fold in range(k):
        test_idx = np.flatnonzero(fold_of == fold)
        train_idx = np.flatnonzero(fold_of != fold)
        model = _fit(XT[:, train_idx], y[train_idx], config)
        predicted = infer(model, [features[i] for i in test_idx])
        hits = sum(1 for label, i in zip(predicted, test_idx) if label == labels[i])
        accuracies.append(hits / len(test_idx))
    return float(np.mean(accuracies))


# ---------------------------------------------------------------------------
# Persistence: plain-text weight file
# ---------------------------------------------------------------------------


def save_model(model: ClassifierModel, path: str | Path) -> None:
    lines = ["# stem-match linear classifier"]
    for name, weight in zip(model.active_features, model.weights):
        lines.append(f"feature {name} {weight!r}")
    lines.append(f"bias {model.bias!r}")
    lines.append(f"lambda {model.lam!r}")
    lines.append(f"seed {model.seed}")
    lines.append(f"epochs {model.epochs}")
    if model.cv_accuracy is not None:
        lines.append(f"cv_accuracy {model.cv_accuracy!r}")
    write_atomic(path, ["\n".join(lines) + "\n"])
