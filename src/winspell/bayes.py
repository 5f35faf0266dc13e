"""Naive-Bayes hybrid classifier: interpolated likelihoods with a chi-square
mixing weight, plus heuristic dependency resolution."""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import ConfusionSet, read_text
from .features import (
    COLLOCATION,
    ExtractionParams,
    FeatureIndex,
    FeatureStats,
    chance_probabilities,
    check_round_trip,
    index_features,
    model_head,
    one_of,
    parse_model_head,
)

INTERPOLATIVE = "interpolative"


class Decision(NamedTuple):
    """Per-member scores (Bayes log posteriors or Winnow cloud outputs) and
    the chosen member index."""

    scores: tuple[float, ...]
    chosen: int


def choose(scores: Sequence[float], priors: Sequence[float]) -> int:
    """The member with the highest score; ties go to the larger training
    prior, then the lower member index. Both learners decide by this rule,
    so equal scores give equal decisions."""
    return max(range(len(scores)), key=lambda i: (scores[i], priors[i], -i))


class BayesModel:
    """Count rows, and the tables derived from them, for one confusion set.

    Everything derived (priors, mixing weights, and the logs of the priors and
    smoothed likelihoods that classification sums) is computed from the raw
    counts, so a serialized model reloads exactly. ``feature_ids`` is the
    index of the retained features and ``features`` its Feature tuples;
    ``counts`` gives each retained key's count row, and the two per-feature
    tables, ``mean_lambda`` and ``log_likelihoods`` (log smoothed likelihood
    per member, -inf for 0: the terms classification sums), are lists indexed
    by feature id, derived here once per distinct count row.
    """

    def __init__(
        self,
        confusion_set: ConfusionSet,
        extraction: ExtractionParams,
        retained: FeatureIndex,
        counts: Mapping[str, Sequence[int]],
        occurrences: Sequence[int],
        dependency_resolution: bool = True,
    ):
        self.priors = priors_of(occurrences, confusion_set)
        self.confusion_set = confusion_set
        self.extraction = extraction
        self.features, self.feature_ids = retained.features, retained
        self.counts = [tuple(counts[key]) for key in retained]
        self.occurrences = tuple(occurrences)
        self.total = sum(occurrences)
        self.dependency_resolution = dependency_resolution
        self.log_priors = tuple(_log(p) for p in self.priors)
        # Both tables depend only on the count row and the occurrences.
        derived = {}
        for row in set(self.counts):
            lams = chance_probabilities(row, self.occurrences)
            logs = tuple(map(_log, smoothed_likelihoods(self, row, lams)))
            derived[row] = (sum(lams) / len(lams), logs)
        self.mean_lambda = [derived[row][0] for row in self.counts]
        self.log_likelihoods = [derived[row][1] for row in self.counts]


def priors_of(occurrences: Sequence[int], confusion_set: ConfusionSet) -> tuple[float, ...]:
    """Each member's share of the training occurrences: ValueError unless they
    are one count per member of ``confusion_set``, non-negative, not all 0."""
    if len(occurrences) != len(confusion_set.members):
        raise ValueError("occurrence counts do not match the confusion set")
    if any(n < 0 for n in occurrences):
        raise ValueError("occurrences must be non-negative")
    total = sum(occurrences)
    if total <= 0:
        raise ValueError("model needs at least one training occurrence")
    return tuple(n / total for n in occurrences)


def train_bayes(
    stats: FeatureStats,
    retained: FeatureIndex,
    dependency_resolution: bool = True,
) -> BayesModel:
    """Build a model over the ``retained`` features from corpus statistics."""
    return BayesModel(
        stats.confusion_set,
        stats.params,
        retained,
        stats.counts,
        stats.occurrences,
        dependency_resolution,
    )


def with_dependency_resolution(model: BayesModel) -> BayesModel:
    """``model`` with dependency resolution on. The two share every table."""
    clone = object.__new__(BayesModel)
    clone.__dict__.update(model.__dict__, dependency_resolution=True)
    return clone


def smoothed_likelihoods(
    model: BayesModel, row: Sequence[int], lams: Sequence[float]
) -> list[float]:
    """(1 - lambda) * P_ML(f|Wi) + lambda * P_ML(f) per member Wi for a
    feature with count row ``row``, where lambda is the member's entry of
    ``lams``, the row's :func:`~winspell.features.chance_probabilities`."""
    marginal = sum(row) / model.total
    return [
        (1.0 - lam) * (c / n if n else 0.0) + lam * marginal
        for c, n, lam in zip(row, model.occurrences, lams)
    ]


def resolve_dependencies(model: BayesModel, active_set: Iterable[int]) -> tuple[int, ...]:
    """Reduce the active set of feature ids before the naive-Bayes product.

    Collocations whose offset spans overlap are treated as strongly
    dependent; within each overlap-connected group only the feature with the
    lowest mean mixing weight (the strongest association) survives, ties
    going to the lower id. Context-word features are never deleted. With
    dependency resolution off, the active set is returned in id order.
    """
    active = tuple(sorted(active_set))
    if not model.dependency_resolution:
        return active
    features, mean_lambda = model.features, model.mean_lambda
    # Collocations with one offset span all overlap, so only each span's
    # strongest can survive; active is sorted, so ties keep the first.
    strongest: dict[tuple[int, ...], int] = {}
    for f in active:
        feature = features[f]
        if feature.kind == COLLOCATION:
            best = strongest.get(feature.offsets)
            if best is None or mean_lambda[f] < mean_lambda[best]:
                strongest[feature.offsets] = f
    # Components of the few distinct spans under overlap, each as the union
    # of its offsets and its strongest collocation.
    groups: list[tuple[set[int], int]] = []
    for span, f in strongest.items():
        offsets = set(span)
        for group in [g for g in groups if g[0] & offsets]:
            groups.remove(group)
            offsets |= group[0]
            f = min(f, group[1], key=lambda c: (mean_lambda[c], c))
        groups.append((offsets, f))
    survivors = {f for _, f in groups}
    return tuple(f for f in active if features[f].kind != COLLOCATION or f in survivors)


def classify_bayes(model: BayesModel, active_set: Iterable[int]) -> Decision:
    """Log-space posterior over members; the normalizing constant is omitted.

    The member is picked by :func:`choose`. If every member scores -inf
    (as for a feature whose count row is all zero, whose smoothed likelihood
    is 0), the equal scores leave the prior to decide.
    """
    rows = [model.log_likelihoods[f] for f in resolve_dependencies(model, active_set)]
    # fsum is exactly rounded, so members with identical term multisets tie
    # exactly and fall through to the prior rule.
    scores = tuple(
        math.fsum([log_prior, *(row[i] for row in rows)])
        for i, log_prior in enumerate(model.log_priors)
    )
    return Decision(scores, choose(scores, model.priors))


def _log(x: float) -> float:
    return math.log(x) if x > 0.0 else float("-inf")


# ---------------------------------------------------------------------------
# Serialization: "BAYES v1", line-based, tab-separated. Derived tables, the
# priors line's among them, are derived again after load; a file loads only if
# saving its model writes its bytes. One smoothing rule: interpolative.
# ---------------------------------------------------------------------------

HEADER = "BAYES v1"


def model_to_text(model: BayesModel) -> str:
    lines = model_head(HEADER, model.confusion_set, model.extraction) + [
        f"smoothing\t{INTERPOLATIVE}",
        "dependency_resolution\t" + ("on" if model.dependency_resolution else "off"),
        "occurrences\t" + "\t".join(str(n) for n in model.occurrences),
        "priors\t" + "\t".join(repr(p) for p in model.priors),
        f"features\t{len(model.features)}",
    ]
    spelled: dict[tuple[int, ...], str] = {}  # each distinct count row spelled once
    for key, row in zip(model.feature_ids, model.counts):
        if row not in spelled:
            spelled[row] = "\t".join(map(str, row))
        lines.append(key + "\t" + spelled[row])
    return "\n".join(lines) + "\n"


def _occurrences(values: list[str], head: dict) -> list[int]:
    occurrences = [int(n) for n in values]
    priors_of(occurrences, head["members"])
    return occurrences


_HEAD = (
    ("smoothing", None),
    one_of("dependency_resolution", "on", "off"),
    ("occurrences", _occurrences),
    ("priors", None),
)


def model_from_text(text: str) -> BayesModel:
    lines, head = parse_model_head(text, HEADER, _HEAD)
    occurrences, n_features = head["occurrences"], head["features"]
    n_members = len(occurrences)
    keys, rows = [], []
    checked: dict[str, tuple[int, ...]] = {}  # each distinct count row read and checked once
    for number, line in enumerate(lines[8 : 8 + n_features], 9):
        key, tab, spelled = line.partition("\t")
        counts = checked.get(spelled)
        if counts is None:
            row = spelled.split("\t") if tab else []
            if len(row) != n_members:
                raise ValueError(f"line {number}: count row for {key!r} has {len(row)} counts,"
                                 f" not {n_members}")
            # A count that is not a plain decimal reads as -1, out of range.
            counts = tuple(int(c) if c.isdecimal() else -1 for c in row)
            if not all(0 <= c <= n for c, n in zip(counts, occurrences)):
                raise ValueError(f"line {number}: count row for {key!r} holds a count that is"
                                 " not an integer from 0 to its member's occurrences")
            checked[spelled] = counts
        keys.append(key)
        rows.append(counts)
    retained = index_features(keys, 9)
    model = BayesModel(head["members"], head["extraction"], retained, dict(zip(keys, rows)),
                       occurrences, head["dependency_resolution"] == "on")
    check_round_trip(text, model_to_text(model))
    return model


def save_model(model: BayesModel, path: str | Path):
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> BayesModel:
    return model_from_text(read_text(path))
