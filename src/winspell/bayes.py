"""Naive-Bayes hybrid classifier: interpolated likelihoods with a chi-square
mixing weight, plus heuristic dependency resolution."""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import ConfusionSet, read_text
from .features import (
    COLLOCATION,
    ExtractionParams,
    FeatureIndex,
    FeatureStats,
    chance_probabilities,
    model_head,
    model_lines,
    parse_feature_list,
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
    tables are lists indexed by feature id, filled per feature on first read.
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
        if len(occurrences) != len(confusion_set.members):
            raise ValueError("occurrence counts do not match the confusion set")
        self.confusion_set = confusion_set
        self.extraction = extraction
        self.features, self.feature_ids = retained.features, retained
        self.counts = [tuple(counts[key]) for key in retained]
        self.occurrences = tuple(occurrences)
        self.total = sum(occurrences)
        if self.total <= 0:
            raise ValueError("model needs at least one training occurrence")
        self.dependency_resolution = dependency_resolution

        self.priors = tuple(n / self.total for n in self.occurrences)
        self.log_priors = tuple(_log(p) for p in self.priors)
        # Per-feature tables by feature id, None until first read: filled by
        # resolve_dependencies (mean_lambda) and log_likelihood_row.
        n_features = len(self.features)
        self.mean_lambda: list[float | None] = [None] * n_features
        self.log_likelihoods: list[tuple[float, ...] | None] = [None] * n_features

    def log_likelihood_row(self, feature: int) -> tuple[float, ...]:
        """log(smoothed likelihood) of feature id ``feature`` per member,
        -inf for 0: the terms classification sums. A row is computed the
        first time it is read and kept in ``log_likelihoods``."""
        row = self.log_likelihoods[feature]
        if row is None:
            row = self.log_likelihoods[feature] = tuple(
                map(_log, smoothed_likelihoods(self, feature))
            )
        return row


def train_bayes(
    stats: FeatureStats,
    retained: FeatureIndex,
    dependency_resolution: bool = True,
) -> BayesModel:
    """Build a model over the ``retained`` features from corpus statistics."""
    for i, n in enumerate(stats.occurrences):
        if n == 0:
            warnings.warn(
                f"no training occurrences of "
                f"{stats.confusion_set.member_text(i)!r}; its prior is 0",
                stacklevel=2,
            )
    return BayesModel(
        stats.confusion_set,
        stats.params,
        retained,
        stats.counts,
        stats.occurrences,
        dependency_resolution,
    )


def with_dependency_resolution(model: BayesModel) -> BayesModel:
    """``model`` with dependency resolution on. The two share every table,
    the log rows either of them fills included."""
    clone = object.__new__(BayesModel)
    clone.__dict__.update(model.__dict__, dependency_resolution=True)
    return clone


def smoothed_likelihoods(model: BayesModel, feature: int) -> list[float]:
    """(1 - lambda) * P_ML(f|Wi) + lambda * P_ML(f) per member Wi for feature
    id ``feature``, from its count row, where lambda is the member's
    :func:`~winspell.features.chance_probabilities`."""
    row, occurrences = model.counts[feature], model.occurrences
    marginal = sum(row) / model.total
    return [
        (1.0 - lam) * (c / n if n else 0.0) + lam * marginal
        for c, n, lam in zip(row, occurrences, chance_probabilities(row, occurrences))
    ]


def resolve_dependencies(model: BayesModel, active_set: Iterable[int]) -> tuple[int, ...]:
    """Reduce the active set of feature ids before the naive-Bayes product.

    Collocations whose offset spans overlap are treated as strongly
    dependent; within each overlap-connected group only the feature with the
    lowest mean mixing weight (the strongest association) survives, ties
    going to the lower id. Context-word features are never deleted. With
    dependency resolution off, the active set is returned in id order. A
    collocation's mean mixing weight is computed the first time it is read.
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
            if mean_lambda[f] is None:
                lams = chance_probabilities(model.counts[f], model.occurrences)
                mean_lambda[f] = sum(lams) / len(lams)
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
    rows = [model.log_likelihood_row(f) for f in resolve_dependencies(model, active_set)]
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
# Serialization: "BAYES v1", line-based, tab-separated. Derived tables are
# derived again after load; save -> load -> save is byte-identical. The
# smoothing line names the one smoothing rule, interpolative.
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
    for key, row in zip(model.feature_ids, model.counts):
        lines.append(key + "\t" + "\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


_HEAD_FIELDS = (
    "members", "extraction", "smoothing", "dependency_resolution", "occurrences",
    "priors", "features",
)


def model_from_text(text: str) -> BayesModel:
    lines = model_lines(text, HEADER)
    head, confusion_set, extraction = parse_model_head(lines[1:8], _HEAD_FIELDS)
    try:
        occurrences = [int(n) for n in head["occurrences"]]
        if any(n < 0 for n in occurrences):
            raise ValueError("occurrences must be non-negative")
        (n_features,) = (int(n) for n in head["features"])
        if head["smoothing"] != [INTERPOLATIVE]:
            raise ValueError(f"smoothing must be {INTERPOLATIVE}")
        if head["dependency_resolution"] not in (["on"], ["off"]):
            raise ValueError("dependency_resolution must be on or off")
    except ValueError as exc:
        raise ValueError(f"malformed model file header: {exc}") from exc
    n_members = len(confusion_set.members)
    keys, rows = [], []
    for number, line in enumerate(lines[8 : 8 + n_features], 9):
        key, *row = line.split("\t")
        if len(row) != n_members:
            raise ValueError(
                f"line {number}: count row for {key!r} has {len(row)} counts, not {n_members}"
            )
        # A count that is not a plain decimal reads as -1, out of range.
        counts = [int(c) if c.isdecimal() else -1 for c in row]
        if not all(0 <= c <= n for c, n in zip(counts, occurrences)):
            raise ValueError(
                f"line {number}: count row for {key!r} holds a count that is not an "
                "integer from 0 to its member's occurrences"
            )
        keys.append(key)
        rows.append(counts)
    retained = parse_feature_list(keys, n_features, 9)
    if len(lines) > 8 + n_features:
        raise ValueError(f"line {9 + n_features}: text after the last count row")
    model = BayesModel(
        confusion_set,
        extraction,
        retained,
        dict(zip(keys, rows)),
        occurrences,
        dependency_resolution=head["dependency_resolution"] == ["on"],
    )
    # Priors are recomputed from the occurrence counts; the stored line must
    # be what saving them writes.
    if head["priors"] != [repr(p) for p in model.priors]:
        raise ValueError("priors line does not match the occurrence counts")
    return model


def save_model(model: BayesModel, path: str | Path):
    Path(path).write_text(model_to_text(model), encoding="utf-8")


def load_model(path: str | Path) -> BayesModel:
    return model_from_text(read_text(path))
