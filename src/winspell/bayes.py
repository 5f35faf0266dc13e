"""Naive-Bayes hybrid classifier: interpolated likelihoods with a chi-square
mixing weight, plus heuristic dependency resolution."""

from __future__ import annotations

import math
import warnings
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import ConfusionSet
from .features import (
    COLLOCATION,
    ExtractionParams,
    Feature,
    FeatureStats,
    association_table,
    chi_square_2x2,
    index_features,
    parse_feature_key,
    parse_model_head,
)

INTERPOLATIVE = "interpolative"
MLE_ONLY = "mle"


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
    """Priors, likelihood tables, and smoothing state for one confusion set.

    All derived tables (priors, MLE likelihoods, unigrams, mixing weights,
    and the logs of the priors and smoothed likelihoods that classification
    sums) are recomputed from the raw counts, so a serialized model reloads
    exactly. Per-feature tables are lists indexed by feature id.
    """

    def __init__(
        self,
        confusion_set: ConfusionSet,
        extraction: ExtractionParams,
        counts: Mapping[Feature, Sequence[int]],
        occurrences: Sequence[int],
        smoothing: str = INTERPOLATIVE,
        dependency_resolution: bool = True,
    ):
        if smoothing not in (INTERPOLATIVE, MLE_ONLY):
            raise ValueError(f"unknown smoothing mode: {smoothing!r}")
        if len(occurrences) != len(confusion_set.members):
            raise ValueError("occurrence counts do not match the confusion set")
        self.confusion_set = confusion_set
        self.extraction = extraction
        self.features, self.feature_ids = index_features(counts)
        self.counts = [tuple(counts[f]) for f in self.features]
        self.occurrences = tuple(occurrences)
        self.total = sum(occurrences)
        if self.total <= 0:
            raise ValueError("model needs at least one training occurrence")
        self.smoothing = smoothing
        self.dependency_resolution = dependency_resolution

        self.priors = tuple(n / self.total for n in self.occurrences)
        self.p_ml = [
            tuple(row[i] / n if n else 0.0 for i, n in enumerate(self.occurrences))
            for row in self.counts
        ]
        self.p_unigram = [sum(row) / self.total for row in self.counts]
        self.lam = [
            tuple(
                chi_square_2x2(*association_table(row, self.occurrences, i))[1]
                for i in range(self.n_members)
            )
            for row in self.counts
        ]
        self.mean_lambda = [sum(lam) / self.n_members for lam in self.lam]
        self.log_priors = tuple(_log(p) for p in self.priors)
        self.log_likelihoods: list[tuple[float, ...] | None] = [None] * len(self.features)

    def log_likelihood_row(self, feature: int) -> tuple[float, ...]:
        """log(smoothed likelihood) of feature id ``feature`` per member,
        -inf for 0: the terms classification sums. A row is computed the
        first time it is read and kept in ``log_likelihoods``, so a model
        pays only for the features it is asked about."""
        row = self.log_likelihoods[feature]
        if row is None:
            row = self.log_likelihoods[feature] = tuple(
                _log(smoothed_likelihood(self, feature, i)) for i in range(self.n_members)
            )
        return row

    @property
    def n_members(self) -> int:
        return len(self.confusion_set.members)


def train_bayes(
    stats: FeatureStats,
    retained: Iterable[Feature],
    smoothing: str = INTERPOLATIVE,
    dependency_resolution: bool = True,
) -> BayesModel:
    """Build a model over the ``retained`` features from corpus statistics."""
    counts = {f: stats.counts[f] for f in retained}
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
        counts,
        stats.occurrences,
        smoothing,
        dependency_resolution,
    )


def smoothed_likelihood(model: BayesModel, feature: int, member_index: int) -> float:
    """(1 - lambda) * P_ML(f|Wi) + lambda * P_ML(f) for feature id ``feature``,
    where lambda is the chi-square probability that the f/Wi association is
    due to chance; MLE-only mode returns the raw likelihood."""
    ml = model.p_ml[feature][member_index]
    if model.smoothing == MLE_ONLY:
        return ml
    lam = model.lam[feature][member_index]
    return (1.0 - lam) * ml + lam * model.p_unigram[feature]


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
    (possible with MLE likelihoods), the equal scores leave the prior to
    decide.
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
# recomputed on load; save -> load -> save is byte-identical.
# ---------------------------------------------------------------------------

_HEADER = "BAYES v1"


def model_to_text(model: BayesModel) -> str:
    lines = [_HEADER]
    lines.append("members\t" + "\t".join(
        model.confusion_set.member_text(i) for i in range(model.n_members)
    ))
    lines.append(f"extraction\tk={model.extraction.k}\tl={model.extraction.l}")
    lines.append(f"smoothing\t{model.smoothing}")
    lines.append(
        "dependency_resolution\t" + ("on" if model.dependency_resolution else "off")
    )
    lines.append("occurrences\t" + "\t".join(str(n) for n in model.occurrences))
    lines.append("priors\t" + "\t".join(repr(p) for p in model.priors))
    lines.append(f"features\t{len(model.features)}")
    for f, row in zip(model.features, model.counts):
        lines.append(f.key() + "\t" + "\t".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


_HEAD_FIELDS = (
    "members", "extraction", "smoothing", "dependency_resolution", "occurrences",
    "priors", "features",
)


def model_from_text(text: str) -> BayesModel:
    lines = text.splitlines()
    if not lines or lines[0] != _HEADER:
        raise ValueError("not a BAYES v1 model file")
    head, confusion_set, extraction = parse_model_head(lines[1:8], _HEAD_FIELDS)
    try:
        occurrences = [int(n) for n in head["occurrences"]]
        (n_features,) = (int(n) for n in head["features"])
        if head["dependency_resolution"] not in (["on"], ["off"]):
            raise ValueError("dependency_resolution must be on or off")
    except ValueError as exc:
        raise ValueError(f"malformed model file header: {exc}") from exc
    n_members = len(confusion_set.members)
    counts: dict[Feature, list[int]] = {}
    for line in lines[8 : 8 + n_features]:
        key, *row = line.split("\t")
        if len(row) != n_members:
            raise ValueError(
                f"count row for {key!r} has {len(row)} counts, not {n_members}"
            )
        counts[parse_feature_key(key)] = [int(c) for c in row]
    if len(counts) != n_features:
        raise ValueError("model file truncated or has duplicate features")
    if len(lines) > 8 + n_features:
        raise ValueError(f"line {9 + n_features}: text after the last count row")
    model = BayesModel(
        confusion_set,
        extraction,
        counts,
        occurrences,
        smoothing=head["smoothing"][0],
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
    return model_from_text(Path(path).read_text(encoding="utf-8"))
