"""Context-word and collocation features: generation, counting, chi-square
association, and pruning."""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import product
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import (
    ConfusionSet,
    Occurrence,
    Sentence,
    TagDictionary,
    confusion_set_from_text,
    find_occurrences,
)

COLLOCATION = "COLL"
CONTEXT_WORD = "CW"

WORD_SLOT = "w"
TAG_SLOT = "t"

PRUNED = "pruned"
UNPRUNED = "unpruned"
MODES = (PRUNED, UNPRUNED)


class Feature(NamedTuple):
    """A context-word test or a collocation pattern around the target gap.

    Field order defines the canonical total ordering used everywhere a
    deterministic iteration order matters. A named tuple, so hashing,
    equality and ordering run at C speed on every dict and set hit.
    """

    kind: str
    word: str = ""
    offsets: tuple[int, ...] = ()
    slots: tuple[tuple[str, str], ...] = ()

    def key(self) -> str:
        """Canonical one-line form: ``CW <word>`` or ``COLL <off>:<slot>...``
        with ``_`` marking the target gap; slots are ``w=<word>`` or
        ``t=<TAG>``."""
        if self.kind == CONTEXT_WORD:
            return f"CW {self.word}"
        parts = [
            f"{off:+d}:{slot_kind}={value}"
            for off, (slot_kind, value) in zip(self.offsets, self.slots)
        ]
        gap_at = sum(1 for off in self.offsets if off < 0)
        parts.insert(gap_at, "_")
        return "COLL " + " ".join(parts)


def context_word(word: str) -> Feature:
    return Feature(CONTEXT_WORD, word=word)


def collocation(
    offsets: Sequence[int], slots: Sequence[tuple[str, str]]
) -> Feature:
    return Feature(COLLOCATION, offsets=tuple(offsets), slots=tuple(slots))


def parse_feature_key(key: str) -> Feature:
    """Inverse of :meth:`Feature.key`."""
    if key.startswith("CW "):
        return context_word(key[3:])
    if not key.startswith("COLL "):
        raise ValueError(f"malformed feature key: {key!r}")
    offsets = []
    slots = []
    for part in key[5:].split(" "):
        if part == "_":
            continue
        offset_text, slot = part.split(":", 1)
        slot_kind, value = slot.split("=", 1)
        if slot_kind not in (WORD_SLOT, TAG_SLOT):
            raise ValueError(f"malformed feature key: {key!r}")
        offsets.append(int(offset_text))
        slots.append((slot_kind, value))
    return collocation(offsets, slots)


def index_features(features: Iterable[Feature]) -> tuple[tuple[Feature, ...], dict[Feature, int]]:
    """The features in canonical order, and each one's id: its position in
    that order. Both learners, the training stream and the ``WINNOW v1``
    weight rows number features by this one rule."""
    ordered = tuple(sorted(features))
    return ordered, {f: i for i, f in enumerate(ordered)}


class ExtractionParams(namedtuple("ExtractionParams", "k l")):
    """Window half-width k and maximum collocation length l."""

    __slots__ = ()

    def __new__(cls, k: int = 10, l: int = 2):
        if k < 1:
            raise ValueError("context window k must be >= 1")
        if l not in (1, 2):
            raise ValueError("collocation length l must be 1 or 2")
        return super().__new__(cls, k, l)


# Contiguous offset spans of length <= 2 adjacent to or straddling the gap.
_SPANS_L1 = ((-1,), (1,))
_SPANS_L2 = ((-1,), (1,), (-2, -1), (-1, 1), (1, 2))


def generate_features(
    occurrence: Occurrence,
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> set[Feature]:
    """All possible features for the context of one occurrence in its sentence.

    Context words: one feature per distinct token within k tokens left of the
    span or right of it (the span itself excluded), clipped at the sentence
    edges. Collocations: every in-bounds offset span, with each slot realized
    as either the literal word or each tag in the word's tag set; offsets are
    measured from the span edges (-1 = token before the span, +1 = token
    after it).
    """
    surfaces = occurrence.sentence.surfaces
    start, end = occurrence.span_start, occurrence.span_end
    if not (0 <= start <= end <= len(surfaces)):
        raise ValueError("occurrence lies outside its sentence")
    window = {*surfaces[max(0, start - params.k) : start], *surfaces[end : end + params.k]}
    features = {Feature(CONTEXT_WORD, word) for word in window}
    # Each neighbouring slot's choices (the word, then each of its tags),
    # built once and shared by every span through that slot.
    choices = {}
    for offset, position in ((-2, start - 2), (-1, start - 1), (1, end), (2, end + 1)):
        if 0 <= position < len(surfaces):
            word = surfaces[position]
            choices[offset] = [(WORD_SLOT, word)]
            choices[offset].extend((TAG_SLOT, tag) for tag in sorted(tagdict.lookup(word)))
    for span in _SPANS_L2 if params.l == 2 else _SPANS_L1:
        if all(offset in choices for offset in span):
            features.update(
                Feature(COLLOCATION, "", span, combo)
                for combo in product(*(choices[offset] for offset in span))
            )
    return features


class FeatureStats:
    """Per-feature, per-member co-occurrence counts from a training corpus."""

    def __init__(self, confusion_set: ConfusionSet, params: ExtractionParams):
        self.confusion_set = confusion_set
        self.params = params
        self.counts: dict[Feature, list[int]] = {}
        self.occurrences = [0] * len(confusion_set.members)

    @property
    def n_members(self) -> int:
        return len(self.confusion_set.members)

    @property
    def total_occurrences(self) -> int:
        return sum(self.occurrences)

    def add(self, feature_set: Iterable[Feature], member_index: int):
        self.occurrences[member_index] += 1
        counts, n_members = self.counts, self.n_members
        for feature in feature_set:
            row = counts.get(feature)
            if row is None:
                row = counts[feature] = [0] * n_members
            row[member_index] += 1

    def max_association(self, feature: Feature) -> float:
        """Largest chi-square statistic over members (for >2-member sets the
        member with the strongest association decides)."""
        row = self.counts[feature]
        return max(
            chi_square_2x2(*association_table(row, self.occurrences, i))[0]
            for i in range(self.n_members)
        )


def association_table(
    row: Sequence[int], occurrences: Sequence[int], member_index: int
) -> tuple[int, int, int, int]:
    """2x2 table of one feature's count row: feature present/absent x member vs rest."""
    a = row[member_index]
    b = sum(row) - a
    c = occurrences[member_index] - a
    d = (sum(occurrences) - occurrences[member_index]) - b
    return a, b, c, d


def _count_features(
    occurrences: Sequence[Occurrence],
    confusion_set: ConfusionSet,
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> tuple[FeatureStats, list[tuple[set[Feature], int]]]:
    """Generate the features of every occurrence once, count them, and
    return the counts with the (generated set, member) pairs."""
    stats = FeatureStats(confusion_set, params)
    generated = []
    for occ in occurrences:
        features = generate_features(occ, params, tagdict)
        stats.add(features, occ.member_index)
        generated.append((features, occ.member_index))
    if stats.total_occurrences == 0:
        raise ValueError(
            f"no occurrences of {{{confusion_set.label}}} in corpus; cannot train"
        )
    return stats, generated


def collect_stats(
    corpus: Sequence[Sentence],
    confusion_set: ConfusionSet,
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> FeatureStats:
    """Accumulate feature statistics over every occurrence in the corpus."""
    occurrences = find_occurrences(corpus, confusion_set)
    return _count_features(occurrences, confusion_set, params, tagdict)[0]


def chi2_sf(statistic: float) -> float:
    """Survival function of the chi-square distribution with 1 dof."""
    return math.erfc(math.sqrt(statistic / 2.0))


def chi_square_2x2(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Pearson chi-square for a 2x2 table, 1 dof, no continuity correction.

    Returns (statistic, p_value); a table with any zero marginal is treated
    as perfectly independent (statistic 0, p 1).
    """
    if min(a, b, c, d) < 0:
        raise ValueError("chi-square counts must be non-negative")
    n = a + b + c + d
    denominator = (a + b) * (c + d) * (a + c) * (b + d)
    if denominator == 0:
        return 0.0, 1.0
    statistic = n * (a * d - b * c) ** 2 / denominator
    return statistic, chi2_sf(statistic)


# Pruned mode: least count, least count of occurrences without the feature,
# and the significance level of its strongest member association.
MIN_OCCURRENCES = 10
MIN_NONOCCURRENCES = 10
ALPHA = 0.05


def prune(stats: FeatureStats, mode: str) -> tuple[Feature, ...]:
    """The retained feature set, in canonical order. Pruned mode drops rare,
    near-universal, and uncorrelated features; unpruned mode drops only
    singletons."""
    if mode not in MODES:
        raise ValueError(f"unknown pruning mode: {mode!r}")
    retained = []
    n_total = stats.total_occurrences
    for feature, row in stats.counts.items():
        total = sum(row)
        if mode == UNPRUNED:
            if total != 1:
                retained.append(feature)
            continue
        if total < MIN_OCCURRENCES:
            continue
        if n_total - total < MIN_NONOCCURRENCES:
            continue
        if chi2_sf(stats.max_association(feature)) >= ALPHA:
            continue
        retained.append(feature)
    return tuple(sorted(retained))


def extract_active(
    occurrence: Occurrence,
    feature_ids: Mapping[Feature, int],
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> tuple[int, ...]:
    """Active features for one occurrence: the sorted ids of the generated
    features that ``feature_ids`` holds."""
    return _active_ids(generate_features(occurrence, params, tagdict), feature_ids)


def _active_ids(generated: set[Feature], feature_ids: Mapping[Feature, int]) -> tuple[int, ...]:
    # Look up from the smaller side: a lookup hashes its Feature anew.
    if len(feature_ids) < len(generated):
        return tuple(sorted([i for f, i in feature_ids.items() if f in generated]))
    return tuple(sorted([i for i in map(feature_ids.get, generated) if i is not None]))


def prepare_set(
    occurrences: Sequence[Occurrence],
    confusion_set: ConfusionSet,
    params: ExtractionParams,
    tagdict: TagDictionary,
    mode: str,
) -> tuple[FeatureStats, tuple[Feature, ...], list[tuple[tuple[int, ...], int]]]:
    """Counts, retained features and the (active feature ids, member)
    training stream of one confusion set, from its training occurrences.
    Equal to ``collect_stats``, then ``prune``, then ``extract_active`` over
    the occurrences with the retained features' ids, but each occurrence's
    features are generated once."""
    stats, generated = _count_features(occurrences, confusion_set, params, tagdict)
    retained, feature_ids = index_features(prune(stats, mode))
    stream = [(_active_ids(features, feature_ids), member) for features, member in generated]
    return stats, retained, stream


def parse_assignments(values: Sequence[str], names: Sequence[str]) -> list[str]:
    """The values of the fields ``name=value`` for ``names``, in order."""
    if len(values) != len(names) or not all(
        v.startswith(name + "=") for v, name in zip(values, names)
    ):
        expected = " ".join(f"{name}=..." for name in names)
        raise ValueError(f"expected {expected}, got {' '.join(values)!r}")
    return [v[len(name) + 1 :] for v, name in zip(values, names)]


def parse_model_head(
    lines: Sequence[str], names: Sequence[str]
) -> tuple[dict[str, list[str]], ConfusionSet, ExtractionParams]:
    """The values of each model file header line ``name<TAB>value...`` by
    name (exactly ``names``, any order), and the ``members`` and ``extraction``
    every model format declares. ValueError for anything else."""
    fields: dict[str, list[str]] = {}
    for line in lines[: len(names)]:
        name, *values = line.split("\t")
        if name not in names or name in fields or not values:
            raise ValueError(f"malformed model file header line: {line!r}")
        fields[name] = values
    if len(fields) != len(names):
        raise ValueError("truncated model file header")
    try:
        confusion_set = confusion_set_from_text(", ".join(fields["members"]))
        k, l = (int(v) for v in parse_assignments(fields["extraction"], ("k", "l")))
        return fields, confusion_set, ExtractionParams(k, l)
    except ValueError as exc:
        raise ValueError(f"malformed model file header: {exc}") from exc
