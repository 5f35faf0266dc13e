"""Context-word and collocation features: generation, counting, chi-square
association, and pruning."""

from __future__ import annotations

import math
import warnings
from collections import namedtuple
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

    Field order defines the canonical total ordering, which numbers feature
    ids. The feature pass, the counts and every id lookup handle a feature
    by its canonical key string (:meth:`key`), whose hash Python caches;
    Feature tuples are built only for retained and loaded features.
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


def parse_feature_key(key: str) -> Feature:
    """Inverse of :meth:`Feature.key`: the feature whose canonical key is
    ``key``. ValueError for any other string; for one that spells a feature
    another way, the message gives the canonical key."""
    kind, space, body = key.partition(" ")
    if kind == CONTEXT_WORD and space:
        return Feature(CONTEXT_WORD, body)
    if kind != COLLOCATION or not space:
        raise ValueError(f"malformed feature key: {key!r}")
    parts = body.split(" ")
    offsets = []
    slots = []
    canonical = parts.count("_") == 1
    negatives = 0
    for part in parts:
        if part == "_":
            continue
        offset_text, _, slot = part.partition(":")
        slot_kind, equals, value = slot.partition("=")
        if slot_kind not in (WORD_SLOT, TAG_SLOT) or not equals:
            raise ValueError(f"malformed feature key: {key!r}")
        try:
            offset = int(offset_text)
        except ValueError:
            raise ValueError(f"malformed feature key: {key!r}") from None
        if offset < 0:
            negatives += 1
        if offset_text != f"{offset:+d}":
            canonical = False
        offsets.append(offset)
        slots.append((slot_kind, value))
    feature = Feature(COLLOCATION, "", tuple(offsets), tuple(slots))
    # The gap sits after the negative offsets, as key() puts it.
    if not canonical or parts.index("_") != negatives:
        raise ValueError(
            f"feature {key!r} is not in canonical form; expected {feature.key()!r}"
        )
    return feature


class FeatureIndex(dict):
    """Feature ids by canonical key (:meth:`Feature.key`), in id order, and
    ``features``, the Feature of each id.

    Ids number features in canonical order, that of the sorted Feature
    tuples: both learners, the training stream and the ``WINNOW v1`` weight
    rows number features by this one rule. Built from sorted (Feature, key)
    pairs.
    """

    __slots__ = ("features",)

    def __init__(self, pairs: Sequence[tuple[Feature, str]]):
        super().__init__(zip([key for _, key in pairs], range(len(pairs))))
        self.features = tuple([feature for feature, _ in pairs])


def index_features(keys: Iterable[str], first_line: int = 1) -> FeatureIndex:
    """The index of the features with these keys, each parsed once: the one
    rule that numbers trained and loaded lists alike. ValueError naming the
    line of the first key that is not canonical, the first being line
    ``first_line``. A repeated key keeps one id, leaving fewer than ``features``."""
    pairs = []
    for number, key in enumerate(keys, first_line):
        try:
            pairs.append((parse_feature_key(key), key))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return FeatureIndex(sorted(pairs))


class ExtractionParams(namedtuple("ExtractionParams", "k l")):
    """Window half-width k and maximum collocation length l."""

    __slots__ = ()

    def __new__(cls, k: int = 10, l: int = 2):
        if k < 1:
            raise ValueError("context window k must be >= 1")
        if l not in (1, 2):
            raise ValueError("collocation length l must be 1 or 2")
        return super().__new__(cls, k, l)


# The neighbouring slots (-2 and -1 before the span, +1 and +2 after it), each
# with the prefixes of its word part and its tag parts in collocation keys.
_SLOTS = tuple(
    (offset, f"{offset:+d}:{WORD_SLOT}=", f"{offset:+d}:{TAG_SLOT}=")
    for offset in (-2, -1, 1, 2)
)


def generate_features(
    occurrence: Occurrence,
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> set[str]:
    """The canonical keys (:meth:`Feature.key`) of all possible features for
    the context of one occurrence in its sentence.

    Context words: one feature per distinct token within k tokens left of the
    span or right of it (the span itself excluded), clipped at the sentence
    edges. Collocations: every in-bounds offset span of length at most l
    adjacent to or straddling the gap, with each slot realized as either the
    literal word or each tag in the word's tag set; offsets are measured from
    the span edges (-1 = token before the span, +1 = token after it).
    """
    surfaces = occurrence.sentence.surfaces
    start, end = occurrence.span_start, occurrence.span_end
    if not (0 <= start <= end <= len(surfaces)):
        raise ValueError("occurrence lies outside its sentence")
    window = {*surfaces[max(0, start - params.k) : start], *surfaces[end : end + params.k]}
    keys = {"CW " + word for word in window}
    # Each neighbouring slot's parts (the word, then each of its tags), made
    # once and joined into the key of every span through that slot. Slot -2
    # exists only if -1 does, and +2 only if +1 does.
    parts: dict[int, list[str]] = {}
    for offset, word_prefix, tag_prefix in _SLOTS:
        position = start + offset if offset < 0 else end + offset - 1
        if 0 <= position < len(surfaces):
            word = surfaces[position]
            parts[offset] = [word_prefix + word] + [tag_prefix + t for t in tagdict.lookup(word)]
    before, after = parts.get(-1, ()), parts.get(1, ())
    keys.update([f"COLL {p} _" for p in before])
    keys.update([f"COLL _ {p}" for p in after])
    if params.l == 2:
        keys.update([f"COLL {p} {q} _" for p in parts.get(-2, ()) for q in before])
        keys.update([f"COLL {p} _ {q}" for p in before for q in after])
        keys.update([f"COLL _ {p} {q}" for p in after for q in parts.get(2, ())])
    return keys


class FeatureStats:
    """Per-feature, per-member co-occurrence counts from a training corpus."""

    def __init__(self, confusion_set: ConfusionSet, params: ExtractionParams):
        self.confusion_set = confusion_set
        self.params = params
        self.counts: dict[str, list[int]] = {}  # by canonical key
        self.occurrences = [0] * len(confusion_set.members)


def count_features(
    occurrences: Sequence[Occurrence],
    confusion_set: ConfusionSet,
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> tuple[FeatureStats, list[tuple[set[str], int]]]:
    """One feature pass over a set's training occurrences: the counts, and
    each occurrence's (generated keys, member) pair, whose ``active_ids`` in
    an index are what ``extract_active`` gives the occurrence. Every system
    trains from this pass, so it warns of each member without occurrences."""
    require_occurrences(occurrences, confusion_set)
    stats = FeatureStats(confusion_set, params)
    counts, n_members = stats.counts, len(stats.occurrences)
    generated = []
    for occ in occurrences:
        keys, member = generate_features(occ, params, tagdict), occ.member_index
        stats.occurrences[member] += 1
        for key in keys:
            row = counts.get(key)
            if row is None:
                row = counts[key] = [0] * n_members
            row[member] += 1
        generated.append((keys, member))
    for i, n in enumerate(stats.occurrences):
        if n == 0:
            # The text names the set: the default filter shows one text from one line once.
            warnings.warn(f"confusion set {{{confusion_set.label}}}: no training occurrences"
                          f" of {confusion_set.member_text(i)!r}; its prior is 0", stacklevel=2)
    return stats, generated


def require_occurrences(occurrences: Sequence[Occurrence], confusion_set: ConfusionSet):
    """ValueError unless ``confusion_set`` has training ``occurrences``."""
    if not occurrences:
        raise ValueError(f"no occurrences of {{{confusion_set.label}}} in corpus; cannot train")


def collect_stats(
    corpus: Sequence[Sentence],
    confusion_set: ConfusionSet,
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> FeatureStats:
    """Accumulate feature statistics over every occurrence in the corpus."""
    occurrences = find_occurrences(corpus, confusion_set)
    return count_features(occurrences, confusion_set, params, tagdict)[0]


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


def chance_probabilities(row: Sequence[int], occurrences: Sequence[int]) -> list[float]:
    """Per member, the chi-square p of the 2x2 table feature present/absent
    x member/rest for a feature's count ``row``: the probability that the
    association is chance. Pruning and Bayes smoothing both read it."""
    present, n = sum(row), sum(occurrences)
    return [
        chi_square_2x2(a, present - a, occ - a, (n - occ) - (present - a))[1]
        for a, occ in zip(row, occurrences)
    ]


# Pruned mode: least count, least count of occurrences without the feature,
# and the significance level of its strongest member association.
MIN_OCCURRENCES = 10
MIN_NONOCCURRENCES = 10
ALPHA = 0.05


def prune(stats: FeatureStats, mode: str) -> FeatureIndex:
    """The retained features, indexed. Pruned mode drops rare,
    near-universal, and uncorrelated features; unpruned mode drops only
    singletons. Only the retained keys are parsed into Features."""
    if mode not in MODES:
        raise ValueError(f"unknown pruning mode: {mode!r}")
    retained = []
    n_total = sum(stats.occurrences)
    for key, row in stats.counts.items():
        total = sum(row)
        if mode == UNPRUNED:
            if total != 1:
                retained.append(key)
            continue
        if total < MIN_OCCURRENCES:
            continue
        if n_total - total < MIN_NONOCCURRENCES:
            continue
        if min(chance_probabilities(row, stats.occurrences)) < ALPHA:
            retained.append(key)
    return index_features(retained)


def extract_active(
    occurrence: Occurrence,
    feature_ids: Mapping[str, int],
    params: ExtractionParams,
    tagdict: TagDictionary,
) -> tuple[int, ...]:
    """Active features for one occurrence: the sorted ids of the generated
    features whose keys ``feature_ids`` holds."""
    return active_ids(generate_features(occurrence, params, tagdict), feature_ids)


def active_ids(generated: set[str], feature_ids: Mapping[str, int]) -> tuple[int, ...]:
    """The sorted ids of the ``generated`` keys that ``feature_ids`` holds."""
    return tuple(sorted([i for i in map(feature_ids.get, generated) if i is not None]))


def parse_assignments(values: Sequence[str], names: Sequence[str]) -> list[str]:
    """The values of the fields ``name=value`` for ``names``, in order."""
    if len(values) != len(names) or not all(
        v.startswith(name + "=") for v, name in zip(values, names)
    ):
        expected = " ".join(f"{name}=..." for name in names)
        raise ValueError(f"expected {expected}, got {' '.join(values)!r}")
    return [v[len(name) + 1 :] for v, name in zip(values, names)]


def model_head(header: str, confusion_set: ConfusionSet, params: ExtractionParams) -> list[str]:
    """The first lines of a model file: ``header``, then the ``members`` and
    ``extraction`` lines every model format declares, as
    :func:`parse_model_head` reads them."""
    members = "\t".join(map(confusion_set.member_text, range(len(confusion_set.members))))
    return [header, f"members\t{members}", f"extraction\tk={params.k}\tl={params.l}"]


def count_of(text: str, name: str) -> int:
    """The count ``text`` of field ``name``: ValueError unless a non-negative integer."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{name}={value} is negative")
    return value


def one_of(name: str, *choices: str) -> tuple:
    """The head field ``name`` and its reader: its values, the words of one of ``choices``."""
    def read(values: list[str], head: dict) -> str:
        if values not in [choice.split(" ") for choice in choices]:
            raise ValueError(f"{name} must be {' or '.join(choices)}")
        return " ".join(values)
    return name, read


def parse_model_head(text: str, header: str, fields: Sequence[tuple]) -> tuple[list[str], dict]:
    """The lines of a model file whose first line is ``header``, and the values
    by name of its head lines ``name<TAB>value...`` in the order saving writes
    them: ``members``, ``extraction``, the format's ``fields``, each with its
    reader of the values and the head read so far (None keeps the values), and
    the feature count. ValueError naming the line at fault, or for a cut text."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"line 1: not a {header} model file")
    if not text.endswith("\n"):
        raise ValueError(f"line {len(lines)}: model file truncated: no newline at its end")
    fields = (("members", lambda values, head: confusion_set_from_text(", ".join(values))),
              ("extraction", lambda values, head: ExtractionParams(
                  *map(int, parse_assignments(values, ("k", "l"))))),
              *fields, ("features", lambda values, head: count_of("\t".join(values), "features")))
    head: dict = {}
    for number, ((name, read), line) in enumerate(zip(fields, lines[1 : 1 + len(fields)]), 2):
        got, *values = line.split("\t")
        if got != name or not values:
            raise ValueError(f"line {number}: malformed model file header line: {line!r}")
        try:
            head[name] = read(values, head) if read else values
        except ValueError as exc:
            raise ValueError(f"line {number}: malformed model file header: {exc}") from None
    if len(head) != len(fields):
        raise ValueError(f"line {len(head) + 2}: truncated model file header")
    # Else the round trip would name the features line of a list cut short.
    if len(lines) < 1 + len(fields) + head["features"]:
        raise ValueError(f"line {len(lines) + 1}: model file truncated inside its feature list")
    return lines, head


def check_round_trip(text: str, saved: str):
    """A model file loads only if ``saved``, what saving its model writes, is
    its ``text``: ValueError naming the first line where they differ otherwise."""
    if saved != text:
        got, want = text.split("\n"), saved.split("\n")
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)) - 1)
        here = "the end of the file" if i == len(want) - 1 else repr(want[i])
        raise ValueError(f"line {i + 1}: model file truncated or damaged:"
                         f" saving it writes {here} here")
