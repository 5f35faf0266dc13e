"""Corpus handling: tokenization, confusion sets, tag dictionaries, and
seeded corruption of confusion-set occurrences."""

from __future__ import annotations

import random
import re
import sys
from collections import namedtuple
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

UNKNOWN_TAG = "UNK"

# Words (with internal apostrophes, so contractions stay whole) or single
# non-space punctuation characters.
_TOKEN_RE = re.compile(r"\w+(?:['’]\w+)*|[^\w\s]")


class CorpusError(Exception):
    """Raised for unreadable or malformed corpus inputs."""


class Sentence(NamedTuple):
    surfaces: tuple[str, ...]
    source_line: int = 0

    def __len__(self) -> int:
        # The number of tokens, not of fields.
        return len(self.surfaces)


def sentence_from_surfaces(surfaces: Iterable[str], source_line: int = 0) -> Sentence:
    return Sentence(tuple(surfaces), source_line)


def tokenize(text: str, source_line: int = 0) -> Sentence:
    """Lowercase ``text`` and split it into tokens.

    Punctuation marks become standalone tokens; internal apostrophes are kept
    so contractions ("don't", "it's") remain single tokens. Empty or
    whitespace-only input yields an empty sentence. Tokens are interned, so
    a corpus holds one string per distinct word however often it occurs.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return sentence_from_surfaces(map(sys.intern, tokens), source_line)


class ConfusionSet(namedtuple("ConfusionSet", "members")):
    """An ordered set of mutually confusable word forms.

    Each member is a tuple of one or more tokens ("may be" is two tokens).
    """

    __slots__ = ()

    def __new__(cls, members: tuple[tuple[str, ...], ...]):
        if len(members) < 2:
            raise ValueError("confusion set needs at least 2 members")
        if len(set(members)) != len(members):
            raise ValueError("confusion-set members must be distinct")
        for member in members:
            if not member or any(not tok for tok in member):
                raise ValueError("confusion-set members must be non-empty")
            if any(tok != tok.lower() for tok in member):
                raise ValueError("confusion-set members must be lowercase")
        return super().__new__(cls, members)

    def member_text(self, index: int) -> str:
        return " ".join(self.members[index])

    @property
    def label(self) -> str:
        return ", ".join(self.member_text(i) for i in range(len(self.members)))

    @property
    def slug(self) -> str:
        """Filesystem-safe identifier, e.g. "maybe+may-be"."""
        return "+".join("-".join(m) for m in self.members)


def confusion_set_from_text(line: str) -> ConfusionSet:
    """Parse a comma-separated member list, e.g. "maybe, may be"."""
    members = []
    for part in line.split(","):
        tokens = tokenize(part).surfaces
        if tokens:
            members.append(tokens)
    return ConfusionSet(tuple(members))


def load_confusion_sets(path: str | Path) -> list[ConfusionSet]:
    """One confusion set per line; '#' starts a comment line. A file with no
    sets, or with one set on two lines (in any member order), is refused."""
    sets = []
    first_line: dict[frozenset[tuple[str, ...]], int] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            cset = confusion_set_from_text(stripped)
        except ValueError as exc:
            raise CorpusError(f"{path}: line {lineno}: {exc}") from exc
        key = frozenset(cset.members)
        if key in first_line:
            raise CorpusError(
                f"{path}: line {lineno}: confusion set {{{cset.label}}} "
                f"repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        sets.append(cset)
    if not sets:
        raise CorpusError(f"{path}: no confusion sets")
    return sets


class TagDictionary:
    """Map from word surface to its set of part-of-speech tags.

    Unknown words fall back to the singleton {UNK}.
    """

    def __init__(self, entries: dict[str, frozenset[str]] | None = None):
        self._entries: dict[str, frozenset[str]] = {}
        for word, tags in (entries or {}).items():
            tagset = frozenset(tags)
            if not tagset:
                raise ValueError(f"tag dictionary entry for {word!r} has no tags")
            self._entries[word] = tagset

    def lookup(self, word: str) -> frozenset[str]:
        return self._entries.get(word, frozenset({UNKNOWN_TAG}))


def load_tag_dictionary(path: str | Path) -> TagDictionary:
    """One entry per line: ``word<TAB>tag1,tag2,...``. A word on two lines is
    refused."""
    entries: dict[str, frozenset[str]] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            word, tags = line.split("\t")
            tagset = frozenset(t.strip() for t in tags.split(",") if t.strip())
            if not tagset:
                raise ValueError("entry has no tags")
            # A tag is written into feature keys, which split on whitespace.
            for tag in sorted(tagset):
                if any(c.isspace() for c in tag):
                    raise ValueError(f"tag {tag!r} contains whitespace")
        except ValueError as exc:
            raise CorpusError(f"{path}: line {lineno}: malformed tag entry: {exc}") from exc
        if word in first_line:
            raise CorpusError(
                f"{path}: line {lineno}: tag entry {word!r} first listed on line {first_line[word]}"
            )
        first_line[word] = lineno
        entries[word] = tagset
    return TagDictionary(entries)


def _read_text(path: str | Path) -> str:
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data[: exc.start].count(b"\n") + 1
        raise CorpusError(f"{path}: invalid UTF-8 on line {lineno}") from exc


def load_corpus(path: str | Path) -> list[Sentence]:
    """Load a presplit plain-text corpus: each non-blank line is one sentence."""
    sentences = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if line.strip():
            sentences.append(tokenize(line, lineno))
    return sentences


class Occurrence(NamedTuple):
    sentence: Sentence
    span_start: int
    span_len: int
    member_index: int

    @property
    def span_end(self) -> int:
        return self.span_start + self.span_len


# First token -> (member, set index, member index) of every member that
# starts with it.
_MatchIndex = dict[str, list[tuple[tuple[str, ...], int, int]]]


def _match_index(confusion_sets: Sequence[ConfusionSet]) -> _MatchIndex:
    """One index over every set; within a set, longest member first, ties in
    member order."""
    index: _MatchIndex = {}
    for si, confusion_set in enumerate(confusion_sets):
        members = confusion_set.members
        for mi in sorted(range(len(members)), key=lambda i: -len(members[i])):
            index.setdefault(members[mi][0], []).append((members[mi], si, mi))
    return index


def _match_sentence(surfaces: tuple[str, ...], index: _MatchIndex):
    """Yield (start, length, set index, member index) for each set's maximal
    non-overlapping matches, left to right. Every set scans on its own: from
    the end of its last match, longest member preferred."""
    if index.keys().isdisjoint(surfaces):
        return
    ends: dict[int, int] = {}
    for i, token in enumerate(surfaces):
        for member, si, mi in index.get(token, ()):
            if ends.get(si, 0) <= i and surfaces[i : i + len(member)] == member:
                ends[si] = i + len(member)
                yield i, len(member), si, mi


def occurrences_by_set(
    sentences: Sequence[Sentence], confusion_sets: Sequence[ConfusionSet]
) -> list[list[Occurrence]]:
    """Each set's occurrences, in corpus order, from one scan of the corpus."""
    index = _match_index(confusion_sets)
    out: list[list[Occurrence]] = [[] for _ in confusion_sets]
    for sent in sentences:
        for start, length, si, mi in _match_sentence(sent.surfaces, index):
            out[si].append(Occurrence(sent, start, length, mi))
    return out


def find_occurrences(
    sentences: Sequence[Sentence], confusion_set: ConfusionSet
) -> list[Occurrence]:
    """All confusion-set occurrences, in corpus order."""
    return occurrences_by_set(sentences, [confusion_set])[0]


class CorruptionEntry(NamedTuple):
    """One flipped occurrence; span_start indexes into the corrupted corpus."""

    sentence_index: int
    span_start: int
    old_member: int
    new_member: int


def corrupt(
    sentences: Sequence[Sentence],
    confusion_set: ConfusionSet,
    pct: float,
    seed: int,
) -> tuple[list[Sentence], list[CorruptionEntry]]:
    """Flip a random ~pct% of occurrences to a different member.

    Each occurrence is selected independently with probability pct/100 by a
    PRNG seeded with ``seed``; a selected span is replaced by a uniformly
    random *other* member. Returns the corrupted sentences and a change log;
    ``restore`` applied to the log undoes the corruption exactly.
    """
    if not 0 <= pct <= 100:
        raise ValueError(f"corruption percentage out of range: {pct}")
    rng = random.Random(seed)
    probability = pct / 100.0
    index = _match_index([confusion_set])
    corrupted: list[Sentence] = []
    log: list[CorruptionEntry] = []
    for si, sent in enumerate(sentences):
        matches = list(_match_sentence(sent.surfaces, index))
        if not matches:
            corrupted.append(sent)
            continue
        new_surfaces: list[str] = []
        cursor = 0
        for start, length, _, mi in matches:
            new_surfaces.extend(sent.surfaces[cursor:start])
            if rng.random() < probability:
                other = rng.randrange(len(confusion_set.members) - 1)
                if other >= mi:
                    other += 1
                log.append(CorruptionEntry(si, len(new_surfaces), mi, other))
                new_surfaces.extend(confusion_set.members[other])
            else:
                new_surfaces.extend(confusion_set.members[mi])
            cursor = start + length
        new_surfaces.extend(sent.surfaces[cursor:])
        corrupted.append(sentence_from_surfaces(new_surfaces, sent.source_line))
    return corrupted, log


def restore(
    sentences: Sequence[Sentence],
    confusion_set: ConfusionSet,
    log: Sequence[CorruptionEntry],
) -> list[Sentence]:
    """Undo ``corrupt`` by re-applying the change log in reverse."""
    result = list(sentences)
    for entry in reversed(log):
        sent = result[entry.sentence_index]
        new_member = confusion_set.members[entry.new_member]
        old_member = confusion_set.members[entry.old_member]
        surfaces = list(sent.surfaces)
        span = tuple(surfaces[entry.span_start : entry.span_start + len(new_member)])
        if span != new_member:
            raise ValueError(
                f"change log does not match corpus at sentence "
                f"{entry.sentence_index}, token {entry.span_start}"
            )
        surfaces[entry.span_start : entry.span_start + len(new_member)] = old_member
        result[entry.sentence_index] = sentence_from_surfaces(surfaces, sent.source_line)
    return result
