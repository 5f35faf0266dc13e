"""Corpus handling: tokenization, confusion sets, tag dictionaries, and
seeded corruption of confusion-set occurrences."""

from __future__ import annotations

import random
import re
import sys
from collections import namedtuple
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

UNKNOWN_TAG = "UNK"
_UNKNOWN_TAGS = (UNKNOWN_TAG,)

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


def tokenize(text: str, source_line: int = 0) -> Sentence:
    """Lowercase ``text`` and split it into tokens.

    Punctuation marks become standalone tokens; internal apostrophes are kept
    so contractions ("don't", "it's") remain single tokens. Empty or
    whitespace-only input yields an empty sentence. Tokens are interned, so
    a corpus holds one string per distinct word however often it occurs.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    return Sentence(tuple(map(sys.intern, tokens)), source_line)


def sentences_of(text: str) -> list[Sentence]:
    """Each non-blank line of a presplit text tokenized as by :func:`tokenize`,
    with its line number. The text is lowercased once and each distinct
    whitespace chunk tokenized once, which gives the same tokens: ``\\s`` and
    ``str.split`` share one whitespace test, so no token spans two chunks, and
    a chunk that ``str.isalnum`` accepts holds only characters ``\\w``
    matches, so it is one token."""
    tokens_of: dict[str, tuple[str, ...]] = {}
    sentences = []
    for lineno, line in enumerate(text.lower().splitlines(), start=1):
        surfaces: list[str] = []
        for chunk in line.split():
            tokens = tokens_of.get(chunk)
            if tokens is None:
                found = [chunk] if chunk.isalnum() else _TOKEN_RE.findall(chunk)
                tokens = tokens_of[chunk] = tuple(map(sys.intern, found))
            surfaces += tokens
        if surfaces:
            sentences.append(Sentence(tuple(surfaces), lineno))
    return sentences


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
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
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


def entry_tags(tags: Iterable[str]) -> tuple[str, ...]:
    """A word's tags as a tag dictionary keeps them: stripped, empties
    dropped, distinct and sorted. ValueError if none is left, or if a tag
    holds whitespace: tags are written into feature keys, which split on it."""
    kept = tuple(sorted({t.strip() for t in tags if t.strip()}))
    if not kept:
        raise ValueError("entry has no tags")
    for tag in kept:
        if len(tag.split()) > 1:  # a stripped tag splits only at inner whitespace
            raise ValueError(f"tag {tag!r} contains whitespace")
    return kept


def entry_word(word: str) -> str:
    """``word``, if a token can equal it. ValueError if it is empty, not
    lowercase or holds whitespace: tokens are none of these."""
    if word.split() != [word.lower()]:
        raise ValueError(f"word {word!r} is empty, not lowercase or holds whitespace")
    return word


class TagDictionary:
    """Map from word surface (:func:`entry_word`) to its part-of-speech tags,
    a sorted tuple by :func:`entry_tags`. Unknown words share one (UNK,).
    """

    def __init__(self, entries: Mapping[str, Iterable[str]] | None = None):
        self._entries = {entry_word(w): entry_tags(tags) for w, tags in (entries or {}).items()}

    def lookup(self, word: str) -> tuple[str, ...]:
        return self._entries.get(word, _UNKNOWN_TAGS)


def load_tag_dictionary(path: str | Path) -> TagDictionary:
    """One entry per line: ``word<TAB>tag1,tag2,...``. A word on two lines is
    refused. Blank lines and lines starting with ``#`` are skipped, so no
    entry can give tags to a word that starts with ``#``, the token ``#`` too."""
    tagdict = TagDictionary()
    # Filled in place: each tag tuple is built once, as its line is checked.
    entries = tagdict._entries
    first_line: dict[str, int] = {}
    checked: dict[str, tuple[str, ...]] = {}  # each distinct tag text checked once
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError("expected word<TAB>tags")
            word, text = fields
            word, tags = entry_word(word), checked.get(text)
            if tags is None:
                tags = checked[text] = entry_tags(text.split(","))
        except ValueError as exc:
            raise CorpusError(f"{path}: line {lineno}: malformed tag entry: {exc}") from exc
        if word in first_line:
            raise CorpusError(
                f"{path}: line {lineno}: tag entry {word!r} first listed on line {first_line[word]}"
            )
        first_line[word] = lineno
        entries[word] = tags
    return tagdict


def read_text(path: str | Path, data: bytes | None = None) -> str:
    """The UTF-8 text of the file at ``path``, or of ``data`` if given (then
    ``path`` only names the source). CorpusError naming ``path`` and the
    line of the first invalid byte, counted as ``str.splitlines`` counts."""
    if data is None:
        data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "_").splitlines())
        raise CorpusError(f"{path}: invalid UTF-8 on line {lineno}") from exc


def load_corpus(path: str | Path) -> list[Sentence]:
    """Load a presplit plain-text corpus: each non-blank line is one sentence."""
    return sentences_of(read_text(path))


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
        corrupted.append(Sentence(tuple(new_surfaces), sent.source_line))
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
        result[entry.sentence_index] = Sentence(tuple(surfaces), sent.source_line)
    return result
