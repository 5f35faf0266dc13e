import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winspell.corpus import (
    ConfusionSet,
    CorpusError,
    TagDictionary,
    confusion_set_from_text,
    corrupt,
    find_occurrences,
    load_confusion_sets,
    load_corpus,
    load_tag_dictionary,
    occurrences_by_set,
    restore,
    sentence_from_surfaces,
    tokenize,
)

from helpers import corpus_of


class TestTokenize:
    def test_empty_input(self):
        assert len(tokenize("")) == 0
        assert len(tokenize("   ")) == 0

    def test_punctuation_split_off(self):
        sent = tokenize("John had a peace of cake.")
        assert sent.surfaces == ("john", "had", "a", "peace", "of", "cake", ".")

    def test_contractions_stay_whole(self):
        sent = tokenize("I don't know whether to laugh or cry")
        assert len(sent) == 8
        assert sent.surfaces[1] == "don't"

    def test_its_apostrophe_forms(self):
        assert tokenize("it's its").surfaces == ("it's", "its")

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_own_output(self, text):
        once = tokenize(text).surfaces
        again = tokenize(" ".join(once)).surfaces
        assert again == once


class TestLoadCorpus:
    def test_presplit(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("One sentence.\nTwo sentence.\nthree\n")
        sentences = load_corpus(path)
        assert len(sentences) == 3
        assert sentences[1].source_line == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("")
        assert load_corpus(path) == []

    def test_invalid_utf8_reports_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"good line\nbad \xff line\n")
        with pytest.raises(CorpusError, match="line 2"):
            load_corpus(path)


class TestConfusionSets:
    def test_parse_multi_token_members(self):
        cset = confusion_set_from_text("maybe, may be")
        assert cset.members == (("maybe",), ("may", "be"))
        assert cset.member_text(1) == "may be"

    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            ConfusionSet((("hear",),))

    def test_distinct_members(self):
        with pytest.raises(ValueError):
            ConfusionSet((("hear",), ("hear",)))

    def test_load_with_comments(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("# homophones\npeace, piece\n\nmaybe, may be\n")
        sets = load_confusion_sets(path)
        assert [cs.label for cs in sets] == ["peace, piece", "maybe, may be"]

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"], ids=["empty", "comment-only"])
    def test_file_without_sets_refused(self, tmp_path, text):
        path = tmp_path / "sets.txt"
        path.write_text(text)
        with pytest.raises(CorpusError, match="no confusion sets"):
            load_confusion_sets(path)

    @pytest.mark.parametrize("repeat", ["peace, piece", "piece ,peace"], ids=["same-order", "reordered"])
    def test_repeated_set_refused(self, tmp_path, repeat):
        path = tmp_path / "sets.txt"
        path.write_text(f"peace, piece\nmaybe, may be\n# again\n{repeat}\n")
        with pytest.raises(CorpusError) as exc:
            load_confusion_sets(path)
        label = ", ".join(part.strip() for part in repeat.split(","))
        assert str(exc.value) == f"{path}: line 4: confusion set {{{label}}} repeats line 1"

    def test_overlapping_sets_are_distinct(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("peace, piece\npeace, piece, pieces\n")
        assert len(load_confusion_sets(path)) == 2


class TestTagDictionary:
    def test_lookup_known(self, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text("to\tPREP,TO\ncake\tNOUN_sing\n")
        tagdict = load_tag_dictionary(path)
        assert tagdict.lookup("to") == {"PREP", "TO"}
        assert tagdict.lookup("cake") == {"NOUN_sing"}

    def test_lookup_unknown_falls_back(self):
        assert TagDictionary().lookup("zzxq") == {"UNK"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text("to PREP\n")
        with pytest.raises(CorpusError, match="line 1"):
            load_tag_dictionary(path)

    def test_whitespace_in_tag_rejected(self, tmp_path):
        # A tag lands in collocation keys, which split on spaces; any other
        # character, as in NOUN_sing or PRP$, reads back.
        path = tmp_path / "tags.tsv"
        path.write_text("to\tPREP, TO\nhis\tPRP$\nof\tPR EP\n")
        with pytest.raises(CorpusError, match="line 3: malformed tag entry: .*whitespace"):
            load_tag_dictionary(path)
        path.write_text("to\tPREP, TO\nhis\tPRP$\n")
        assert load_tag_dictionary(path).lookup("his") == {"PRP$"}

    def test_repeated_word_refused(self, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text("to\tPREP\ncake\tNOUN_sing\n\nto\tTO\n")
        with pytest.raises(CorpusError) as exc:
            load_tag_dictionary(path)
        assert str(exc.value) == f"{path}: line 4: tag entry 'to' first listed on line 1"

    def test_empty_tagset_rejected(self):
        with pytest.raises(ValueError):
            TagDictionary({"to": frozenset()})


class TestFindOccurrences:
    def test_single_member(self):
        cset = confusion_set_from_text("hear, here")
        sent = sentence_from_surfaces(["i", "hear", "you"])
        occs = find_occurrences([sent], cset)
        assert len(occs) == 1
        assert (occs[0].span_start, occs[0].span_len, occs[0].member_index) == (1, 1, 0)

    def test_longest_member_preferred(self):
        cset = confusion_set_from_text("maybe, may be")
        sent = sentence_from_surfaces(["maybe", "it", "may", "be", "so"])
        occs = find_occurrences([sent], cset)
        assert [(o.span_start, o.span_len, o.member_index) for o in occs] == [
            (0, 1, 0),
            (2, 2, 1),
        ]

    def test_no_members(self):
        cset = confusion_set_from_text("hear, here")
        assert find_occurrences(corpus_of("nothing matches"), cset) == []

    @given(st.lists(st.sampled_from(["may", "be", "maybe", "x", "y"]), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_spans_non_overlapping_and_sorted(self, tokens):
        cset = confusion_set_from_text("maybe, may be")
        occs = find_occurrences([sentence_from_surfaces(tokens)], cset)
        previous_end = 0
        for occ in occs:
            assert occ.span_start >= previous_end
            previous_end = occ.span_start + occ.span_len
            member = cset.members[occ.member_index]
            assert tuple(tokens[occ.span_start : previous_end]) == member


def reference_matches(tokens, cset):
    """Brute-force scan: at each position try every member, longest first
    (ties in member order); on a match take it and jump past it."""
    by_length = sorted(range(len(cset.members)), key=lambda i: -len(cset.members[i]))
    out = []
    i = 0
    while i < len(tokens):
        for mi in by_length:
            member = cset.members[mi]
            if tuple(tokens[i : i + len(member)]) == member:
                out.append((i, len(member), mi))
                i += len(member)
                break
        else:
            i += 1
    return out


SHARED_FIRST_TOKEN_SETS = ("may, may be", "may be, may", "may, may be, may not be")


class TestSharedFirstToken:
    """Members that start with the same token: the longest must win."""

    def test_longest_member_with_shared_first_token(self):
        cset = confusion_set_from_text("may, may be")
        sent = sentence_from_surfaces(["may", "be", "may", "it", "may"])
        occs = find_occurrences([sent], cset)
        assert [(o.span_start, o.span_len, o.member_index) for o in occs] == [
            (0, 2, 1),
            (2, 1, 0),
            (4, 1, 0),
        ]

    @given(
        st.sampled_from(SHARED_FIRST_TOKEN_SETS),
        st.lists(
            st.lists(st.sampled_from(["may", "be", "not", "maybe", "x"]), max_size=10),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_reference(self, set_text, token_lists):
        cset = confusion_set_from_text(set_text)
        corpus = [sentence_from_surfaces(tokens) for tokens in token_lists]
        got = [
            (id(o.sentence), o.span_start, o.span_len, o.member_index)
            for o in find_occurrences(corpus, cset)
        ]
        want = [
            (id(sent), *match)
            for sent in corpus
            for match in reference_matches(sent.surfaces, cset)
        ]
        assert got == want

    @given(st.integers(0, 2**32), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_corrupt_restore_round_trip(self, seed, pct):
        rng = random.Random(seed)
        cset = confusion_set_from_text("may, may be")
        corpus = [
            sentence_from_surfaces(rng.choices(["may", "be", "it", "x"], k=rng.randint(0, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        corrupted, log = corrupt(corpus, cset, pct, seed)
        assert restore(corrupted, cset, log) == corpus


# Sets that share first tokens (may, be, maybe) and members (may be) with
# one another.
OVERLAPPING_SET_POOL = (
    "may, may be",
    "be, bee",
    "maybe, may be",
    "may be, may",
    "may, may be, may not be",
    "bee, be, b",
    "not, knot",
)


class TestOccurrencesBySet:
    """One scan for many sets gives each set exactly its own scan."""

    def test_overlapping_sets_scan_independently(self):
        sets = [confusion_set_from_text(t) for t in ("may, may be", "be, bee", "maybe, may be")]
        sent = sentence_from_surfaces(["may", "be", "maybe", "bee", "may"])
        got = [
            [(o.span_start, o.span_len, o.member_index) for o in occs]
            for occs in occurrences_by_set([sent], sets)
        ]
        assert got == [
            [(0, 2, 1), (4, 1, 0)],
            [(1, 1, 0), (3, 1, 1)],
            [(0, 2, 1), (2, 1, 0)],
        ]

    @given(
        st.lists(st.sampled_from(OVERLAPPING_SET_POOL), min_size=1, max_size=5),
        st.lists(
            st.lists(st.sampled_from(["may", "be", "bee", "b", "not", "knot", "maybe", "x"]),
                     max_size=10),
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_reference_per_set(self, set_texts, token_lists):
        sets = [confusion_set_from_text(text) for text in set_texts]
        corpus = [sentence_from_surfaces(tokens) for tokens in token_lists]
        got = occurrences_by_set(corpus, sets)
        assert len(got) == len(sets)
        for cset, occurrences in zip(sets, got):
            assert [
                (id(o.sentence), o.span_start, o.span_len, o.member_index)
                for o in occurrences
            ] == [
                (id(sent), *match)
                for sent in corpus
                for match in reference_matches(sent.surfaces, cset)
            ]
            assert occurrences == find_occurrences(corpus, cset)


class TestCorrupt:
    def setup_method(self):
        self.cset = confusion_set_from_text("hear, here")
        self.corpus = corpus_of(
            "i hear you", "come here now", "you hear it here", "no match at all"
        )

    def test_p_zero_is_identity(self):
        corrupted, log = corrupt(self.corpus, self.cset, 0, seed=1)
        assert corrupted == self.corpus
        assert log == []

    def test_p_hundred_two_members_flips_all(self):
        corrupted, log = corrupt(self.corpus, self.cset, 100, seed=1)
        occs = find_occurrences(self.corpus, self.cset)
        assert len(log) == len(occs) == 4
        flipped = find_occurrences(corrupted, self.cset)
        for before, after in zip(occs, flipped):
            assert after.member_index == 1 - before.member_index

    def test_same_seed_bit_identical(self):
        first = corrupt(self.corpus, self.cset, 40, seed=7)
        second = corrupt(self.corpus, self.cset, 40, seed=7)
        assert first == second

    def test_change_count_in_binomial_interval(self):
        # Central 99.9% interval for Binomial(1000, 0.05), from the
        # scipy.stats.binom.ppf oracle at 0.0005 and 0.9995: [29, 74].
        corpus = corpus_of(*(["you hear it"] * 1000))
        _, log = corrupt(corpus, self.cset, 5, seed=0)
        assert 29 <= len(log) <= 74

    def test_restore_round_trip(self):
        corrupted, log = corrupt(self.corpus, self.cset, 100, seed=3)
        assert restore(corrupted, self.cset, log) == self.corpus

    def test_restore_multi_token_length_change(self):
        cset = confusion_set_from_text("maybe, may be")
        corpus = corpus_of("maybe it may be so maybe", "may be may be")
        corrupted, log = corrupt(corpus, cset, 100, seed=5)
        assert corrupted != corpus
        assert restore(corrupted, cset, log) == corpus

    @given(st.integers(0, 2**32), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_restore_inverts_corrupt(self, seed, pct):
        rng = random.Random(seed)
        words = ["maybe", "may", "be", "it", "so", "x"]
        corpus = [
            sentence_from_surfaces(rng.choices(words, k=rng.randint(0, 8)))
            for _ in range(rng.randint(1, 6))
        ]
        cset = confusion_set_from_text("maybe, may be")
        corrupted, log = corrupt(corpus, cset, pct, seed)
        assert restore(corrupted, cset, log) == corpus

    def test_pct_out_of_range(self):
        with pytest.raises(ValueError):
            corrupt(self.corpus, self.cset, 101, seed=0)
