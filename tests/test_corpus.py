import random
import re
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winspell.corpus import (
    Sentence,
    TagDictionary,
    confusion_set_from_text,
    corrupt,
    find_occurrences,
    load_confusion_sets,
    load_corpus,
    load_tag_dictionary,
    occurrences_by_set,
    restore,
    sentences_of,
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


# What a reader's text is drawn from: word characters (ASCII, Arabic-Indic
# digits, sigmas whose lowercase depends on their neighbours, and İ, whose
# lowercase is two characters), apostrophes, punctuation and a combining dot;
# then whitespace that is not a line break, and every line boundary of
# str.splitlines.
READER_CHARACTERS = [*string.ascii_letters, *string.digits, *"٠١٢٣٤٥٦٧٨٩", *"Σσςİ",
                     "_", "'", "’", "\u0307", *string.punctuation]
READER_SPACES = [" ", "\t", "\u00a0", "\u3000", "\n", "\r", "\r\n", "\v", "\f", "\x1c",
                 "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestSentencesOf:
    @given(st.lists(st.one_of(st.sampled_from(READER_CHARACTERS),
                              st.sampled_from(READER_SPACES)), max_size=60).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_tokenizes_each_line_as_tokenize_does(self, text):
        expected = [tokenize(line, i) for i, line in enumerate(text.splitlines(), 1)
                    if line.strip()]
        assert sentences_of(text) == expected

    def test_blank_lines_keep_the_numbering(self):
        sentences = sentences_of("Peace, piece.\n\n \t\r\nA PIECE of it's cake\n")
        assert sentences == [Sentence(("peace", ",", "piece", "."), 1),
                             Sentence(("a", "piece", "of", "it's", "cake"), 4)]


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


class TestConfusionSets:
    def test_parse_multi_token_members(self):
        cset = confusion_set_from_text("maybe, may be")
        assert cset.members == (("maybe",), ("may", "be"))
        assert cset.member_text(1) == "may be"

    def test_load_with_comments(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("# homophones\npeace, piece\n\nmaybe, may be\n")
        sets = load_confusion_sets(path)
        assert [cs.label for cs in sets] == ["peace, piece", "maybe, may be"]

    def test_overlapping_sets_are_distinct(self, tmp_path):
        path = tmp_path / "sets.txt"
        path.write_text("peace, piece\npeace, piece, pieces\n")
        assert len(load_confusion_sets(path)) == 2


class TestTagDictionary:
    def test_lookup_known(self, tmp_path):
        # A tag lands in collocation keys, which split on spaces; any other
        # character, as in NOUN_sing or PRP$, reads back.
        path = tmp_path / "tags.tsv"
        path.write_text("to\tPREP,TO\ncake\tNOUN_sing\nhis\tPRP$\n")
        tagdict = load_tag_dictionary(path)
        assert tagdict.lookup("to") == ("PREP", "TO")
        assert tagdict.lookup("cake") == ("NOUN_sing",)
        assert tagdict.lookup("his") == ("PRP$",)
        assert TagDictionary({"to": ["TO", "PREP", "TO"]}).lookup("to") == ("PREP", "TO")

    def test_lookup_unknown_falls_back(self):
        assert TagDictionary().lookup("zzxq") == ("UNK",)

    def test_tag_list_on_many_lines_kept_for_each_word(self, tmp_path):
        path = tmp_path / "tags.tsv"
        path.write_text("to\tTO,PREP\nof\tTO,PREP\ncake\tNOUN\nin\t PREP,TO\n")
        tagdict = load_tag_dictionary(path)
        assert [tagdict.lookup(w) for w in ("to", "of", "cake", "in")] == \
            [("PREP", "TO"), ("PREP", "TO"), ("NOUN",), ("PREP", "TO")]

    def test_comment_lines_skipped(self, tmp_path):
        # A line starting with "#" is a comment, an entry for the token "#"
        # among them: that token keeps the unknown-word tags.
        path = tmp_path / "tags.tsv"
        path.write_text("# word<TAB>tags\n#\tSYM\n#tag\tNOUN\nto\tTO\n")
        tagdict = load_tag_dictionary(path)
        assert tagdict._entries == {"to": ("TO",)}
        assert tagdict.lookup("#") == ("UNK",)

    def test_empty_tagset_rejected(self):
        with pytest.raises(ValueError):
            TagDictionary({"to": frozenset()})

    def test_constructor_keeps_the_loaders_tag_rule(self, tmp_path):
        # Stripped, empties dropped, distinct and sorted, as a loaded line.
        path = tmp_path / "tags.tsv"
        path.write_text("to\t TO,PREP,, TO \n")
        entries = {"to": [" TO", "PREP", "", "TO "]}
        assert TagDictionary(entries).lookup("to") == load_tag_dictionary(path).lookup("to")
        assert TagDictionary(entries).lookup("to") == ("PREP", "TO")
        # Feature keys split on whitespace, so a tag holding it is refused.
        with pytest.raises(ValueError, match="^tag 'PREP X' contains whitespace$"):
            TagDictionary({"of": ["PREP X"]})
        with pytest.raises(ValueError, match="^entry has no tags$"):
            TagDictionary({"of": [" ", ""]})

    @pytest.mark.parametrize("word", ["Of", " of", "", "a b"])
    def test_word_no_token_can_equal_refused_by_constructor(self, word):
        with pytest.raises(ValueError, match=(
            f"^word {re.escape(repr(word))} is empty, not lowercase or holds whitespace$"
        )):
            TagDictionary({"to": ["TO"], word: ["PREP"]})
        assert TagDictionary({"to": ["TO"], "of": ["PREP"]}).lookup("of") == ("PREP",)


class TestFindOccurrences:
    def test_single_member(self):
        cset = confusion_set_from_text("hear, here")
        sent = Sentence(("i", "hear", "you"))
        occs = find_occurrences([sent], cset)
        assert len(occs) == 1
        assert (occs[0].span_start, occs[0].span_len, occs[0].member_index) == (1, 1, 0)

    def test_longest_member_preferred(self):
        cset = confusion_set_from_text("maybe, may be")
        sent = Sentence(("maybe", "it", "may", "be", "so"))
        occs = find_occurrences([sent], cset)
        assert [(o.span_start, o.span_len, o.member_index) for o in occs] == [
            (0, 1, 0),
            (2, 2, 1),
        ]

    def test_no_members(self):
        cset = confusion_set_from_text("hear, here")
        assert find_occurrences(corpus_of("nothing matches"), cset) == []


def reference_matches(tokens, cset):
    """Brute-force scan: at each position try every member, longest first
    (ties in member order); on a match take it and jump past it. So its spans
    are sorted, do not overlap, and each holds its member's tokens."""
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


class TestSharedFirstToken:
    """Members that start with the same token: the longest must win."""

    def test_longest_member_with_shared_first_token(self):
        cset = confusion_set_from_text("may, may be")
        sent = Sentence(("may", "be", "may", "it", "may"))
        occs = find_occurrences([sent], cset)
        assert [(o.span_start, o.span_len, o.member_index) for o in occs] == [
            (0, 2, 1),
            (2, 1, 0),
            (4, 1, 0),
        ]


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
# Their tokens, and one token of none of them.
OVERLAPPING_WORDS = ("may", "be", "bee", "b", "not", "knot", "maybe", "x")


class TestOccurrencesBySet:
    """One scan for many sets gives each set exactly its own scan."""

    def test_overlapping_sets_scan_independently(self):
        sets = [confusion_set_from_text(t) for t in ("may, may be", "be, bee", "maybe, may be")]
        sent = Sentence(("may", "be", "maybe", "bee", "may"))
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
        st.lists(st.lists(st.sampled_from(OVERLAPPING_WORDS), max_size=10), max_size=4),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_reference_per_set(self, set_texts, token_lists):
        sets = [confusion_set_from_text(text) for text in set_texts]
        corpus = [Sentence(tuple(tokens)) for tokens in token_lists]
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

    def test_restore_multi_token_length_change(self):
        cset = confusion_set_from_text("maybe, may be")
        corpus = corpus_of("maybe it may be so maybe", "may be may be")
        corrupted, log = corrupt(corpus, cset, 100, seed=5)
        assert corrupted != corpus
        assert restore(corrupted, cset, log) == corpus

    @given(st.sampled_from(OVERLAPPING_SET_POOL), st.integers(0, 2**32), st.integers(0, 100))
    @settings(max_examples=200, deadline=None)
    def test_restore_inverts_corrupt(self, set_text, seed, pct):
        rng = random.Random(seed)
        corpus = [
            Sentence(tuple(rng.choices(OVERLAPPING_WORDS, k=rng.randint(0, 8))))
            for _ in range(rng.randint(1, 6))
        ]
        cset = confusion_set_from_text(set_text)
        corrupted, log = corrupt(corpus, cset, pct, seed)
        assert restore(corrupted, cset, log) == corpus

    def test_restore_refuses_a_log_of_another_corpus(self):
        corrupted, log = corrupt(self.corpus, self.cset, 100, seed=3)
        assert log[0].sentence_index == 0 and log[0].span_start == 1
        with pytest.raises(ValueError,
                           match="^change log does not match corpus at sentence 0, token 1$"):
            restore(self.corpus, self.cset, log[:1])

    def test_pct_out_of_range(self):
        with pytest.raises(ValueError):
            corrupt(self.corpus, self.cset, 101, seed=0)
