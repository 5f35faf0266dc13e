import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winspell.bayes import train_bayes
from winspell.corpus import (
    Occurrence,
    Sentence,
    TagDictionary,
    confusion_set_from_text,
    find_occurrences,
)
from winspell.evaluation import TrainingSet
from winspell.features import (
    ALPHA,
    COLLOCATION,
    CONTEXT_WORD,
    PRUNED,
    UNPRUNED,
    ExtractionParams,
    MIN_NONOCCURRENCES,
    MIN_OCCURRENCES,
    FeatureStats,
    chance_probabilities,
    chi2_sf,
    chi_square_2x2,
    collect_stats,
    count_features,
    extract_active,
    generate_features,
    index_features,
    parse_feature_key,
    prune,
)
from winspell.winnow import WinnowNetwork

from helpers import (
    CHI2_ORACLE,
    EMPTY_TAGS,
    collocation,
    context_word,
    corpus_of,
    index_of,
    random_tiny_corpus,
    separable_corpus,
    small_disjunct_corpus,
    stats_from_counts,
    two_domain_pair,
)


def one_occurrence(text, cset):
    return find_occurrences(corpus_of(text), cset)[0]


def features_of(occurrence, params, tagdict):
    """The generated features of one occurrence, as Feature tuples."""
    return {parse_feature_key(key) for key in generate_features(occurrence, params, tagdict)}


class TestGenerateFeatures:
    def setup_method(self):
        self.cset = confusion_set_from_text("peace, piece")

    def test_clipping_at_sentence_start(self):
        occ = one_occurrence("peace of cake", self.cset)
        spans = {f.offsets for f in features_of(occ, ExtractionParams(), EMPTY_TAGS)
                 if f.kind == COLLOCATION}
        assert spans == {(1,), (1, 2)}

    def test_clipping_at_sentence_end(self):
        occ = one_occurrence("a fine peace", self.cset)
        spans = {f.offsets for f in features_of(occ, ExtractionParams(), EMPTY_TAGS)
                 if f.kind == COLLOCATION}
        assert spans == {(-1,), (-2, -1)}

    def test_to_verb_collocation(self):
        tags = TagDictionary({
            "to": frozenset({"PREP", "TO"}),
            "laugh": frozenset({"VERB"}),
        })
        cset = confusion_set_from_text("weather, whether")
        occ = one_occurrence("i don't know whether to laugh or cry", cset)
        feats = features_of(occ, ExtractionParams(), tags)
        assert collocation((1, 2), (("w", "to"), ("t", "VERB"))) in feats

    def test_context_word_hand_enumeration(self):
        occ = one_occurrence("john had a peace of cake .", self.cset)
        words = {f.word for f in features_of(occ, ExtractionParams(), EMPTY_TAGS)
                 if f.kind == CONTEXT_WORD}
        assert words == {"john", "had", "a", "of", "cake", "."}

    def test_window_half_width_respected(self):
        occ = one_occurrence("a b c d peace w x y z", self.cset)
        words = {f.word for f in features_of(occ, ExtractionParams(k=2), EMPTY_TAGS)
                 if f.kind == CONTEXT_WORD}
        assert words == {"c", "d", "w", "x"}

    def test_tag_slots_multiply(self):
        # 2-slot span with tag-set sizes 2 and 1 yields (1+2)*(1+1) features.
        tags = TagDictionary({"to": frozenset({"PREP", "TO"})})
        occ = one_occurrence("peace to cake", self.cset)
        feats = features_of(occ, ExtractionParams(), tags)
        plus12 = [f for f in feats if f.offsets == (1, 2)]
        assert len(plus12) == 6

    def test_multi_token_span_offsets(self):
        cset = confusion_set_from_text("maybe, may be")
        occ = one_occurrence("left may be right", cset)
        feats = features_of(occ, ExtractionParams(), EMPTY_TAGS)
        assert collocation((-1,), (("w", "left"),)) in feats
        assert collocation((1,), (("w", "right"),)) in feats
        words = {f.word for f in feats if f.kind == CONTEXT_WORD}
        assert words == {"left", "right"}

    def test_l1_only_single_slots(self):
        occ = one_occurrence("a peace b", self.cset)
        spans = {f.offsets for f in features_of(occ, ExtractionParams(l=1), EMPTY_TAGS)
                 if f.kind == COLLOCATION}
        assert spans == {(-1,), (1,)}

    def test_deterministic(self):
        occ = one_occurrence("john had a peace of cake .", self.cset)
        first = generate_features(occ, ExtractionParams(), EMPTY_TAGS)
        second = generate_features(occ, ExtractionParams(), EMPTY_TAGS)
        assert first == second

    @pytest.mark.parametrize("start,length", [(-1, 1), (3, 1), (2, 2)])
    def test_hand_built_occurrence_outside_sentence_rejected(self, start, length):
        sent = corpus_of("a peace b")[0]
        with pytest.raises(ValueError, match="outside its sentence"):
            generate_features(Occurrence(sent, start, length, 0), ExtractionParams(), EMPTY_TAGS)


def reference_generate_features(sentence, occurrence, params, tagdict):
    """The feature pass written out span by span: each span's slot choices
    built anew, every feature through ``context_word``/``collocation``."""
    surfaces = sentence.surfaces
    start, end = occurrence.span_start, occurrence.span_end
    features = set()
    for surface in surfaces[max(0, start - params.k) : start]:
        features.add(context_word(surface))
    for surface in surfaces[end : end + params.k]:
        features.add(context_word(surface))
    spans = [(-1,), (1,)] + ([(-2, -1), (-1, 1), (1, 2)] if params.l == 2 else [])
    for span in spans:
        positions = [start + off if off < 0 else end + off - 1 for off in span]
        if not all(0 <= p < len(surfaces) for p in positions):
            continue
        slot_choices = []
        for position in positions:
            word = surfaces[position]
            choices = [("w", word)]
            choices.extend(("t", tag) for tag in sorted(tagdict.lookup(word)))
            slot_choices.append(choices)
        for combo in product(*slot_choices):
            features.add(collocation(span, combo))
    return features


# Words with no entry (so the single tag UNK), one tag and two tags; a tag
# holding the key syntax's ":" and "=".
ORACLE_TAGS = TagDictionary({
    "to": frozenset({"PREP", "TO"}),
    "cake": frozenset({"NOUN"}),
    "may": frozenset({"MD"}),
    "be": frozenset({"VB", "AUX"}),
    ":": frozenset({"PUNCT"}),
    "n't": frozenset({"NEG", "A:B=C"}),
})

# Tokens of the key syntax (the gap mark "_", ":" and "=") and contractions
# among ordinary words and both members.
ORACLE_TOKENS = st.sampled_from(
    ["a", "to", "cake", "may", "be", "x", "maybe", "_", ":", "=", "n't", "don't", "'s"]
)

# Sentences around a one- or two-token member; either side may be empty, so
# the member often sits at a sentence edge.
ORACLE_SENTENCES = st.tuples(
    st.lists(ORACLE_TOKENS, max_size=4),
    st.sampled_from([["maybe"], ["may", "be"]]),
    st.lists(ORACLE_TOKENS, max_size=4),
).map(lambda parts: parts[0] + parts[1] + parts[2])


def check_generator_against_reference(sent, params):
    """The generated keys are the canonical keys of the reference features;
    each parses back to itself; ``index_features`` numbers them in sorted
    Feature order."""
    cset = confusion_set_from_text("maybe, may be")
    occurrences = find_occurrences([sent], cset)
    assert occurrences
    for occ in occurrences:
        reference = reference_generate_features(sent, occ, params, ORACLE_TAGS)
        got = generate_features(occ, params, ORACLE_TAGS)
        assert got == {f.key() for f in reference}
        assert all(parse_feature_key(key).key() == key for key in got)
        index = index_features(got)
        assert index.features == tuple(sorted(reference))
        assert [index[f.key()] for f in sorted(reference)] == list(range(len(reference)))


class TestGenerateFeaturesMatchesReference:
    @given(ORACLE_SENTENCES, st.integers(1, 3), st.sampled_from([1, 2]))
    @settings(max_examples=300, deadline=None)
    def test_same_set_as_reference(self, tokens, k, l):
        check_generator_against_reference(
            Sentence(tuple(tokens)), ExtractionParams(k=k, l=l)
        )

    @pytest.mark.parametrize("l", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("text", [
        "may be", "maybe", "may be to cake", "cake to maybe", "be may be x",
        "to cake maybe be may", "a maybe a", "_ may be :", "= maybe n't _",
    ])
    def test_sentence_edges_and_two_token_members(self, text, k, l):
        check_generator_against_reference(corpus_of(text)[0], ExtractionParams(k=k, l=l))


class TestFeatureKeys:
    def test_context_word_key(self):
        assert context_word("cloudy").key() == "CW cloudy"

    def test_collocation_key_gap_placement(self):
        f = collocation((-2, -1), (("w", "had"), ("t", "DET")))
        assert f.key() == "COLL -2:w=had -1:t=DET _"
        g = collocation((-1, 1), (("t", "DET"), ("t", "PREP")))
        assert g.key() == "COLL -1:t=DET _ +1:t=PREP"

    @given(st.sampled_from([
        context_word("a"), context_word("."),
        collocation((1,), (("w", "to"),)),
        collocation((1, 2), (("w", "to"), ("t", "VERB"))),
        collocation((-2, -1), (("t", "DET"), ("w", "x"))),
        collocation((-1, 1), (("w", "a"), ("w", "of"))),
    ]))
    def test_key_round_trip(self, feature):
        assert parse_feature_key(feature.key()) == feature

    @pytest.mark.parametrize("key", ["BIAS", "XX y", "COLL _ +1:q=a", "COLL x:w=a _", "COLL _ +1:w"])
    def test_malformed_key_rejected(self, key):
        with pytest.raises(ValueError, match="malformed feature key"):
            parse_feature_key(key)

    @pytest.mark.parametrize("line, canonical", [
        ("COLL _ -1:t=CC", "COLL -1:t=CC _"),
        ("COLL _ 1:w=of", "COLL _ +1:w=of"),
        ("COLL -2:w=a _ -1:w=b", "COLL -2:w=a -1:w=b _"),
        ("COLL +01:w=of _", "COLL _ +1:w=of"),
    ])
    def test_other_spelling_of_a_key_refused(self, line, canonical):
        with pytest.raises(ValueError) as excinfo:
            parse_feature_key(line)
        assert str(excinfo.value) == (
            f"feature {line!r} is not in canonical form; expected {canonical!r}"
        )
        assert parse_feature_key(canonical).key() == canonical

    @pytest.mark.parametrize("line, canonical", [
        ("COLL _ -1:t=CC", "COLL -1:t=CC _"),
        ("COLL _ 1:w=of", "COLL _ +1:w=of"),
    ])
    def test_model_line_other_than_canonical_key_refused(self, line, canonical):
        with pytest.raises(ValueError) as excinfo:
            index_features(["CW a", line], 12)
        assert str(excinfo.value) == (
            f"line 13: feature {line!r} is not in canonical form; expected {canonical!r}"
        )

    def test_model_line_malformed_key_names_line(self):
        with pytest.raises(ValueError, match=r"^line 9: malformed feature key: 'BIAS'$"):
            index_features(["BIAS"], 9)

    def test_keys_without_a_first_line_are_numbered_from_line_1(self):
        with pytest.raises(ValueError, match=r"^line 2: malformed feature key: 'BIAS'$"):
            index_features(["CW a", "BIAS"])

    def test_repeated_key_keeps_one_id(self):
        # A, B, A: sorted A, A, B; the index is one short of its features,
        # which a loader's round trip then refuses.
        index = index_features(["CW a", "CW b", "CW a"], 9)
        assert index.features == (context_word("a"), context_word("a"), context_word("b"))
        assert dict(index) == {"CW a": 1, "CW b": 2}

    def test_keys_indexed_in_canonical_order(self):
        keys = ["CW b", "COLL _ +1:w=x", "CW a", "COLL -1:w=x _"]
        index = index_features(keys)
        assert index.features == tuple(sorted(parse_feature_key(k) for k in keys))
        assert list(index) == [f.key() for f in index.features]
        assert list(index.values()) == [0, 1, 2, 3]

    def test_canonical_order_keys_are_sorted_and_parseable(self):
        feats = {context_word("b"), context_word("a"),
                 collocation((1,), (("w", "x"),))}
        lines = [f.key() for f in sorted(feats)]
        assert lines == sorted(lines)
        assert {parse_feature_key(line) for line in lines} == feats


class TestCollectStats:
    def setup_method(self):
        self.cset = confusion_set_from_text("peace, piece")
        self.params = ExtractionParams()

    # A member without occurrences is warned of, naming its set.
    WARNING = (r"^confusion set \{peace, piece\}: no training occurrences of 'piece';"
               " its prior is 0$")

    def test_single_occurrence_counts_one(self):
        corpus = corpus_of("a peace of cake")
        with pytest.warns(UserWarning, match=self.WARNING):
            stats = collect_stats(corpus, self.cset, self.params, EMPTY_TAGS)
        assert stats.occurrences == [1, 0]
        assert all(row == [1, 0] for row in stats.counts.values())

    def test_duplicated_corpus_doubles_counts(self):
        corpus = corpus_of("a peace of cake")
        with pytest.warns(UserWarning, match=self.WARNING):
            once = collect_stats(corpus, self.cset, self.params, EMPTY_TAGS)
            twice = collect_stats(corpus * 2, self.cset, self.params, EMPTY_TAGS)
        assert twice.occurrences == [2, 0]
        for f, row in once.counts.items():
            assert twice.counts[f] == [2 * c for c in row]

    def test_hand_tally(self):
        corpus = corpus_of(
            "a peace of cake",
            "a piece of cake",
            "big piece of pie",
            "peace talks",
            "peace of mind",
        )
        stats = collect_stats(corpus, self.cset, self.params, EMPTY_TAGS)
        assert stats.occurrences == [3, 2]
        assert stats.counts[context_word("of").key()] == [2, 2]
        assert stats.counts[context_word("a").key()] == [1, 1]
        assert stats.counts[context_word("cake").key()] == [1, 1]
        assert stats.counts[collocation((1,), (("w", "of"),)).key()] == [2, 2]
        assert stats.counts[context_word("talks").key()] == [1, 0]

    def test_zero_occurrences_error(self):
        with pytest.raises(ValueError, match="no occurrences"):
            collect_stats(corpus_of("nothing here"), self.cset, self.params, EMPTY_TAGS)

    def test_counts_bounded_by_member_occurrences(self):
        corpus = corpus_of(
            "a peace of cake", "a piece of cake", "peace of mind", "peace now"
        )
        stats = collect_stats(corpus, self.cset, self.params, EMPTY_TAGS)
        for row in stats.counts.values():
            for count, n in zip(row, stats.occurrences):
                assert 0 <= count <= n

    def test_order_independent(self):
        texts = ["a peace of cake", "a piece of cake", "peace of mind"]
        forward = collect_stats(corpus_of(*texts), self.cset, self.params, EMPTY_TAGS)
        backward = collect_stats(corpus_of(*texts[::-1]), self.cset, self.params, EMPTY_TAGS)
        assert forward.counts == backward.counts
        assert forward.occurrences == backward.occurrences


class TestChiSquare:
    @pytest.mark.parametrize("table,statistic,p_value", CHI2_ORACLE)
    def test_oracle_cases(self, table, statistic, p_value):
        got_stat, got_p = chi_square_2x2(*table)
        assert got_stat == pytest.approx(statistic, rel=1e-9)
        assert got_p == pytest.approx(p_value, rel=1e-6, abs=1e-12)

    def test_zero_marginal_is_independent(self):
        assert chi_square_2x2(0, 0, 5, 5) == (0.0, 1.0)

    def test_critical_value(self):
        assert chi2_sf(3.841) == pytest.approx(0.0500, abs=5e-4)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            chi_square_2x2(-1, 2, 3, 4)

    @given(st.tuples(*[st.integers(0, 500)] * 4))
    @settings(max_examples=200, deadline=None)
    def test_symmetric_under_row_and_column_swaps(self, table):
        a, b, c, d = table
        base = chi_square_2x2(a, b, c, d)
        assert chi_square_2x2(c, d, a, b) == base
        assert chi_square_2x2(b, a, d, c) == base


class TestPrune:
    def test_rare_feature_removed_in_pruned(self):
        stats = stats_from_counts({"rare": [9, 0], "ok": [400, 100]}, [500, 500])
        retained = prune(stats, PRUNED)
        assert context_word("rare") not in retained.features
        assert context_word("ok") in retained.features

    def test_near_universal_feature_removed(self):
        stats = stats_from_counts({"everywhere": [500, 495], "ok": [400, 100]}, [500, 500])
        retained = prune(stats, PRUNED)
        assert context_word("everywhere") not in retained.features

    def test_uncorrelated_feature_removed(self):
        # Table (20, 20, 80, 80) has chi-square p = 1.0.
        stats = stats_from_counts({"flat": [20, 20], "ok": [80, 10]}, [100, 100])
        retained = prune(stats, PRUNED)
        assert context_word("flat") not in retained.features
        assert context_word("ok") in retained.features

    def test_singleton_removed_in_both_modes(self):
        stats = stats_from_counts({"once": [1, 0], "ok": [80, 10]}, [100, 100])
        for mode in (PRUNED, UNPRUNED):
            assert context_word("once") not in prune(stats, mode).features

    def test_unpruned_keeps_rare_but_repeated(self):
        stats = stats_from_counts({"rare": [2, 0]}, [100, 100])
        assert context_word("rare") in prune(stats, UNPRUNED).features

    @pytest.mark.parametrize("mode", [PRUNED, UNPRUNED])
    def test_independent_of_count_order(self, mode):
        rng = random.Random(7)
        counts = {f"f{i}": [rng.randint(0, 40), rng.randint(0, 40)] for i in range(60)}
        counts = {name: row for name, row in counts.items() if sum(row) > 0}
        stats = stats_from_counts(counts, [60, 60])
        want = prune(stats, mode)
        assert want and list(want) == sorted(want)
        items = list(stats.counts.items())
        for _ in range(5):
            rng.shuffle(items)
            stats.counts = dict(items)
            assert prune(stats, mode) == want

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_pruned_subset_of_unpruned(self, rows):
        n0 = max(r[0] for r in rows) + 5
        n1 = max(r[1] for r in rows) + 5
        counts = {f"f{i}": list(row) for i, row in enumerate(rows) if sum(row) > 0}
        stats = stats_from_counts(counts, [n0, n1])
        pruned = set(prune(stats, PRUNED))
        unpruned = set(prune(stats, UNPRUNED))
        assert pruned <= unpruned


@st.composite
def count_tables(draw):
    """Occurrence counts of 2 to 4 members, zeros allowed, and count rows
    within them, always with an all-zero row and a row present in every
    occurrence (a zero marginal in each member's table)."""
    occurrences = draw(st.lists(st.integers(0, 80), min_size=2, max_size=4))
    rows = draw(st.lists(
        st.tuples(*[st.integers(0, n) for n in occurrences]), min_size=1, max_size=12
    ))
    return occurrences, [list(row) for row in rows] + [[0] * len(occurrences), list(occurrences)]


def largest_statistic(row, occurrences):
    """The largest chi-square statistic of the per-member 2x2 tables
    feature present/absent x member/rest."""
    present, n = sum(row), sum(occurrences)
    return max(
        chi_square_2x2(a, present - a, occ - a, (n - occ) - (present - a))[0]
        for a, occ in zip(row, occurrences)
    )


def reference_keeps(row, occurrences):
    """The pruned-mode rule stated through the statistic: enough
    occurrences with and without the feature, and chi2_sf of the largest
    statistic below ALPHA."""
    present = sum(row)
    if present < MIN_OCCURRENCES or sum(occurrences) - present < MIN_NONOCCURRENCES:
        return False
    return not chi2_sf(largest_statistic(row, occurrences)) >= ALPHA


class TestPruneMatchesStatisticRule:
    """Pruning by the least chance probability decides as the largest
    per-member statistic does, since chi2_sf is decreasing."""

    @given(count_tables())
    @settings(max_examples=300, deadline=None)
    def test_same_decisions(self, table):
        occurrences, rows = table
        members = ", ".join(f"w{i}" for i in range(len(occurrences)))
        stats = FeatureStats(confusion_set_from_text(members), ExtractionParams())
        stats.occurrences = list(occurrences)
        stats.counts = {context_word(f"f{i}").key(): row for i, row in enumerate(rows)}
        want = [key for key, row in stats.counts.items() if reference_keeps(row, occurrences)]
        assert list(prune(stats, PRUNED)) == sorted(want)
        # The significance test alone, also on the rows the counts drop.
        for row in rows:
            significant = min(chance_probabilities(row, occurrences)) < ALPHA
            assert significant == (chi2_sf(largest_statistic(row, occurrences)) < ALPHA)


class TestExtractActive:
    def setup_method(self):
        self.cset = confusion_set_from_text("peace, piece")
        self.params = ExtractionParams()

    def test_empty_learned_set(self):
        occ = one_occurrence("a peace of cake", self.cset)
        assert extract_active(occ, {}, self.params, EMPTY_TAGS) == ()

    def test_training_sentence_round_trip(self):
        occ = one_occurrence("a peace of cake", self.cset)
        generated = generate_features(occ, self.params, EMPTY_TAGS)
        ids = index_features(sorted(generated)[::2])
        active = extract_active(occ, ids, self.params, EMPTY_TAGS)
        assert set(active) == {ids[key] for key in generated & ids.keys()}

    def test_novel_sentence_shares_one_word(self):
        ids = index_of({context_word("cloudy"), context_word("rain")})
        occ = one_occurrence("cloudy skies mean peace here", self.cset)
        active = extract_active(occ, ids, self.params, EMPTY_TAGS)
        assert active == (ids[context_word("cloudy").key()],)

    def test_result_sorted_and_subset(self):
        occ = one_occurrence("john had a peace of cake .", self.cset)
        generated = generate_features(occ, self.params, EMPTY_TAGS)
        ids = index_features(generated | {context_word("zzxq").key()})
        active = extract_active(occ, ids, self.params, EMPTY_TAGS)
        assert list(active) == sorted(active)
        assert set(active) <= {ids[key] for key in generated}


HELPER_CORPORA = {
    "separable": lambda: separable_corpus(seed=3),
    "small-disjunct": lambda: small_disjunct_corpus(seed=1),
    "two-domain": lambda: two_domain_pair(seed=2),
    "random-tiny": lambda: random_tiny_corpus(random.Random(5)),
}


class TestOneFeaturePass:
    """The single pass equals collect_stats -> prune -> extract_active, with
    active features as ids."""

    @staticmethod
    def check_matches_separate_passes(corpus, cset, params, tags, mode):
        occurrences = find_occurrences(corpus, cset)
        stats, generated = count_features(occurrences, cset, params, tags)
        retained = prune(stats, mode)

        expected_stats = collect_stats(corpus, cset, params, tags)
        assert list(stats.counts.items()) == list(expected_stats.counts.items())
        assert stats.occurrences == expected_stats.occurrences
        assert retained == prune(expected_stats, mode)
        assert generated == [
            (generate_features(o, params, tags), o.member_index) for o in occurrences
        ]
        # Training and scoring take the active set one way, with the ids both
        # learners give the retained features.
        feature_ids = index_features(retained)
        training = TrainingSet(occurrences, cset, params, tags, mode)
        assert training.retained == retained
        assert training.stream == [
            (extract_active(o, feature_ids, params, tags), o.member_index)
            for o in occurrences
        ]
        model = train_bayes(stats, retained)
        network = WinnowNetwork(cset, retained, extraction=params)
        assert model.features == network.features == retained.features == feature_ids.features
        assert model.feature_ids == network.feature_ids == retained == feature_ids

    @pytest.mark.parametrize("mode", [PRUNED, UNPRUNED])
    @pytest.mark.parametrize("name", sorted(HELPER_CORPORA))
    def test_matches_separate_passes(self, name, mode):
        corpus, _other, cset = HELPER_CORPORA[name]()
        tags = TagDictionary({"the": {"DET"}, "on": {"PREP", "ADV"}, "old": {"ADJ"}})
        self.check_matches_separate_passes(
            corpus, cset, ExtractionParams(k=3), tags, mode
        )

    @given(
        st.lists(st.lists(st.sampled_from(["a", "to", "cake", "may", "be", "x", "maybe"]),
                          min_size=1, max_size=8),
                 max_size=12),
        st.integers(1, 3),
        st.sampled_from([1, 2]),
        st.sampled_from([PRUNED, UNPRUNED]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_corpora_match_separate_passes(self, sentences, k, l, mode):
        # Both members occur, one of them two tokens long.
        corpus = [Sentence(tuple(tokens))
                  for tokens in [["a", "maybe", "x"], ["to", "may", "be"], *sentences]]
        self.check_matches_separate_passes(
            corpus, confusion_set_from_text("maybe, may be"), ExtractionParams(k=k, l=l),
            ORACLE_TAGS, mode,
        )

    def test_zero_occurrences_error(self):
        cset = confusion_set_from_text("peace, piece")
        with pytest.raises(ValueError, match="no occurrences"):
            count_features(find_occurrences(corpus_of("nothing here"), cset), cset,
                           ExtractionParams(), EMPTY_TAGS)
