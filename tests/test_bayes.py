import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winspell import bayes
from winspell.bayes import (
    classify_bayes,
    load_model,
    model_from_text,
    model_to_text,
    resolve_dependencies,
    save_model,
    smoothed_likelihoods,
    train_bayes,
)
from winspell.corpus import confusion_set_from_text, find_occurrences
from winspell.features import (
    COLLOCATION,
    ExtractionParams,
    FeatureStats,
    UNPRUNED,
    chance_probabilities,
    collect_stats,
    extract_active,
    prune,
)

from helpers import (
    EMPTY_TAGS,
    collocation,
    context_word,
    corpus_of,
    ids_of,
    index_of,
    oracle_argmax,
    oracle_bayes_scores,
    stats_from_counts,
)


def toy_model(**kwargs):
    corpus = corpus_of(
        "a peace of cake",
        "a piece of cake is nice",
        "peace treaty talks",
        "another piece of pie",
    )
    cset = confusion_set_from_text("peace, piece")
    stats = collect_stats(corpus, cset, ExtractionParams(), EMPTY_TAGS)
    return train_bayes(stats, prune(stats, UNPRUNED), **kwargs), stats


class TestTrainBayes:
    def test_priors_are_count_ratios(self):
        stats = stats_from_counts({"f": [30, 20]}, [60, 40])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        assert model.priors == (0.6, 0.4)
        assert sum(model.priors) == pytest.approx(1.0, abs=1e-12)

    def test_mle_likelihood_is_cooccurrence_ratio(self):
        # At mixing weight 0 the smoothed likelihood is the MLE one.
        stats = stats_from_counts({"f": [1, 47]}, [105, 98])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        (f,) = ids_of(model, [context_word("f")])
        assert smoothed_likelihoods(model, f, [0.0, 0.0])[1] == pytest.approx(47 / 98)
        assert smoothed_likelihoods(model, f, [0.0, 0.0])[0] == pytest.approx(1 / 105)

    def test_lambda_one_for_independent_feature(self):
        # Proportional counts: the feature appears with each member at the
        # same rate, so the chi-square statistic is 0 and lambda 1.
        stats = stats_from_counts({"f": [30, 20]}, [60, 40])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        (f,) = ids_of(model, [context_word("f")])
        assert chance_probabilities(model.counts[f], model.occurrences) == [1.0, 1.0]

    def test_zero_occurrence_member_never_wins(self):
        stats = stats_from_counts({"f": [5, 0]}, [10, 0])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        assert model.priors == (1.0, 0.0)
        posterior = classify_bayes(model, ids_of(model, [context_word("f")]))
        assert posterior.chosen == 0


class TestSmoothedLikelihood:
    def test_full_backoff_at_lambda_one(self):
        # lambda is 1 (see above), so the likelihood is the unigram 50/100.
        stats = stats_from_counts({"f": [30, 20]}, [60, 40])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        (f,) = ids_of(model, [context_word("f")])
        lams = chance_probabilities(model.counts[f], model.occurrences)
        assert smoothed_likelihoods(model, f, lams)[0] == pytest.approx(0.5)

    def test_interpolation_arithmetic(self):
        # MLE likelihood 20/100 = 0.2 and unigram 100/200 = 0.5; pinned
        # mixture: 0.75 * 0.2 + 0.25 * 0.5 = 0.275.
        stats = stats_from_counts({"f": [20, 80]}, [100, 100])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        (f,) = ids_of(model, [context_word("f")])
        assert smoothed_likelihoods(model, f, [0.25, 0.25])[0] == pytest.approx(0.275)
        # Mixing-weight endpoints: 0 is pure MLE, 1 is full backoff.
        assert smoothed_likelihoods(model, f, [0.0, 0.0])[0] == 0.2
        assert smoothed_likelihoods(model, f, [1.0, 1.0])[0] == 0.5

    def test_matches_formula_on_real_tables(self):
        model, _ = toy_model(dependency_resolution=False)
        occurrences = model.occurrences
        for f, row in enumerate(model.counts):
            lams = chance_probabilities(row, occurrences)
            for i in range(2):
                lam = lams[i]
                ml = row[i] / occurrences[i]
                expected = (1 - lam) * ml + lam * sum(row) / sum(occurrences)
                assert smoothed_likelihoods(model, f, lams)[i] == pytest.approx(expected)


class TestLogLikelihoods:
    """The per-model table of log smoothed likelihoods fills a feature's row
    the first time it is read."""

    def test_lazy_rows_equal_log_of_smoothed_likelihood(self):
        # z's all-zero count row has unigram, and so smoothed likelihood, 0.
        stats = stats_from_counts(
            {"f": [5, 0], "g": [3, 4], "h": [0, 7], "z": [0, 0]}, [10, 10]
        )
        model = train_bayes(stats, prune(stats, UNPRUNED))
        table = model.log_likelihoods
        assert table == [None] * len(model.features)
        (read,) = ids_of(model, model.features[:1])
        classify_bayes(model, (read,))
        assert [f for f, row in enumerate(table) if row is not None] == [read]
        for f in ids_of(model, model.features):
            row = model.log_likelihood_row(f)
            assert table[f] is row
            lams = chance_probabilities(model.counts[f], model.occurrences)
            for i in range(len(model.confusion_set.members)):
                likelihood = smoothed_likelihoods(model, f, lams)[i]
                want = math.log(likelihood) if likelihood > 0 else -math.inf
                assert row[i] == want
        assert None not in table
        (z,) = ids_of(model, [context_word("z")])
        assert table[z] == (-math.inf, -math.inf)


class TestPerFeatureDerivation:
    """A feature's mixing weights come from its count row, computed once per
    distinct row: its mean mixing weight and its log row are both filled the
    first time dependency resolution or scoring reads either."""

    def test_derived_rows_equal_eager_formula(self):
        model, _ = toy_model()
        assert model.mean_lambda == model.log_likelihoods == [None] * len(model.features)
        occurrences = model.occurrences
        n = sum(occurrences)
        resolve_dependencies(model, range(len(model.features)))
        for f, row in enumerate(model.counts):
            lam = []
            for a, occ in zip(row, occurrences):
                # Pearson chi-square of feature present/absent x this
                # member/the rest, 1 dof; a zero marginal gives p = 1.
                b, c = sum(row) - a, occ - a
                d = n - occ - b
                denominator = (a + b) * (c + d) * (a + c) * (b + d)
                statistic = n * (a * d - b * c) ** 2 / denominator if denominator else 0.0
                lam.append(math.erfc(math.sqrt(statistic / 2.0)))
            assert chance_probabilities(row, occurrences) == lam
            if model.features[f].kind == COLLOCATION:
                assert model.mean_lambda[f] == sum(lam) / len(lam)
            else:
                assert model.mean_lambda[f] is None
        assert any(m is not None for m in model.mean_lambda)

    def test_classify_derives_only_the_features_it_reads(self):
        stats = FeatureStats(confusion_set_from_text("w0, w1"), ExtractionParams())
        stats.occurrences = [50, 50]
        strong = collocation((-1,), (("w", "s"),))
        weak = collocation((-1, 1), (("w", "s"), ("w", "t")))
        stats.counts = {strong.key(): [40, 2], weak.key(): [20, 15], "CW x": [5, 5],
                        "CW y": [9, 1]}
        model = train_bayes(stats, prune(stats, UNPRUNED))
        classify_bayes(model, ids_of(model, [strong, weak]))
        # Dependency resolution reads both collocations, so both tables hold
        # both; the context words, which nothing read, stay underived.
        assert {f for f, lam in enumerate(model.mean_lambda) if lam is not None} == \
            set(ids_of(model, [strong, weak]))
        assert [f for f, row in enumerate(model.log_likelihoods) if row is not None] == \
            sorted(ids_of(model, [strong, weak]))

    def test_mixing_weights_computed_once_per_feature(self, monkeypatch):
        # Dependency resolution reads a collocation's mean mixing weight and
        # scoring its log row: one chance_probabilities call serves both, and
        # every derived feature with the same count row.
        model, _ = toy_model()
        calls = []
        compute = bayes.chance_probabilities
        monkeypatch.setattr(bayes, "chance_probabilities",
                            lambda row, occ: calls.append(row) or compute(row, occ))
        cset = model.confusion_set
        for text in ("a peace of cake", "one piece of pie", "peace talks now",
                     "a piece of cake is nice", "another piece of pie"):
            for occ in find_occurrences(corpus_of(text), cset):
                classify_bayes(model, extract_active(occ, model.feature_ids, model.extraction,
                                                     EMPTY_TAGS))
        derived = [f for f, row in enumerate(model.log_likelihoods) if row is not None]
        assert any(model.features[f].kind == COLLOCATION for f in derived)
        distinct_rows = {model.counts[f] for f in derived}
        assert len(distinct_rows) < len(derived)
        assert sorted(calls) == sorted(distinct_rows)

    def test_dependency_resolution_clone_shares_every_table(self, monkeypatch):
        # What either model derives, the other reads without deriving it again.
        model, _ = toy_model(dependency_resolution=False)
        clone = bayes.with_dependency_resolution(model)
        calls = []
        compute = bayes.chance_probabilities
        monkeypatch.setattr(bayes, "chance_probabilities",
                            lambda row, occ: calls.append(row) or compute(row, occ))
        n = len(model.features)
        for f in range(n):
            deriving, reading = (model, clone) if f % 2 else (clone, model)
            row = deriving.log_likelihood_row(f)
            assert reading.log_likelihood_row(f) is row
            assert reading.mean_lambda[f] == deriving.mean_lambda[f] is not None
        assert len(calls) == len(set(model.counts)) < n

    @pytest.mark.parametrize("first", [0, 1])
    def test_equal_count_rows_derive_what_each_feature_alone_does(self, first):
        # A context word and a collocation share a count row, and so what is
        # derived from it: whichever is read first, each gets bit for bit the
        # log row and mean mixing weight of a model holding it alone.
        features = (context_word("x"), collocation((-1,), (("w", "s"),)))

        def model_of(counts):
            stats = FeatureStats(confusion_set_from_text("w0, w1"), ExtractionParams())
            stats.occurrences, stats.counts = [50, 50], counts
            return train_bayes(stats, prune(stats, UNPRUNED))

        shared = model_of({f.key(): [7, 2] for f in features} | {"CW y": [1, 9]})
        for feature in features[first:] + features[:first]:
            (f,) = ids_of(shared, [feature])
            alone = model_of({feature.key(): [7, 2]})
            assert [x.hex() for x in shared.log_likelihood_row(f)] == \
                [x.hex() for x in alone.log_likelihood_row(0)]
            assert shared.mean_lambda[f].hex() == alone.mean_lambda[0].hex()


class TestResolveDependencies:
    def overlap_model(self, strong_counts, weak_counts):
        """Two overlapping collocations with controllable association."""
        cset = confusion_set_from_text("w0, w1")
        stats = FeatureStats(cset, ExtractionParams())
        stats.occurrences = [50, 50]
        self.strong = collocation((-1,), (("w", "s"),))
        self.weak = collocation((-1, 1), (("w", "s"), ("w", "t")))
        stats.counts = {self.strong.key(): list(strong_counts),
                        self.weak.key(): list(weak_counts), "CW x": [5, 5]}
        return train_bayes(stats, prune(stats, UNPRUNED))

    def test_no_collocations_unchanged(self):
        model, _ = toy_model()
        active = ids_of(model, [context_word("a"), context_word("cake")])
        assert resolve_dependencies(model, active) == active

    def test_stronger_association_survives(self):
        model = self.overlap_model([40, 2], [20, 15])
        survivors = resolve_dependencies(model, ids_of(model, [self.strong, self.weak]))
        assert survivors == ids_of(model, [self.strong])
        # Swap the association strengths and the other one survives.
        model = self.overlap_model([20, 15], [40, 2])
        survivors = resolve_dependencies(model, ids_of(model, [self.strong, self.weak]))
        assert survivors == ids_of(model, [self.weak])

    def test_off_mode_is_identity(self):
        model = self.overlap_model([40, 2], [20, 15])
        model.dependency_resolution = False
        active = ids_of(model, [self.strong, self.weak, context_word("x")])
        assert resolve_dependencies(model, active[::-1]) == active

    def test_context_words_never_deleted(self):
        model = self.overlap_model([40, 2], [20, 15])
        active = ids_of(model, [self.strong, self.weak, context_word("x")])
        assert ids_of(model, [context_word("x")])[0] in resolve_dependencies(model, active)

    def test_non_overlapping_spans_coexist(self):
        cset = confusion_set_from_text("w0, w1")
        stats = FeatureStats(cset, ExtractionParams())
        stats.occurrences = [50, 50]
        left = collocation((-2, -1), (("w", "a"), ("w", "b")))
        right = collocation((1, 2), (("w", "c"), ("w", "d")))
        stats.counts = {left.key(): [30, 4], right.key(): [5, 25]}
        model = train_bayes(stats, prune(stats, UNPRUNED))
        active = ids_of(model, [left, right])
        assert resolve_dependencies(model, active) == active

    def test_output_subset_and_deterministic(self):
        model = self.overlap_model([40, 2], [20, 15])
        active = ids_of(model, [self.strong, self.weak, context_word("x")])
        first = resolve_dependencies(model, active)
        assert set(first) <= set(active)
        assert resolve_dependencies(model, active) == first


def pairwise_resolve(model, active_set):
    """Reference dependency resolution: union-find over every pair of
    collocations, joining those whose offset spans overlap."""
    active = tuple(sorted(active_set))
    if not model.dependency_resolution:
        return active
    collocations = [f for f in active if f.kind == COLLOCATION]
    if len(collocations) <= 1:
        return active
    component_of = list(range(len(collocations)))

    def find(i):
        while component_of[i] != i:
            component_of[i] = component_of[component_of[i]]
            i = component_of[i]
        return i

    for i, fi in enumerate(collocations):
        for j in range(i + 1, len(collocations)):
            if set(fi.offsets) & set(collocations[j].offsets):
                component_of[find(i)] = find(j)
    groups = {}
    for i, f in enumerate(collocations):
        groups.setdefault(find(i), []).append(f)
    survivors = {
        min(group, key=lambda f: (model.mean_lambda[f], f)) for group in groups.values()
    }
    return tuple(f for f in active if f.kind != COLLOCATION or f in survivors)


# Offset spans: the generated ones (l=1 and l=2) and arbitrary ones.
SPANS = st.one_of(
    st.sampled_from([(-1,), (1,), (-2, -1), (-1, 1), (1, 2)]),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3, unique=True).map(
        lambda offsets: tuple(sorted(offsets))
    ),
)
COLLOCATIONS = st.builds(
    lambda span, kind, value: collocation(span, [(kind, value)] * len(span)),
    SPANS, st.sampled_from("wt"), st.sampled_from("ab"),
)


class TestResolveDependenciesMatchesPairwise:
    @given(st.lists(COLLOCATIONS, max_size=14),
           st.lists(st.sampled_from("xy").map(context_word), max_size=3),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_oracle(self, collocations, words, data):
        # Few distinct mixing weights, so ties are common.
        mean_lambda = {
            f: data.draw(st.sampled_from([0.0, 0.25, 1.0]))
            for f in sorted(set(collocations))
        }
        oracle = SimpleNamespace(dependency_resolution=True, mean_lambda=mean_lambda)
        retained = index_of(set(collocations + words))
        model = SimpleNamespace(
            dependency_resolution=True, features=retained.features, feature_ids=retained,
            mean_lambda=[mean_lambda.get(f, 1.0) for f in retained.features],
        )
        active = data.draw(st.permutations(collocations + words))
        assert resolve_dependencies(model, [retained[f.key()] for f in active]) == \
            ids_of(model, pairwise_resolve(oracle, active))


class TestClassifyBayes:
    def test_empty_active_set_uses_prior(self):
        stats = stats_from_counts({"f": [30, 20]}, [40, 60])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        assert classify_bayes(model, ()).chosen == 1

    def test_zero_probability_falls_back_to_prior(self):
        # The feature never co-occurred with either member: its unigram, and
        # so its smoothed likelihood, is 0, both posteriors are 0, and the
        # larger prior decides.
        stats = stats_from_counts({"f": [0, 0], "g": [30, 20]}, [60, 40])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        posterior = classify_bayes(model, ids_of(model, [context_word("f")]))
        assert all(s == float("-inf") for s in posterior.scores)
        assert posterior.chosen == 0

    def test_matches_brute_force_oracle(self):
        model, stats = toy_model(dependency_resolution=False)
        cset = model.confusion_set
        test_sentence = corpus_of("i'd like a peace of cake")[0]
        occ = find_occurrences([test_sentence], cset)[0]
        active = extract_active(occ, model.feature_ids, model.extraction, EMPTY_TAGS)
        posterior = classify_bayes(model, active)
        expected = oracle_bayes_scores(stats, [model.features[f].key() for f in active], 2)
        for got, want in zip(posterior.scores, expected):
            assert got == pytest.approx(want, abs=1e-9)
        assert posterior.chosen == oracle_argmax(expected, model.priors)

    def test_tie_breaks_by_prior_then_index(self):
        stats = stats_from_counts({"f": [30, 20]}, [40, 60])
        model = train_bayes(stats, prune(stats, UNPRUNED))
        # Empty active set plus equal priors: lower index wins.
        stats_eq = stats_from_counts({"f": [30, 20]}, [50, 50])
        model_eq = train_bayes(stats_eq, prune(stats_eq, UNPRUNED))
        assert classify_bayes(model_eq, ()).chosen == 0
        assert classify_bayes(model, ()).chosen == 1

    def test_argmax_invariant_under_constant_shift(self):
        model, _ = toy_model(dependency_resolution=False)
        posterior = classify_bayes(model, ids_of(model, [context_word("cake")]))
        shifted = [s + 123.456 for s in posterior.scores]
        assert max(range(2), key=lambda i: shifted[i]) == posterior.chosen


class TestSerialization:
    def repeated_rows_model(self):
        stats = stats_from_counts({"a": [1, 2], "b": [0, 0], "c": [1, 2], "d": [2, 1],
                                   "e": [1, 2], "f": [0, 0]}, [3, 3])
        return train_bayes(stats, prune(stats, UNPRUNED))

    def test_writer_spells_each_count_row_on_its_own(self):
        model = self.repeated_rows_model()
        text = model_to_text(model)
        rows = [key + "\t" + "\t".join(map(str, row))
                for key, row in zip(model.feature_ids, model.counts)]
        assert text == "\n".join(text.split("\n")[:8] + rows) + "\n"
        assert model_to_text(model_from_text(text)) == text

    def test_save_load_save_byte_identical(self, tmp_path):
        model, _ = toy_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        first = path.read_bytes()
        save_model(load_model(path), path)
        assert path.read_bytes() == first

    def test_loaded_model_classifies_identically(self, tmp_path):
        model, _ = toy_model(dependency_resolution=False)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        cset = model.confusion_set
        for text in ("a peace of cake", "one piece of pie", "peace talks now"):
            sent = corpus_of(text)[0]
            occ = find_occurrences([sent], cset)[0]
            active = extract_active(occ, model.feature_ids, model.extraction, EMPTY_TAGS)
            assert classify_bayes(loaded, active) == classify_bayes(model, active)

    def test_round_trip_preserves_tables(self):
        model, _ = toy_model()
        loaded = model_from_text(model_to_text(model))
        # Compare filled tables: two tables of None would compare equal.
        for derived in (model, loaded):
            every = range(len(derived.features))
            resolve_dependencies(derived, every)
            for f in every:
                derived.log_likelihood_row(f)
            assert None not in derived.log_likelihoods
            assert any(m is not None for m in derived.mean_lambda)
        assert loaded.features == model.features
        assert loaded.priors == model.priors
        assert loaded.counts == model.counts
        assert loaded.log_likelihoods == model.log_likelihoods
        assert loaded.mean_lambda == model.mean_lambda
        assert loaded.dependency_resolution == model.dependency_resolution

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            model_from_text("WINNOW v1\n")

