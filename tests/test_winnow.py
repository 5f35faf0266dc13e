import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winspell.bayes import MLE_ONLY, classify_bayes, train_bayes
from winspell.corpus import TagDictionary, confusion_set_from_text, find_occurrences
from winspell.features import (
    ExtractionParams,
    FeatureStats,
    UNPRUNED,
    collect_stats,
    context_word,
    extract_active,
    prepare_set,
    prune,
)
from winspell.winnow import (
    BIAS_ID,
    FULL,
    ONE_LAYER,
    SPARSE,
    TWO_LAYER,
    Cloud,
    GammaSchedule,
    WinnowClassifier,
    WinnowNetwork,
    WinnowParams,
    classify_winnow,
    cloud_activation,
    gamma_at,
    init_bayesian,
    load_network,
    network_from_text,
    network_to_text,
    save_network,
    sparsify,
    train_network,
    winnow_predict,
    winnow_train_example,
)

from helpers import corpus_of, ids_of, random_tiny_corpus

EMPTY_TAGS = TagDictionary()
PARAMS = WinnowParams()

F1, F2, F3 = context_word("f1"), context_word("f2"), context_word("f3")
# Their feature ids in a network over them: positions in sorted order.
I1, I2, I3 = 0, 1, 2


def unit(weights=None):
    """A cloud of one classifier (beta 0.5) connected to ``weights``
    (feature id -> weight)."""
    cloud = Cloud(0, [WinnowClassifier(0.5)])
    for f, w in (weights or {}).items():
        cloud.connect(f, w)
    return cloud


def weights_of(cloud, k=0):
    """Classifier k's weights, keyed by feature id through the cloud's slots."""
    weights = cloud.classifiers[k].weights
    return {f: weights[slot] for f, slot in cloud.slots.items()}


def predict(cloud, active):
    return winnow_predict(cloud.classifiers[0], cloud.connected(active), theta=1.0)


class TestPredict:
    def test_empty_active_set(self):
        assert predict(unit({I1: 5.0}), ()) == 0

    def test_sum_above_threshold(self):
        assert predict(unit({I1: 0.6, I2: 0.5}), (I1, I2)) == 1

    def test_unconnected_contributes_zero(self):
        cloud = unit({I1: 0.6})
        assert cloud.connected((I1, I3)) == [cloud.slots[I1]]
        assert predict(cloud, (I1, I3)) == 0

    def test_sum_equal_to_threshold_is_negative(self):
        assert predict(unit({I1: 1.0}), (I1,)) == 0

    def test_connected_bias_is_active_on_every_example(self):
        cloud = unit({I1: 0.6, BIAS_ID: 0.5})
        assert cloud.connected(()) == [cloud.slots[BIAS_ID]]
        assert predict(cloud, (I1,)) == 1


class TestTrainExample:
    def test_positive_example_connects_then_promotes(self):
        cloud = unit()
        winnow_train_example(cloud, (I1, I2), 1, PARAMS)
        assert weights_of(cloud)[I1] == pytest.approx(0.15)
        assert weights_of(cloud)[I2] == pytest.approx(0.15)
        assert cloud.classifiers[0].mistakes == 1

    def test_correct_negative_changes_nothing(self):
        cloud = unit({I1: 0.8})
        winnow_train_example(cloud, (I1,), 0, PARAMS)
        assert weights_of(cloud) == {I1: 0.8}
        assert cloud.classifiers[0].mistakes == 0

    def test_false_positive_demotes(self):
        cloud = unit({I1: 1.2})
        winnow_train_example(cloud, (I1,), 0, PARAMS)
        assert weights_of(cloud)[I1] == pytest.approx(0.6)
        assert cloud.classifiers[0].mistakes == 1

    def test_negative_example_never_connects(self):
        cloud = unit()
        winnow_train_example(cloud, (I1, I2), 0, PARAMS)
        assert weights_of(cloud) == {}

    def test_inactive_weights_untouched(self):
        cloud = unit({I1: 0.4, I3: 2.0})
        winnow_train_example(cloud, (I1,), 1, PARAMS)
        assert weights_of(cloud)[I3] == 2.0

    def test_each_classifier_decides_for_itself(self):
        # One shared table, two classifiers: only the one whose sum exceeds
        # theta on a negative example is demoted, by its own beta.
        cloud = Cloud(0, [WinnowClassifier(0.5), WinnowClassifier(0.9)])
        cloud.connect(I1, 0.4)
        cloud.classifiers[1].weights[cloud.slots[I1]] = 2.0
        winnow_train_example(cloud, (I1, I2), 0, PARAMS)
        assert weights_of(cloud, 0) == {I1: 0.4}
        assert weights_of(cloud, 1) == {I1: pytest.approx(1.8)}
        assert [c.mistakes for c in cloud.classifiers] == [0, 1]
        assert cloud.examples_seen == 1

    @given(st.lists(st.tuples(st.sets(st.sampled_from([I1, I2, I3])),
                              st.integers(0, 1)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_weights_stay_non_negative(self, stream):
        cloud = unit()
        for active, label in stream:
            winnow_train_example(cloud, tuple(sorted(active)), label, PARAMS)
        assert all(w >= 0 for w in cloud.classifiers[0].weights)

    @given(st.lists(st.tuples(st.sets(st.sampled_from([I1, I2, I3])),
                              st.integers(0, 1)), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_no_update_on_correct_prediction(self, stream):
        cloud = unit()
        for active, label in stream:
            active = tuple(sorted(active))
            predicted = predict(cloud, active)
            before = (weights_of(cloud), cloud.classifiers[0].mistakes)
            winnow_train_example(cloud, active, label, PARAMS)
            if predicted == label and label == 0:
                assert (weights_of(cloud), cloud.classifiers[0].mistakes) == before


class TestGamma:
    def test_endpoints(self):
        schedule = GammaSchedule(horizon=100)
        assert gamma_at(schedule, 0) == 1.0
        assert gamma_at(schedule, 100) == 0.67
        assert gamma_at(schedule, 5000) == 0.67

    def test_halfway(self):
        schedule = GammaSchedule(horizon=100)
        assert gamma_at(schedule, 50) == pytest.approx(0.7525)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gamma_at(GammaSchedule(), -1)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            GammaSchedule(horizon=0)

    @given(st.integers(0, 2000), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_non_increasing(self, t1, t2):
        schedule = GammaSchedule(horizon=500)
        lo, hi = sorted((t1, t2))
        assert gamma_at(schedule, hi) <= gamma_at(schedule, lo)
        assert 0.67 <= gamma_at(schedule, t1) <= 1.0


def cloud_with(mistakes, votes, member_index=0):
    """Cloud whose classifiers have the given mistake counts and whose votes
    are forced via a single feature weight."""
    cloud = Cloud(member_index, [WinnowClassifier(0.5, mistakes=m) for m in mistakes])
    cloud.connect(I1, 0.0)
    for classifier, vote in zip(cloud.classifiers, votes):
        classifier.weights[cloud.slots[I1]] = 2.0 if vote else 0.0
    return cloud


class TestCloudActivation:
    def test_unanimous(self):
        schedule = GammaSchedule(horizon=10)
        cloud = cloud_with([1, 2, 3, 4, 5], [1, 1, 1, 1, 1])
        cloud.examples_seen = 10
        assert cloud_activation(cloud, (I1,), PARAMS, schedule) == 1.0
        cloud = cloud_with([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert cloud_activation(cloud, (I1,), PARAMS, schedule) == 0.0

    def test_mistake_weighted_vote(self):
        # gamma fixed at 0.9 by a schedule evaluated mid-course:
        # 0.67 + 0.33 * (1 - t/T)^2 = 0.9 at 1 - t/T = sqrt(23/33).
        cloud = cloud_with([0, 0, 10, 10, 10], [1, 1, 0, 0, 0])
        schedule = GammaSchedule(horizon=10**9)
        t = round((1 - math.sqrt(23 / 33)) * 10**9)
        cloud.examples_seen = t
        gamma = gamma_at(schedule, t)
        assert gamma == pytest.approx(0.9, abs=1e-9)
        activation = cloud_activation(cloud, (I1,), PARAMS, schedule)
        assert activation == pytest.approx(2 / (2 + 3 * 0.9**10), abs=1e-6)
        assert activation == pytest.approx(0.6565926, abs=1e-4)

    def test_equal_mistakes_is_plain_fraction(self):
        cloud = cloud_with([7, 7, 7, 7], [1, 0, 1, 0])
        cloud.examples_seen = 3
        assert cloud_activation(cloud, (I1,), PARAMS, GammaSchedule()) == pytest.approx(0.5)

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1)),
                    min_size=1, max_size=8),
           st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, spec, seen):
        cloud = cloud_with([m for m, _ in spec], [v for _, v in spec])
        cloud.examples_seen = seen
        activation = cloud_activation(cloud, (I1,), PARAMS, GammaSchedule())
        assert 0.0 <= activation <= 1.0


def toy_network(params=PARAMS, **kwargs):
    cset = confusion_set_from_text("dax, fep")
    universe = (F1, F2, F3)
    return WinnowNetwork(cset, universe, params, ExtractionParams(), **kwargs)


class TestClassify:
    def test_argmax_activation(self):
        network = toy_network()
        network.clouds = [cloud_with([0] * 5, [1] * 5, 0), cloud_with([0] * 5, [0] * 5, 1)]
        decision = classify_winnow(network, (I1,))
        assert decision.chosen == 0
        assert decision.scores == (1.0, 0.0)

    def test_tie_breaks_by_prior(self):
        network = toy_network(priors=(0.4, 0.6))
        decision = classify_winnow(network, ())
        assert decision.scores[0] == decision.scores[1]
        assert decision.chosen == 1

    def test_tie_breaks_by_index_on_equal_priors(self):
        network = toy_network(priors=(0.5, 0.5))
        assert classify_winnow(network, ()).chosen == 0


class TestTrainNetwork:
    def test_examples_seen_counts_cycles(self):
        network = toy_network()
        stream = [((I1,), 0)] * 10
        train_network(network, stream)
        assert all(cloud.examples_seen == 50 for cloud in network.clouds)
        assert network.schedule.horizon == 50

    def test_positive_for_correct_member_only(self):
        network = toy_network(WinnowParams(cycles=1))
        train_network(network, [((I1,), 0)])
        # Member 0's cloud connected the active features; member 1's did not.
        assert I1 in network.clouds[0].slots
        assert I1 not in network.clouds[1].slots

    def test_wrongly_firing_negative_cloud_demoted(self):
        network = toy_network(WinnowParams(cycles=1))
        cloud = network.clouds[1]
        cloud.connect(I1, 2.0)
        train_network(network, [((I1,), 0)])
        for k, clf in enumerate(cloud.classifiers):
            assert weights_of(cloud, k)[I1] == pytest.approx(2.0 * clf.beta)
            assert clf.mistakes == 1

    def test_training_deterministic(self):
        def run():
            network = toy_network()
            stream = [((I1, I2), 0), ((I2, I3), 1), ((I1,), 0), ((I3,), 1)]
            train_network(network, stream)
            return network_to_text(network)

        assert run() == run()

    def test_sparse_connections_only_from_positive_examples(self):
        network = toy_network()
        stream = [((I1, I2), 0), ((I2, I3), 1)]
        train_network(network, stream)
        for cloud in network.clouds:
            positives = {I1, I2} if cloud.member_index == 0 else {I2, I3}
            assert set(cloud.slots) - {BIAS_ID} <= positives

    def test_disjunction_mistakes_scale_with_relevant_features(self):
        # Planted 3-of-1000 disjunction: the concept cloud's classifiers stay
        # within 2.5 * r * (1 + log2 n) mistakes while learning it.
        rng = random.Random(7)
        n, r = 1000, 3
        features = [context_word(f"g{i}") for i in range(n)]
        relevant = range(r)  # feature ids
        cset = confusion_set_from_text("dax, fep")
        network = WinnowNetwork(cset, features, WinnowParams(cycles=1), ExtractionParams())
        stream = []
        for _ in range(400):
            active = set()
            if rng.random() < 0.5:
                chosen = [f for f in relevant if rng.random() < 0.5]
                active.update(chosen or [rng.choice(relevant)])
            for _ in range(8):
                f = rng.randrange(n)
                if f not in relevant:
                    active.add(f)
            member = 0 if active & set(relevant) else 1
            stream.append((tuple(sorted(active)), member))
        train_network(network, stream)
        bound = 2.5 * r * (1 + math.log2(n))
        for clf in network.clouds[0].classifiers:
            assert clf.mistakes <= bound


def reference_train(network, stream):
    """Plain example-major training: every presentation connects, then looks
    up, the active features of each cloud, the bias (id -1) among them."""
    examples = [((BIAS_ID, *active), member) for active, member in stream]
    if not examples:
        return
    params = network.params
    network.schedule = GammaSchedule(
        network.schedule.start, network.schedule.end, params.cycles * len(examples)
    )
    for _ in range(params.cycles):
        for active, member in examples:
            for cloud in network.clouds:
                label = 1 if cloud.member_index == member else 0
                if label:
                    for f in active:
                        if f not in cloud.slots:
                            cloud.slots[f] = len(cloud.slots)
                            for clf in cloud.classifiers:
                                clf.weights.append(params.default_weight)
                slots = [cloud.slots[f] for f in active if f in cloud.slots]
                for clf in cloud.classifiers:
                    total = math.fsum(clf.weights[i] for i in slots)
                    if (1 if total > params.theta else 0) != label:
                        factor = params.alpha if label else clf.beta
                        for i in slots:
                            clf.weights[i] *= factor
                        clf.mistakes += 1
                cloud.examples_seen += 1


def network_state(network):
    return (
        network.schedule,
        [
            (cloud.slots, cloud.examples_seen,
             [(clf.beta, clf.weights, clf.mistakes) for clf in cloud.classifiers])
            for cloud in network.clouds
        ],
    )


class TestTrainNetworkMatchesReference:
    @given(
        st.integers(1, 6),
        st.integers(2, 3),
        st.data(),
        st.sampled_from([ONE_LAYER, TWO_LAYER]),
        st.sampled_from(["uniform", "bayesian+sparsify"]),
        st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_example_major_reference(self, n, members, data, layer_mode, start,
                                            cycles):
        stream = data.draw(st.lists(
            st.tuples(st.sets(st.integers(0, n - 1)).map(lambda a: tuple(sorted(a))),
                      st.integers(0, members - 1)),
            max_size=25,
        ))
        counts = data.draw(st.lists(st.lists(st.integers(0, 4), min_size=members,
                                             max_size=members),
                                    min_size=n, max_size=n))
        cset = confusion_set_from_text(", ".join(f"m{i}" for i in range(members)))
        features = [context_word(f"f{i}") for i in range(n)]

        def build():
            network = WinnowNetwork(cset, features, WinnowParams(cycles=cycles),
                                    ExtractionParams(), layer_mode=layer_mode)
            if start != "uniform":
                stats = FeatureStats(cset, ExtractionParams())
                stats.occurrences = [4] * members
                stats.counts = dict(zip(features, counts))
                model = train_bayes(stats, features, dependency_resolution=False)
                init_bayesian(network, model)
                sparsify(network, model.counts)
            return network

        trained, reference = build(), build()
        train_network(trained, stream)
        reference_train(reference, stream)
        assert network_state(trained) == network_state(reference)

    def test_underflowed_weight_stays_connected(self):
        network = toy_network(WinnowParams(betas=(0.5,), cycles=1))
        cloud = network.clouds[1]
        cloud.connect(I1, 2.0)
        cloud.connect(I2, 5e-324)  # the smallest subnormal
        # The first example is negative for cloud 1, which fires: demoting by
        # 0.5 rounds the smallest subnormal to 0.0. The second, positive
        # example is missed and promotes that 0.0; I2 is not reconnected at
        # the default weight.
        train_network(network, [((I1, I2), 0), ((I2,), 1)])
        assert weights_of(cloud)[I2] == 0.0
        assert cloud.classifiers[0].mistakes == 2
        assert f"\n{I2}\t0.0\n" in network_to_text(network)


class TestInitBayesian:
    def build_pair(self, counts, occurrences, smoothing=MLE_ONLY):
        cset = confusion_set_from_text("dax, fep")
        stats = FeatureStats(cset, ExtractionParams())
        stats.occurrences = list(occurrences)
        stats.counts = {context_word(k): list(v) for k, v in counts.items()}
        model = train_bayes(stats, prune(stats, UNPRUNED), smoothing, False)
        network = WinnowNetwork(
            cset, model.features, PARAMS, ExtractionParams(), layer_mode=ONE_LAYER
        )
        return model, network

    def test_connects_every_feature_and_makes_network_full(self):
        model, network = self.build_pair({"f": [2, 1], "g": [0, 1]}, [3, 1])
        assert network.architecture == SPARSE
        assert all(set(cloud.slots) == {BIAS_ID} for cloud in network.clouds)
        init_bayesian(network, model)
        assert network.architecture == FULL
        for cloud in network.clouds:
            assert set(cloud.slots) == {BIAS_ID, *range(len(model.features))}
            assert all(len(c.weights) == len(cloud.slots) for c in cloud.classifiers)

    def test_zero_likelihood_floor_and_shift(self):
        # MLE likelihoods (0.5, 0.0): raw logs (-0.693..., -500), so the
        # shift is 500 and the weights (499.3068..., 0).
        model, network = self.build_pair({"f": [2, 0]}, [4, 2])
        init_bayesian(network, model)
        f = network.feature_ids[context_word("f")]
        w0 = weights_of(network.clouds[0])[f]
        w1 = weights_of(network.clouds[1])[f]
        assert w0 == pytest.approx(math.log(0.5) + 500, abs=1e-9)
        assert w0 == pytest.approx(499.3068528, abs=1e-6)
        assert w1 == 0.0

    def test_unit_likelihoods_map_to_zero_logs(self):
        # Counts equal to the member occurrence totals give MLE likelihood 1
        # everywhere, so feature logs are 0 and only the prior shifts.
        model, network = self.build_pair({"f": [2, 2]}, [2, 2])
        init_bayesian(network, model)
        f = network.feature_ids[context_word("f")]
        shift = -math.log(0.5)
        for cloud in network.clouds:
            weights = weights_of(cloud)
            assert weights[f] == pytest.approx(shift)
            assert weights[BIAS_ID] == pytest.approx(0.0)

    def test_bias_carries_prior(self):
        model, network = self.build_pair({"f": [2, 1]}, [3, 1])
        init_bayesian(network, model)
        b0 = weights_of(network.clouds[0])[BIAS_ID]
        b1 = weights_of(network.clouds[1])[BIAS_ID]
        assert b0 - b1 == pytest.approx(math.log(0.75) - math.log(0.25))

    def test_requires_matching_features(self):
        model, _ = self.build_pair({"f": [1, 0]}, [2, 2])
        other = WinnowNetwork(
            model.confusion_set, (context_word("g"),), PARAMS, ExtractionParams(),
            layer_mode=ONE_LAYER,
        )
        with pytest.raises(ValueError, match="feature sets"):
            init_bayesian(other, model)

    def test_simplified_network_matches_bayes_decisions(self):
        params = ExtractionParams(k=1, l=1)
        rng = random.Random(99)
        for _ in range(20):
            train, test, cset = random_tiny_corpus(rng)
            stats = collect_stats(train, cset, params, EMPTY_TAGS)
            retained = prune(stats, UNPRUNED)
            model = train_bayes(stats, retained, dependency_resolution=False)
            network = WinnowNetwork(cset, retained, PARAMS, params, layer_mode=ONE_LAYER)
            init_bayesian(network, model)
            for occ in find_occurrences(test, cset):
                active = extract_active(occ, network.feature_ids, params, EMPTY_TAGS)
                assert classify_winnow(network, active).chosen == \
                    classify_bayes(model, active).chosen


class TestSparsify:
    def test_drops_undemonstrated_links_keeps_bias(self):
        cset = confusion_set_from_text("dax, fep")
        stats = FeatureStats(cset, ExtractionParams())
        stats.occurrences = [2, 2]
        stats.counts = {F1: [2, 0], F2: [1, 2]}
        model = train_bayes(stats, prune(stats, UNPRUNED), dependency_resolution=False)
        network = WinnowNetwork(cset, model.features, PARAMS, ExtractionParams())
        init_bayesian(network, model)
        full = [[weights_of(cloud, k) for k in range(len(cloud.classifiers))]
                for cloud in network.clouds]
        sparsify(network, model.counts)
        assert network.architecture == SPARSE
        assert set(network.clouds[0].slots) == {BIAS_ID, I1, I2}
        assert set(network.clouds[1].slots) == {BIAS_ID, I2}
        for cloud, before in zip(network.clouds, full):
            for k, clf in enumerate(cloud.classifiers):
                assert len(clf.weights) == len(cloud.slots)
                assert weights_of(cloud, k).items() <= before[k].items()


class TestConnectionTable:
    @given(
        st.lists(st.tuples(st.sets(st.sampled_from([F1, F2, F3])), st.integers(0, 1)),
                 min_size=1, max_size=30),
        st.sampled_from(["uniform", "bayesian", "bayesian+sparsify"]),
        st.sampled_from([ONE_LAYER, TWO_LAYER]),
    )
    @settings(max_examples=100, deadline=None)
    def test_table_survives_training_and_reload(self, stream, start, layer_mode):
        cset = confusion_set_from_text("dax, fep")
        network = WinnowNetwork(cset, (F1, F2, F3), WinnowParams(cycles=2),
                                ExtractionParams(), layer_mode=layer_mode)
        if start != "uniform":
            stats = FeatureStats(cset, ExtractionParams())
            stats.occurrences = [2, 2]
            stats.counts = {F1: [2, 0], F2: [1, 2], F3: [1, 1]}
            model = train_bayes(stats, prune(stats, UNPRUNED),
                                dependency_resolution=False)
            init_bayesian(network, model)
            if start == "bayesian+sparsify":
                sparsify(network, model.counts)
        examples = [(ids_of(network, active), member) for active, member in stream]
        train_network(network, examples)
        for cloud in network.clouds:
            assert all(len(c.weights) == len(cloud.slots) for c in cloud.classifiers)
        text = network_to_text(network)
        loaded = network_from_text(text)
        assert network_to_text(loaded) == text
        for active, _ in examples + [((), 0)]:
            assert classify_winnow(loaded, active) == classify_winnow(network, active)


class TestSerialization:
    def trained_network(self):
        corpus = corpus_of(
            "a dax rix b .", "c fep zor d .", "a dax rix c .", "b fep zor a ."
        )
        cset = confusion_set_from_text("dax, fep")
        params = ExtractionParams(k=3)
        _, retained, stream = prepare_set(find_occurrences(corpus, cset), cset, params,
                                          EMPTY_TAGS, UNPRUNED)
        network = WinnowNetwork(cset, retained, PARAMS, params,
                                priors=(0.5, 0.5))
        train_network(network, stream)
        return network, params, network.feature_ids, corpus, cset

    def test_save_load_save_byte_identical(self, tmp_path):
        network, *_ = self.trained_network()
        path = tmp_path / "n.model"
        save_network(network, path)
        first = path.read_bytes()
        save_network(load_network(path), path)
        assert path.read_bytes() == first

    def test_loaded_network_classifies_identically(self, tmp_path):
        network, params, learned, corpus, cset = self.trained_network()
        path = tmp_path / "n.model"
        save_network(network, path)
        loaded = load_network(path)
        for occ in find_occurrences(corpus, cset):
            active = extract_active(occ, learned, params, EMPTY_TAGS)
            assert classify_winnow(loaded, active) == classify_winnow(network, active)

    def test_one_layer_full_round_trip(self):
        cset = confusion_set_from_text("dax, fep")
        stats = FeatureStats(cset, ExtractionParams())
        stats.occurrences = [2, 2]
        stats.counts = {F1: [2, 0], F2: [1, 2]}
        model = train_bayes(stats, prune(stats, UNPRUNED), dependency_resolution=False)
        network = WinnowNetwork(cset, (F1, F2), PARAMS, ExtractionParams(),
                                layer_mode=ONE_LAYER)
        init_bayesian(network, model)
        text = network_to_text(network)
        again = network_to_text(network_from_text(text))
        assert again == text
        assert network_from_text(text).layer_mode == ONE_LAYER
        assert network_from_text(text).architecture == FULL

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            network_from_text("BAYES v1\n")

    def test_feature_list_out_of_canonical_order_rejected(self):
        # Weight rows name features by their position in the list, so a
        # reordered list would apply each row to another feature.
        network = WinnowNetwork(confusion_set_from_text("dax, fep"),
                                (context_word("aaa"), context_word("bbb")),
                                WinnowParams(cycles=1), ExtractionParams())
        train_network(network, [((1,), 0), ((0,), 1)])
        assert set(network.clouds[0].slots) == {BIAS_ID, 1}  # cloud 0 knows CW bbb only
        lines = network_to_text(network).splitlines()
        first = lines.index("CW aaa")
        assert lines[first + 1] == "CW bbb"
        lines[first], lines[first + 1] = lines[first + 1], lines[first]
        with pytest.raises(ValueError, match="not in canonical order"):
            network_from_text("\n".join(lines) + "\n")

    def test_every_prefix_cut_in_header_or_features_rejected(self):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines(keepends=True)
        # Header line, ten header fields, the feature list, then the first
        # cloud line: every prefix that stops before that line is truncated.
        first_cloud = 11 + len(network.features)
        assert lines[first_cloud].startswith("cloud\t")
        for n in range(1, first_cloud + 1):
            with pytest.raises(ValueError):
                network_from_text("".join(lines[:n]))

    def test_cut_after_cloud_line_rejected(self):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines(keepends=True)
        last_cloud = max(i for i, line in enumerate(lines) if line.startswith("cloud\t"))
        with pytest.raises(ValueError, match="truncated"):
            network_from_text("".join(lines[: last_cloud + 1]))

    def test_missing_header_field_rejected(self):
        network, *_ = self.trained_network()
        text = network_to_text(network)
        schedule_line = next(l for l in text.splitlines() if l.startswith("schedule\t"))
        with pytest.raises(ValueError, match="header"):
            network_from_text(text.replace(schedule_line, "schedule\tstart=1.0"))

    def test_unknown_init_rejected(self):
        network, *_ = self.trained_network()
        text = network_to_text(network)
        assert "\ninit\tuniform\n" in text
        with pytest.raises(ValueError, match="header: init must be"):
            network_from_text(text.replace("\ninit\tuniform\n", "\ninit\tbogus\n"))

    def test_unknown_architecture_rejected(self):
        network, *_ = self.trained_network()
        text = network_to_text(network)
        assert "\narchitecture\tsparse\n" in text
        with pytest.raises(ValueError, match="header: architecture must be"):
            network_from_text(text.replace("\narchitecture\tsparse\n",
                                           "\narchitecture\tdense\n"))

    @pytest.mark.parametrize("repeated", ["cloud-block", "first-classifier-row",
                                          "later-classifier-row"])
    def test_repeated_cloud_or_weight_row_rejected(self, repeated):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines()
        clouds = [i for i, l in enumerate(lines) if l.startswith("cloud\t")]
        classifiers = [i for i, l in enumerate(lines) if l.startswith("classifier\t")]
        if repeated == "cloud-block":
            lines += lines[clouds[0] : clouds[1]]
        else:
            row = classifiers[0 if repeated == "first-classifier-row" else 1] + 2
            lines.insert(row + 1, lines[row])
        with pytest.raises(ValueError, match="repeat"):
            network_from_text("\n".join(lines) + "\n")

    def test_weight_row_before_first_classifier_rejected(self):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines()
        last_cloud = max(i for i, l in enumerate(lines) if l.startswith("cloud\t"))
        lines.insert(last_cloud + 1, "0\t0.5")
        with pytest.raises(ValueError, match="outside any classifier"):
            network_from_text("\n".join(lines) + "\n")

    def test_weight_rows_out_of_first_classifiers_order_rejected(self):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines()
        second = [i for i, l in enumerate(lines) if l.startswith("classifier\t")][1]
        lines[second + 2], lines[second + 3] = lines[second + 3], lines[second + 2]
        with pytest.raises(ValueError, match="differ from the first classifier's"):
            network_from_text("\n".join(lines) + "\n")

    def test_cut_between_weight_rows_rejected(self):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines(keepends=True)
        assert not lines[-4].startswith(("cloud\t", "classifier\t"))
        with pytest.raises(ValueError, match="truncated"):
            network_from_text("".join(lines[:-3]))

    def test_cut_after_first_classifier_of_last_cloud_rejected(self):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines(keepends=True)
        last_cloud = max(i for i, l in enumerate(lines) if l.startswith("cloud\t"))
        second = [i for i, l in enumerate(lines)
                  if i > last_cloud and l.startswith("classifier\t")][1]
        with pytest.raises(ValueError, match="truncated"):
            network_from_text("".join(lines[:second]))

    def test_classifier_beta_other_than_header_rejected(self):
        network, *_ = self.trained_network()
        text = network_to_text(network)
        assert "\nclassifier\tbeta=0.6\t" in text
        with pytest.raises(ValueError, match="betas differ from the header's"):
            network_from_text(text.replace("\nclassifier\tbeta=0.6\t",
                                           "\nclassifier\tbeta=0.65\t", 1))

    @pytest.mark.parametrize(
        "prefix, bad_row",
        [("cloud\t", "cloud\t0"), ("classifier\t", "classifier\tbeta=0.5"),
         ("classifier\t", "classifier\t0.5\tmistakes=0")],
    )
    def test_bad_cloud_or_classifier_row_rejected(self, prefix, bad_row):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith(prefix))
        lines[row] = bad_row
        with pytest.raises(ValueError, match="expected"):
            network_from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("bad_row", ["{n_features}\t0.5", "-2\t0.5", "0"])
    def test_bad_weight_row_rejected(self, bad_row):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("0\t"))
        lines[row] = bad_row.format(n_features=len(network.features))
        with pytest.raises(ValueError, match="weight row"):
            network_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "betas", [(0.5,), (0.9, 0.5, 0.7), (0.5, 0.6, 0.7, 0.8), (0.8, 0.55, 0.6, 0.3, 0.9, 0.65)]
)
def test_one_layer_classifier_takes_the_median_beta(betas):
    network = WinnowNetwork(confusion_set_from_text("dax, fep"), (), WinnowParams(betas=betas),
                            layer_mode=ONE_LAYER)
    assert [c.beta for cloud in network.clouds for c in cloud.classifiers] == (
        [statistics.median(betas)] * 2
    )
