import math
import random
import re
import statistics

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from winspell.bayes import train_bayes
from winspell.corpus import confusion_set_from_text, find_occurrences
from winspell.evaluation import TrainingSet, train_system_model
from winspell.features import (
    ExtractionParams,
    FeatureStats,
    UNPRUNED,
    extract_active,
    prune,
)
from winspell.winnow import (
    ALPHA,
    BETAS,
    BIAS_ID,
    CYCLES,
    DEFAULT_WEIGHT,
    FULL,
    ONE_LAYER,
    SPARSE,
    THETA,
    TWO_LAYER,
    UNTRAINED_HORIZON,
    Cloud,
    WinnowClassifier,
    WinnowNetwork,
    _presentation,
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
)

from helpers import (
    EMPTY_TAGS,
    context_word,
    corpus_of,
    ids_of,
    index_of,
    stats_from_counts,
    winnow_train_example,
)

F1, F2, F3 = context_word("f1"), context_word("f2"), context_word("f3")
# Their feature ids in a network over them: positions in sorted order.
I1, I2, I3 = 0, 1, 2


def link(cloud, f, weight):
    """Link feature id ``f`` at ``weight`` in every classifier of ``cloud``."""
    cloud.linked.add(f)
    for classifier in cloud.classifiers:
        classifier.weights[f] = weight


def unit(weights=None, n_features=3):
    """A cloud of one classifier (beta 0.5) over ``n_features`` feature ids,
    or as many as ``weights`` needs, linked to ``weights`` (feature id ->
    weight)."""
    weights = weights or {}
    n_features = max([n_features, *(f + 1 for f in weights)])
    cloud = Cloud(0, [WinnowClassifier(0.5, n_features)])
    for f, w in weights.items():
        link(cloud, f, w)
    return cloud


def weights_of(cloud, k=0):
    """Classifier k's weights of the cloud's linked features, by feature id."""
    weights = cloud.classifiers[k].weights
    return {f: weights[f] for f in cloud.linked}


def unlinked_weights(network):
    """The weight of every feature id, the bias's included, that its cloud
    has not linked, in every classifier."""
    return [
        classifier.weights[f]
        for cloud in network.clouds
        for classifier in cloud.classifiers
        for f in range(BIAS_ID, len(network.features))
        if f not in cloud.linked
    ]


def predict(cloud, active):
    return winnow_predict(cloud.classifiers[0], _presentation(active))


class TestPredict:
    def test_empty_active_set(self):
        assert predict(unit({I1: 5.0}), ()) == 0

    def test_sum_above_threshold(self):
        assert predict(unit({I1: 0.6, I2: 0.5}), (I1, I2)) == 1

    def test_unconnected_contributes_zero(self):
        cloud = unit({I1: 0.6})
        assert cloud.linked == {I1}
        assert cloud.classifiers[0].weights[I3] == 0.0
        assert predict(cloud, (I1, I3)) == 0

    def test_sum_equal_to_threshold_is_negative(self):
        assert predict(unit({I1: 1.0}), (I1,)) == 0

    def test_connected_bias_is_active_on_every_example(self):
        cloud = unit({I1: 0.6, BIAS_ID: 0.5})
        assert _presentation(())[2] == (BIAS_ID,)
        assert predict(unit({BIAS_ID: 1.5}), ()) == 1
        assert predict(cloud, (I1,)) == 1


# Non-negative weights over many magnitudes, so plain sums of them round.
WEIGHTS = st.lists(
    st.one_of(
        st.floats(0.0, 2.0),
        st.floats(0.0, 1e-12),
        st.sampled_from([0.0, 0.1, 0.1 * 1.5**7, 0.1 * 0.5**9, 1 / 3]),
    ),
    min_size=1,
    max_size=200,
)


def nudged(x, ulps):
    """``x`` moved ``ulps`` representable floats up (negative: down)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else -math.inf)
    return x


class TestFilteredThreshold:
    """The threshold test sums plainly and calls math.fsum only near THETA;
    it must decide as the exactly rounded sum does. Python 3.12 made sum()
    compensated, so the CI matrix (3.10-3.13) checks both summation rules."""

    @given(WEIGHTS, st.data())
    @settings(max_examples=500, deadline=None)
    def test_decides_as_fsum_does(self, weights, data):
        # Scale the weights so that their sum lands on, near or far from THETA.
        center = data.draw(st.sampled_from([math.fsum(weights), sum(weights)]))
        assume(center > 0)
        scale = data.draw(st.one_of(
            st.integers(-4, 4).map(lambda ulps: nudged(THETA / center, ulps)),
            st.floats(0.01, 100.0).map(lambda factor: THETA / center * factor),
            st.floats(1e-300, 1e3),
        ))
        assume(math.isfinite(scale))
        weights = [w * scale for w in weights]
        want = math.fsum(weights) > THETA
        cloud = unit(dict(enumerate(weights)))
        active = tuple(range(len(weights)))
        assert predict(cloud, active) == want
        # A negative example is a mistake exactly when the weights exceed
        # THETA; training decides by its own inlined copy of the test.
        winnow_train_example(cloud, active, 0)
        assert cloud.classifiers[0].mistakes == want

    def test_plain_sum_an_ulp_short_is_resummed(self):
        # Before Python 3.12, sum() of these weights is 1.0, THETA, as each
        # 2**-53 is rounded away; their exactly rounded sum is above it.
        weights = [1.0, 2**-53, 2**-53]
        assert predict(unit(dict(enumerate(weights))), (0, 1, 2)) == 1


class TestTrainExample:
    def test_positive_example_connects_then_promotes(self):
        cloud = unit()
        winnow_train_example(cloud, (I1, I2), 1)
        assert weights_of(cloud)[I1] == pytest.approx(0.15)
        assert weights_of(cloud)[I2] == pytest.approx(0.15)
        assert cloud.classifiers[0].mistakes == 1

    def test_correct_negative_changes_nothing(self):
        cloud = unit({I1: 0.8})
        winnow_train_example(cloud, (I1,), 0)
        assert weights_of(cloud) == {I1: 0.8}
        assert cloud.classifiers[0].mistakes == 0

    def test_false_positive_demotes(self):
        cloud = unit({I1: 1.2})
        winnow_train_example(cloud, (I1,), 0)
        assert weights_of(cloud)[I1] == pytest.approx(0.6)
        assert cloud.classifiers[0].mistakes == 1

    def test_negative_example_never_connects(self):
        cloud = unit()
        winnow_train_example(cloud, (I1, I2), 0)
        assert weights_of(cloud) == {}

    def test_inactive_weights_untouched(self):
        cloud = unit({I1: 0.4, I3: 2.0})
        winnow_train_example(cloud, (I1,), 1)
        assert weights_of(cloud)[I3] == 2.0

    def test_each_classifier_decides_for_itself(self):
        # One shared table, two classifiers: only the one whose sum exceeds
        # theta on a negative example is demoted, by its own beta.
        cloud = Cloud(0, [WinnowClassifier(0.5, 3), WinnowClassifier(0.9, 3)])
        link(cloud, I1, 0.4)
        cloud.classifiers[1].weights[I1] = 2.0
        winnow_train_example(cloud, (I1, I2), 0)
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
            winnow_train_example(cloud, tuple(sorted(active)), label)
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
            winnow_train_example(cloud, active, label)
            if predicted == label and label == 0:
                assert (weights_of(cloud), cloud.classifiers[0].mistakes) == before


class TestGamma:
    def test_endpoints(self):
        assert gamma_at(100, 0) == 1.0
        assert gamma_at(100, 100) == 0.67
        assert gamma_at(100, 5000) == 0.67

    def test_halfway(self):
        assert gamma_at(100, 50) == pytest.approx(0.7525)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gamma_at(UNTRAINED_HORIZON, -1)

    @given(st.integers(0, 2000), st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_non_increasing(self, t1, t2):
        lo, hi = sorted((t1, t2))
        assert gamma_at(500, hi) <= gamma_at(500, lo)
        assert 0.67 <= gamma_at(500, t1) <= 1.0


def cloud_with(mistakes, votes, member_index=0):
    """Cloud whose classifiers have the given mistake counts and whose votes
    are forced via a single feature weight."""
    cloud = Cloud(member_index, [WinnowClassifier(0.5, 3) for _ in mistakes])
    link(cloud, I1, 0.0)
    for classifier, m, vote in zip(cloud.classifiers, mistakes, votes):
        classifier.mistakes = m
        classifier.weights[I1] = 2.0 if vote else 0.0
    return cloud


class TestCloudActivation:
    def test_unanimous(self):
        cloud = cloud_with([1, 2, 3, 4, 5], [1, 1, 1, 1, 1])
        cloud.examples_seen = 10
        assert cloud_activation(cloud, _presentation((I1,)), 10) == 1.0
        cloud = cloud_with([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert cloud_activation(cloud, _presentation((I1,)), 10) == 0.0

    def test_mistake_weighted_vote(self):
        # gamma fixed at 0.9 by a horizon T reached mid-course:
        # 0.67 + 0.33 * (1 - t/T)^2 = 0.9 at 1 - t/T = sqrt(23/33).
        cloud = cloud_with([0, 0, 10, 10, 10], [1, 1, 0, 0, 0])
        t = round((1 - math.sqrt(23 / 33)) * 10**9)
        cloud.examples_seen = t
        gamma = gamma_at(10**9, t)
        assert gamma == pytest.approx(0.9, abs=1e-9)
        activation = cloud_activation(cloud, _presentation((I1,)), 10**9)
        assert activation == pytest.approx(2 / (2 + 3 * 0.9**10), abs=1e-6)
        assert activation == pytest.approx(0.6565926, abs=1e-4)

    def test_equal_mistakes_is_plain_fraction(self):
        cloud = cloud_with([7, 7, 7, 7], [1, 0, 1, 0])
        cloud.examples_seen = 3
        assert cloud_activation(cloud, _presentation((I1,)), UNTRAINED_HORIZON) == pytest.approx(0.5)

    def test_vote_weights_past_underflow_stay_weighted_majority(self):
        # Past the horizon gamma is 0.67, and 0.67**m is 0.0 from m = 1,861.
        # With every classifier past that, weights relative to the least
        # mistakes (1, 1, 0.67**600) still give the weighted majority, 1/2,
        # not the plain vote fraction 1/3.
        assert 0.67**1860 == 5e-324 and 0.67**1861 == 0.0
        cloud = cloud_with([1900, 1900, 2500], [1, 0, 0])
        cloud.examples_seen = 10**6
        assert gamma_at(UNTRAINED_HORIZON, cloud.examples_seen) == 0.67
        assert cloud_activation(cloud, _presentation((I1,)), UNTRAINED_HORIZON) == 1 / 2

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 1)),
                    min_size=1, max_size=8),
           st.integers(0, 2000))
    @settings(max_examples=100, deadline=None)
    def test_bounded(self, spec, seen):
        cloud = cloud_with([m for m, _ in spec], [v for _, v in spec])
        cloud.examples_seen = seen
        activation = cloud_activation(cloud, _presentation((I1,)), UNTRAINED_HORIZON)
        assert 0.0 <= activation <= 1.0


def reference_activation(cloud, votes, horizon):
    """The weighted-majority vote as defined, with each weight relative to
    the least-mistaken classifier's: gamma**(m - least) * vote and
    gamma**(m - least) accumulated with sequential +=."""
    gamma = gamma_at(horizon, cloud.examples_seen)
    least = min(classifier.mistakes for classifier in cloud.classifiers)
    numerator = denominator = 0.0
    for classifier, vote in zip(cloud.classifiers, votes):
        numerator += gamma ** (classifier.mistakes - least) * vote
        denominator += gamma ** (classifier.mistakes - least)
    return numerator / denominator


class TestActivationBits:
    """cloud_activation gives the reference's bits. Python 3.12 made sum()
    compensated, so the CI matrix (3.10-3.13) checks both summation rules."""

    # Few mistakes, any count, or counts near and past 1,860, from which
    # 0.67**m underflows to 0.0.
    MISTAKES = st.one_of(st.integers(0, 40), st.integers(0, 2500), st.integers(1850, 2500))

    @given(st.lists(st.tuples(MISTAKES, st.integers(0, 1)), min_size=1, max_size=8),
           st.one_of(st.integers(0, 2 * UNTRAINED_HORIZON), st.just(10**6)))
    @example([(1900, 1), (1900, 0), (2500, 0)], 10**6)
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference(self, spec, seen):
        votes = [v for _, v in spec]
        cloud = cloud_with([m for m, _ in spec], votes)
        cloud.examples_seen = seen
        got = cloud_activation(cloud, _presentation((I1,)), UNTRAINED_HORIZON)
        assert got.hex() == reference_activation(cloud, votes, UNTRAINED_HORIZON).hex()


def toy_network(cycles=CYCLES, **kwargs):
    cset = confusion_set_from_text("dax, fep")
    universe = index_of((F1, F2, F3))
    return WinnowNetwork(cset, universe, cycles, ExtractionParams(), **kwargs)


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

    def test_one_layer_example_without_features_reads_the_bias_alone(self):
        # Every feature weighs 2.0, so reading more than the bias would show.
        network = toy_network(1, layer_mode=ONE_LAYER)
        for cloud, bias in zip(network.clouds, (0.3, 1.7)):
            for f in (I1, I2, I3):
                link(cloud, f, 2.0)
            link(cloud, BIAS_ID, bias)
        assert classify_winnow(network, ()).scores == (0.3, 1.7)
        train_network(network, [((), 0)])
        weights = [cloud.classifiers[0].weights for cloud in network.clouds]
        assert [w[:BIAS_ID] for w in weights] == [[2.0] * 3] * 2
        assert [w[BIAS_ID] for w in weights] == [0.3 * ALPHA, 1.7 * BETAS[len(BETAS) // 2]]


class TestTrainNetwork:
    def test_examples_seen_counts_cycles(self):
        network = toy_network()
        stream = [((I1,), 0)] * 10
        train_network(network, stream)
        assert all(cloud.examples_seen == 50 for cloud in network.clouds)
        assert network.horizon == 50

    def test_positive_for_correct_member_only(self):
        network = toy_network(1)
        train_network(network, [((I1,), 0)])
        # Member 0's cloud linked the active features; member 1's did not.
        assert I1 in network.clouds[0].linked
        assert I1 not in network.clouds[1].linked

    def test_wrongly_firing_negative_cloud_demoted(self):
        network = toy_network(1)
        cloud = network.clouds[1]
        link(cloud, I1, 2.0)
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
            assert cloud.linked - {BIAS_ID} <= positives

    def test_disjunction_mistakes_scale_with_relevant_features(self):
        # Planted 3-of-1000 disjunction: the concept cloud's classifiers stay
        # within 2.5 * r * (1 + log2 n) mistakes while learning it.
        rng = random.Random(7)
        n, r = 1000, 3
        features = [context_word(f"g{i}") for i in range(n)]
        relevant = range(r)  # feature ids
        cset = confusion_set_from_text("dax, fep")
        network = WinnowNetwork(cset, index_of(features), 1,
                                ExtractionParams())
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
    """Plain example-major training in the reference's own per-cloud table,
    feature id -> weight per classifier: every presentation links, then
    looks up, the active features of each cloud, the bias (id -1) among
    them. The network keeps its weights; the table is returned in
    ``network_state``'s form."""
    tables = [
        {f: [clf.weights[f] for clf in cloud.classifiers] for f in cloud.linked}
        for cloud in network.clouds
    ]
    examples = [((BIAS_ID, *active), member) for active, member in stream]
    if examples:
        network.horizon = network.cycles * len(examples)
    for _ in range(network.cycles):
        for active, member in examples:
            for cloud, table in zip(network.clouds, tables):
                label = 1 if cloud.member_index == member else 0
                if label:
                    for f in active:
                        if f not in table:
                            table[f] = [DEFAULT_WEIGHT] * len(cloud.classifiers)
                present = [f for f in active if f in table]
                for k, clf in enumerate(cloud.classifiers):
                    total = math.fsum(table[f][k] for f in present)
                    if (1 if total > THETA else 0) != label:
                        factor = ALPHA if label else clf.beta
                        for f in present:
                            table[f][k] *= factor
                        clf.mistakes += 1
                cloud.examples_seen += 1
    return (
        network.horizon,
        [
            (set(table), cloud.examples_seen,
             [(clf.beta, {f: row[k] for f, row in table.items()}, clf.mistakes)
              for k, clf in enumerate(cloud.classifiers)])
            for cloud, table in zip(network.clouds, tables)
        ],
    )


def network_state(network):
    """The horizon, and per cloud its link set, examples seen and each
    classifier's beta, weights of linked features by id, and mistakes."""
    return (
        network.horizon,
        [
            (cloud.linked, cloud.examples_seen,
             [(clf.beta, weights_of(cloud, k), clf.mistakes)
              for k, clf in enumerate(cloud.classifiers)])
            for cloud in network.clouds
        ],
    )


class TestTrainNetworkMatchesReference:
    @given(
        st.integers(1, 6),
        st.integers(2, 3),
        st.data(),
        st.sampled_from([ONE_LAYER, TWO_LAYER]),
        st.sampled_from(["uniform", "bayesian", "bayesian+sparsify"]),
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
            network = WinnowNetwork(cset, index_of(features), cycles,
                                    ExtractionParams(), layer_mode=layer_mode)
            if start != "uniform":
                stats = FeatureStats(cset, ExtractionParams())
                stats.occurrences = [4] * members
                stats.counts = dict(zip((f.key() for f in features), counts))
                model = train_bayes(stats, index_of(features), dependency_resolution=False)
                init_bayesian(network, model)
                if start == "bayesian+sparsify":
                    sparsify(network, model.counts)
            return network

        trained = build()
        train_network(trained, stream)
        assert network_state(trained) == reference_train(build(), stream)
        assert not any(unlinked_weights(trained))

    def test_negative_before_the_positive_that_connects_its_feature(self):
        # Cloud 0 first meets I1 in a negative example, unlinked; the
        # positive after it links I1, so from the second cycle on that
        # negative reaches I1 too, and in the fifth it fires and is demoted.
        stream = [((I1,), 1), ((I1,), 0)]
        trained, oracle = toy_network(), toy_network()
        train_network(trained, stream)
        oracle.horizon = CYCLES * len(stream)
        for _ in range(CYCLES):
            for active, member in stream:
                for cloud in oracle.clouds:
                    winnow_train_example(cloud, active, int(member == cloud.member_index))
        assert network_state(trained) == network_state(oracle)

    def test_negative_reads_a_feature_linked_later_as_zero(self):
        # Cloud 0's first example is negative: I1 at 0.85 and the bias at 0.1
        # sum to 0.95, below THETA, while I2, which only the positive after it
        # links, adds 0.0; read at the default weight it would fire.
        network = toy_network(1)
        cloud = network.clouds[0]
        link(cloud, I1, 0.85)
        train_network(network, [((I1, I2), 1), ((I2,), 0)])
        for k, clf in enumerate(cloud.classifiers):
            assert clf.mistakes == 1  # the missed positive only
            assert weights_of(cloud, k) == {
                BIAS_ID: DEFAULT_WEIGHT * ALPHA, I1: 0.85, I2: DEFAULT_WEIGHT * ALPHA
            }

    def test_underflowed_weight_stays_connected(self):
        network = toy_network(1)
        cloud = network.clouds[1]
        link(cloud, I1, 2.0)
        link(cloud, I2, 5e-324)  # the smallest subnormal
        # The first example is negative for cloud 1, which fires: demoting by
        # 0.5 rounds the smallest subnormal to 0.0. The second, positive
        # example is missed and promotes that 0.0; I2 is not linked again at
        # the default weight.
        train_network(network, [((I1, I2), 0), ((I2,), 1)])
        assert weights_of(cloud)[I2] == 0.0
        assert cloud.classifiers[0].mistakes == 2
        assert f"\n{I2}\t0.0\n" in network_to_text(network)


class TestInitBayesian:
    def build_pair(self, counts, occurrences):
        stats = stats_from_counts(counts, occurrences)
        model = train_bayes(stats, prune(stats, UNPRUNED), dependency_resolution=False)
        network = WinnowNetwork(
            stats.confusion_set, model.feature_ids, CYCLES, ExtractionParams(),
            layer_mode=ONE_LAYER,
        )
        return model, network

    def test_connects_every_feature_and_makes_network_full(self):
        model, network = self.build_pair({"f": [2, 1], "g": [0, 1]}, [3, 1])
        assert network.architecture == SPARSE
        assert all(cloud.linked == {BIAS_ID} for cloud in network.clouds)
        init_bayesian(network, model)
        assert network.architecture == FULL
        for cloud in network.clouds:
            assert cloud.linked == {BIAS_ID, *range(len(model.features))}
            assert all(len(c.weights) == len(cloud.linked) for c in cloud.classifiers)

    def test_zero_likelihood_floor_and_shift(self):
        # An all-zero count row has unigram 0, so its smoothed likelihood is
        # 0 for both members: raw logs -500, so the shift is 500, f's weights
        # 0 and the biases log(prior) + 500, 499.5945... and 498.9013....
        model, network = self.build_pair({"f": [0, 0]}, [4, 2])
        init_bayesian(network, model)
        f = network.feature_ids[context_word("f").key()]
        assert [weights_of(cloud)[f] for cloud in network.clouds] == [0.0, 0.0]
        b0 = weights_of(network.clouds[0])[BIAS_ID]
        b1 = weights_of(network.clouds[1])[BIAS_ID]
        assert b0 == pytest.approx(math.log(4 / 6) + 500, abs=1e-9)
        assert b0 == pytest.approx(499.5945349, abs=1e-6)
        assert b1 == pytest.approx(math.log(2 / 6) + 500, abs=1e-9)

    def test_unit_likelihoods_map_to_zero_logs(self):
        # Counts equal to the member occurrence totals give MLE and unigram
        # likelihood 1 everywhere, so feature logs are 0 and only the prior
        # shifts.
        model, network = self.build_pair({"f": [2, 2]}, [2, 2])
        init_bayesian(network, model)
        f = network.feature_ids[context_word("f").key()]
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
            model.confusion_set, index_of([context_word("g")]), CYCLES, ExtractionParams(),
            layer_mode=ONE_LAYER,
        )
        with pytest.raises(ValueError, match="feature sets"):
            init_bayesian(other, model)


class TestSparsify:
    def test_drops_undemonstrated_links_keeps_bias(self):
        stats = stats_from_counts({"f1": [2, 0], "f2": [1, 2]}, [2, 2])
        model = train_bayes(stats, prune(stats, UNPRUNED), dependency_resolution=False)
        network = WinnowNetwork(stats.confusion_set, model.feature_ids, CYCLES,
                                ExtractionParams())
        init_bayesian(network, model)
        full = [[weights_of(cloud, k) for k in range(len(cloud.classifiers))]
                for cloud in network.clouds]
        sparsify(network, model.counts)
        assert network.architecture == SPARSE
        assert network.clouds[0].linked == {BIAS_ID, I1, I2}
        assert network.clouds[1].linked == {BIAS_ID, I2}
        assert unlinked_weights(network) == [0.0] * len(BETAS)
        for cloud, before in zip(network.clouds, full):
            for k, clf in enumerate(cloud.classifiers):
                assert len(clf.weights) == len(network.features) + 1
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
        stats = stats_from_counts({"f1": [2, 0], "f2": [1, 2], "f3": [1, 1]}, [2, 2])
        network = WinnowNetwork(stats.confusion_set, index_of((F1, F2, F3)), 2,
                                ExtractionParams(), layer_mode=layer_mode)
        if start != "uniform":
            model = train_bayes(stats, prune(stats, UNPRUNED),
                                dependency_resolution=False)
            init_bayesian(network, model)
            if start == "bayesian+sparsify":
                sparsify(network, model.counts)
        assert not any(unlinked_weights(network))
        examples = [(ids_of(network, active), member) for active, member in stream]
        train_network(network, examples)
        for cloud in network.clouds:
            assert all(len(c.weights) == len(network.features) + 1 for c in cloud.classifiers)
        assert not any(unlinked_weights(network))
        text = network_to_text(network)
        loaded = network_from_text(text)
        assert network_to_text(loaded) == text
        assert network_state(loaded) == network_state(network)
        assert not any(unlinked_weights(loaded))
        for active, _ in examples + [((), 0)]:
            assert classify_winnow(loaded, active) == classify_winnow(network, active)


class TestSerialization:
    def trained_network(self):
        corpus = corpus_of(
            "a dax rix b .", "c fep zor d .", "a dax rix c .", "b fep zor a ."
        )
        cset = confusion_set_from_text("dax, fep")
        params = ExtractionParams(k=3)
        training = TrainingSet(find_occurrences(corpus, cset), cset, params,
                               EMPTY_TAGS, UNPRUNED)
        network = WinnowNetwork(cset, training.retained, CYCLES, params,
                                priors=(0.5, 0.5))
        train_network(network, training.stream)
        return network, params, network.feature_ids, corpus, cset

    def one_layer_full_network(self):
        """A ``winnow-1layer`` network: full, one classifier per cloud."""
        network, params, _, corpus, cset = self.trained_network()
        training = TrainingSet(find_occurrences(corpus, cset), cset, params,
                               EMPTY_TAGS, UNPRUNED)
        network = train_system_model("winnow-1layer", training, CYCLES)
        assert network.architecture == FULL
        assert [len(cloud.classifiers) for cloud in network.clouds] == [1, 1]
        return network

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
        stats.counts = {F1.key(): [2, 0], F2.key(): [1, 2]}
        model = train_bayes(stats, prune(stats, UNPRUNED), dependency_resolution=False)
        network = WinnowNetwork(cset, index_of((F1, F2)), CYCLES, ExtractionParams(),
                                layer_mode=ONE_LAYER)
        init_bayesian(network, model)
        text = network_to_text(network)
        again = network_to_text(network_from_text(text))
        assert again == text
        assert network_from_text(text).layer_mode == ONE_LAYER
        assert network_from_text(text).architecture == FULL

    @staticmethod
    def row_by_row_text(network):
        """network_to_text's head, then every cloud with each weight row
        spelled on its own as f"{f}\\t{w!r}"."""
        text = network_to_text(network)
        lines = [text[: text.index("\ncloud\t")]]
        for cloud in network.clouds:
            lines.append(f"cloud\t{cloud.member_index}\texamples_seen={cloud.examples_seen}")
            for c in cloud.classifiers:
                lines.append(f"classifier\tbeta={c.beta!r}\tmistakes={c.mistakes}")
                lines += [f"{f}\t{c.weights[f]!r}" for f in sorted(cloud.linked)]
        return "\n".join(lines) + "\n"

    def test_writer_spells_each_row_as_its_own_weight(self):
        # One weight in many rows, 0.0 and -0.0 in both orders, and the least
        # and a large finite weight: each row is the repr of its own weight.
        cws = [context_word(w) for w in ("a", "b", "c", "d")]
        network = WinnowNetwork(confusion_set_from_text("dax, fep"), index_of(cws), CYCLES,
                                ExtractionParams())
        weights = [[0.1, 0.1, 0.1, 0.1, 0.1],
                   [0.0, -0.0, 5e-324, 1e308, 0.1],
                   [-0.0, 0.0, 1e308, 5e-324, 0.0],
                   [-0.0, -0.0, 0.0, 0.0, -0.0],
                   [0.1, 0.0, 0.1, -0.0, 5e-324]]
        for cloud in network.clouds:
            cloud.linked = set(range(BIAS_ID, len(cws)))
            for classifier, row in zip(cloud.classifiers, weights):
                classifier.weights = list(row)
            weights.reverse()
        text = network_to_text(network)
        assert text == self.row_by_row_text(network)
        assert all(f"\t{w}\n" in text for w in ("0.0", "-0.0", "5e-324", "1e+308"))
        assert network_to_text(network_from_text(text)) == text

    def test_writer_matches_row_by_row_on_trained_networks(self):
        network, *_ = self.trained_network()
        assert network_to_text(network) == self.row_by_row_text(network)
        network = self.one_layer_full_network()
        assert network_to_text(network) == self.row_by_row_text(network)

    @pytest.mark.parametrize("zeros", [("0.0", "-0.0"), ("-0.0", "0.0")])
    def test_both_zeros_reload_to_their_own_bytes(self, zeros):
        network, *_ = self.trained_network()
        lines = network_to_text(network).splitlines()
        rows = [n for n, line in enumerate(lines) if re.fullmatch(r"-?\d+\t[\d.e+-]+", line)]
        for n, zero in zip((rows[0], rows[-1]), zeros):
            lines[n] = lines[n].split("\t")[0] + "\t" + zero
        edited = "\n".join(lines) + "\n"
        assert network_to_text(network_from_text(edited)) == edited

    def test_rejects_foreign_text(self):
        with pytest.raises(ValueError):
            network_from_text("BAYES v1\n")

    @pytest.mark.parametrize("init", ["trained", "bayesian"])
    def test_weight_row_f_is_weights_f(self, init):
        # Weights are indexed by feature id, the bias (id -1) the last entry.
        network, params, _, corpus, cset = self.trained_network()
        if init == "bayesian":
            training = TrainingSet(find_occurrences(corpus, cset), cset, params,
                                   EMPTY_TAGS, UNPRUNED)
            network = WinnowNetwork(cset, training.retained, CYCLES, params)
            init_bayesian(network, training.bayes)
        n_features = len(network.features)
        classifiers = iter([c for cloud in network.clouds for c in cloud.classifiers])
        rows = 0
        for line in network_to_text(network).splitlines()[11 + n_features :]:
            name, *values = line.split("\t")
            if name == "classifier":
                weights = next(classifiers).weights
                assert len(weights) == n_features + 1
            elif name != "cloud":
                f = int(name)
                assert values == [repr(weights[f])]
                if f == BIAS_ID:
                    assert values == [repr(weights[-1])]
                rows += 1
        assert next(classifiers, None) is None
        linked = sum(len(cloud.linked) * len(cloud.classifiers) for cloud in network.clouds)
        assert rows == linked
        if init == "bayesian":
            assert rows == (n_features + 1) * len(BETAS) * len(network.clouds)


def test_one_layer_classifier_takes_the_median_beta():
    network = WinnowNetwork(confusion_set_from_text("dax, fep"), index_of(()),
                            layer_mode=ONE_LAYER)
    assert [c.beta for cloud in network.clouds for c in cloud.classifiers] == (
        [statistics.median(BETAS)] * 2
    )
