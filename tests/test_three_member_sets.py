"""Confusion sets with three members exercise the member-vs-rest paths."""

import random
from collections import Counter

import pytest

from winspell.bayes import classify_bayes, train_bayes
from winspell.corpus import (
    confusion_set_from_text,
    corrupt,
    find_occurrences,
    restore,
    tokenize,
)
from winspell.evaluation import evaluate_systems
from winspell.features import (
    ExtractionParams,
    FeatureStats,
    PRUNED,
    UNPRUNED,
    prune,
)
from winspell.winnow import ALPHA, BETAS, THETA, WinnowNetwork

from helpers import EMPTY_TAGS, context_word, index_of

CSET = confusion_set_from_text("cite, sight, site")
MARKERS = ("mema", "memb", "memc")


def three_way_corpus(seed, counts):
    rng = random.Random(seed)
    pool = ["the", "on", "by", "it", "was", "near", "old", "every"]
    sentences = []
    for mi, count in enumerate(counts):
        for _ in range(count):
            left = rng.sample(pool, 2)
            right = rng.sample(pool, 2)
            sentences.append(tokenize(" ".join(
                [*left, MARKERS[mi], CSET.member_text(mi), MARKERS[mi], *right, "."]
            )))
    rng.shuffle(sentences)
    return sentences


class TestCorruptThreeMembers:
    def test_flips_spread_over_both_other_members(self):
        corpus = three_way_corpus(0, (300, 0, 0))
        corrupted, log = corrupt(corpus, CSET, 100, seed=1)
        assert len(log) == 300
        targets = Counter(entry.new_member for entry in log)
        assert set(targets) == {1, 2}
        # Uniform choice between the two alternatives: roughly half each.
        assert 100 < targets[1] < 200

    def test_restore_round_trip(self):
        corpus = three_way_corpus(2, (20, 15, 10))
        corrupted, log = corrupt(corpus, CSET, 60, seed=5)
        assert restore(corrupted, CSET, log) == corpus


class TestPruneThreeMembers:
    def test_member_specific_feature_survives_chi_square(self):
        # A feature tied only to the third member: each member-vs-rest table
        # must be tried, not just the first member's.
        stats = FeatureStats(CSET, ExtractionParams())
        stats.occurrences = [100, 100, 100]
        stats.counts = {
            context_word("onlyc").key(): [0, 0, 60],
            context_word("flat").key(): [40, 40, 40],
        }
        retained = prune(stats, PRUNED)
        assert context_word("onlyc") in retained.features
        assert context_word("flat") not in retained.features


class TestClassifyThreeMembers:
    def test_priors_sum_and_posterior_picks_planted_member(self):
        corpus = three_way_corpus(3, (60, 50, 40))
        from winspell.features import collect_stats

        stats = collect_stats(corpus, CSET, ExtractionParams(), EMPTY_TAGS)
        assert stats.occurrences == [60, 50, 40]
        model = train_bayes(stats, prune(stats, UNPRUNED))
        assert sum(model.priors) == pytest.approx(1.0, abs=1e-12)
        test = three_way_corpus(4, (3, 3, 3))
        from winspell.features import extract_active

        for occ in find_occurrences(test, CSET):
            active = extract_active(occ, model.feature_ids, ExtractionParams(), EMPTY_TAGS)
            assert classify_bayes(model, active).chosen == occ.member_index

    def test_all_systems_handle_three_clouds(self):
        train = three_way_corpus(5, (60, 50, 40))
        test = three_way_corpus(6, (5, 5, 5))
        result = evaluate_systems(
            find_occurrences(train, CSET), find_occurrences(test, CSET), CSET, EMPTY_TAGS,
            ["baseline", "bayes", "winnow", "winnow-bayes-init"],
            mode=UNPRUNED, extraction=ExtractionParams(k=3),
        )
        assert result.percent("winnow") == 100.0
        assert result.percent("bayes") == 100.0
        assert result.percent("baseline") == pytest.approx(100 / 3)


class TestParamValidation:
    def test_extraction_params(self):
        with pytest.raises(ValueError):
            ExtractionParams(k=0)
        with pytest.raises(ValueError):
            ExtractionParams(l=3)

    def test_winnow_params(self):
        # The fixed parameters are a Winnow setting: a positive threshold,
        # promotion above 1, demotions strictly between 0 and 1.
        assert THETA > 0 and ALPHA > 1 and BETAS and all(0 < b < 1 for b in BETAS)
        with pytest.raises(ValueError, match="^cycles must be >= 1$"):
            WinnowNetwork(CSET, index_of(()), cycles=0)

    def test_unknown_pruning_mode(self):
        with pytest.raises(ValueError):
            prune(FeatureStats(CSET, ExtractionParams()), "aggressive")
