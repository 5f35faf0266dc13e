"""Shared synthetic corpora and independent oracles for the test suite."""

from __future__ import annotations

import math
import random
import re

from winspell.corpus import (
    ConfusionSet,
    Sentence,
    TagDictionary,
    confusion_set_from_text,
    corrupt,
    tokenize,
)
from winspell.features import (
    COLLOCATION,
    CONTEXT_WORD,
    ExtractionParams,
    Feature,
    FeatureStats,
    index_features,
)
from winspell.winnow import _learn, _presentation

EMPTY_TAGS = TagDictionary()

CONTEXT_POOL = (
    "the", "on", "by", "it", "was", "went", "every", "time", "day", "road",
    "house", "tree", "green", "old", "near", "small", "again", "slowly",
)

# Frozen oracle tables for the statistical tests. Expected p-values were
# computed with scipy.stats (chi2.sf and norm.sf) and are pinned here so the
# tests stay independent of the implementation's closed forms.

# (a, b, c, d) -> (statistic, p)
CHI2_ORACLE = [
    ((10, 10, 10, 10), 0.0, 1.0),
    ((20, 5, 5, 20), 18.0, 2.2090497e-05),
    ((20, 20, 80, 80), 0.0, 1.0),
    ((1, 9, 9, 1), 12.8, 0.0003466193511),
    ((50, 10, 10, 50), 53.33333333333, 2.814893342e-13),
    ((0, 10, 10, 10), 7.5, 0.006169899321),
    ((5, 0, 5, 5), 3.75, 0.05280751142),
    ((100, 50, 50, 100), 33.33333333333, 7.764036538e-09),
    ((3, 7, 8, 2), 5.050505050505, 0.02461876138),
    ((12, 34, 56, 78), 3.592805064738, 0.0580302134),
    ((9, 991, 10, 990), 0.0531363745, 0.8176929416),
    ((47, 58, 51, 47), 1.075545837, 0.2996961238),
]

# Discordant counts (b, c) -> p with continuity correction.
MCNEMAR_ORACLE = [
    ((20, 20), 0.8743670612),
    ((30, 5), 4.976233488e-05),
    ((0, 0), 1.0),
    ((1, 0), 1.0),
    ((10, 0), 0.004426525858),
    ((15, 5), 0.04417134491),
    ((100, 80), 0.1567238679),
    ((7, 3), 0.3427817111),
    ((2, 2), 0.6170750775),
    ((0, 12), 0.00149616429),
    ((40, 25), 0.08247788747),
    ((6, 1), 0.1305700181),
]

# (correct1, n1, correct2, n2) -> two-sided pooled z-test p.
TWO_PROPORTION_ORACLE = [
    ((90, 100, 80, 100), 0.04767038066),
    ((50, 100, 50, 100), 1.0),
    ((4180, 4336, 4341, 4560), 0.004701583247),
    ((96, 100, 95, 100), 0.7330310564),
    ((700, 1000, 650, 1000), 0.01698420058),
    ((10, 20, 15, 20), 0.1024704349),
    ((1, 10, 9, 10), 0.0003466193511),
    ((30, 40, 20, 40), 0.02092133534),
    ((100, 100, 100, 100), 1.0),
    ((0, 50, 0, 60), 1.0),
    ((55, 80, 45, 80), 0.1024704349),
    ((88, 120, 99, 140), 0.6394325615),
]


def mcnemar_outcome_pair(b, c, both_right=5, both_wrong=5):
    """Outcome sequences with the given discordant counts."""
    a_out = [True] * both_right + [False] * both_wrong + [True] * b + [False] * c
    b_out = [True] * both_right + [False] * both_wrong + [False] * b + [True] * c
    return a_out, b_out


def corpus_of(*texts: str) -> list[Sentence]:
    return [tokenize(t, i + 1) for i, t in enumerate(texts)]


def corpus_text(sentences) -> str:
    """The text of a corpus file holding ``sentences``, one a line."""
    return "\n".join(" ".join(s.surfaces) for s in sentences) + "\n"


def write_inputs(directory, sentences):
    """corpus.txt holding ``sentences``, sets.txt holding {dax, fep} and
    tags.tsv tagging rix and zor, written to ``directory``: their paths."""
    paths = directory / "corpus.txt", directory / "sets.txt", directory / "tags.tsv"
    for path, text in zip(paths, (corpus_text(sentences), "dax, fep\n", "rix\tMARK\nzor\tMARK\n")):
        path.write_text(text)
    return paths


def _pattern_sentence(
    rng: random.Random, member: str, pre: str | None, post: str | None
) -> Sentence:
    left = rng.sample(CONTEXT_POOL, 2)
    right = rng.sample(CONTEXT_POOL, 2)
    tokens = list(left)
    if pre is not None:
        tokens.append(pre)
    tokens.append(member)
    if post is not None:
        tokens.append(post)
    tokens += [*right, "."]
    return tokenize(" ".join(tokens))


def separable_corpus(
    seed: int = 0,
    train_counts: tuple[int, int] = (60, 40),
    test_counts: tuple[int, int] = (20, 15),
    pre_markers: tuple[str, str] = ("pix", "qig"),
    post_markers: tuple[str, str] = ("rix", "zor"),
):
    """Corpus where the tokens around the target determine the member: every
    dax sits between pix and rix, every fep between qig and zor."""
    rng = random.Random(seed)
    cset = ConfusionSet((("dax",), ("fep",)))
    members = ("dax", "fep")

    def build(counts):
        sentences = []
        for mi, count in enumerate(counts):
            for _ in range(count):
                sentences.append(
                    _pattern_sentence(rng, members[mi], pre_markers[mi], post_markers[mi])
                )
        rng.shuffle(sentences)
        return sentences

    return build(train_counts), build(test_counts), cset


def small_disjunct_corpus(seed: int = 0):
    """Separable corpus plus a rare-but-perfect pattern: the target between
    quib and quom always means fep, but that pattern occurs only 5 times in
    training (so occurrence-threshold pruning drops it)."""
    rng = random.Random(seed)
    cset = ConfusionSet((("dax",), ("fep",)))

    def rare_sentence(member="fep"):
        return _pattern_sentence(rng, member, "quib", "quom")

    train, test, _ = separable_corpus(
        seed=seed + 1, train_counts=(60, 40), test_counts=(20, 15)
    )
    train = train + [rare_sentence() for _ in range(5)]
    rng.shuffle(train)
    test = test + [rare_sentence() for _ in range(5)]
    return train, test, cset


def noisy_disjunct_corpus(seed: int = 0, pct: float = 10.0):
    """The small-disjunct corpus, train and test parts joined, with ~pct% of
    its occurrences flipped to the other member. The flipped labels make
    every trained Winnow variant both promote and demote, from uniform and
    from Bayesian weights alike."""
    train, test, cset = small_disjunct_corpus(seed)
    noisy, _ = corrupt(train + test, cset, pct, seed)
    return noisy, cset


def two_domain_pair(seed: int = 0, a_counts=(60, 40), b_count: int = 100):
    """Training domain A and test domain B with disjoint marker vocabulary.

    A's markers never occur in B; B's planted markers never occur in A, so a
    system trained on A alone cannot see B's signal.
    """
    rng = random.Random(seed)
    cset = ConfusionSet((("dax",), ("fep",)))
    members = ("dax", "fep")
    corpus_a = []
    for mi, count in enumerate(a_counts):
        for _ in range(count):
            corpus_a.append(
                _pattern_sentence(rng, members[mi], ("pixa", "qiga")[mi], ("rixa", "zora")[mi])
            )
    rng.shuffle(corpus_a)
    corpus_b = []
    for j in range(b_count):
        mi = j % 2
        corpus_b.append(
            _pattern_sentence(rng, members[mi], ("prib", "qorb")[mi], ("brix", "bzor")[mi])
        )
    rng.shuffle(corpus_b)
    return corpus_a, corpus_b, cset


def random_tiny_corpus(rng: random.Random):
    """A tiny two-member corpus whose feature universe (at k=1, l=1 with an
    empty tag dictionary) has at most 8 distinct features."""
    cset = ConfusionSet((("m0",), ("m1",)))
    vocab = ("u", "v")

    def build(count, force_both):
        sentences = []
        for j in range(count):
            tokens = []
            if rng.random() < 0.7:
                tokens.append(rng.choice(vocab))
            if force_both and j < 2:
                tokens.append(("m0", "m1")[j])
            else:
                tokens.append(rng.choice(("m0", "m1")))
            if rng.random() < 0.7:
                tokens.append(rng.choice(vocab))
            sentences.append(tokenize(" ".join(tokens)))
        return sentences

    train = build(rng.randint(6, 20), force_both=True)
    test = build(5, force_both=False)
    return train, test, cset


def oracle_bayes_scores(
    stats: FeatureStats, active, member_count: int
) -> list[float]:
    """Straight-line naive-Bayes computation with interpolative smoothing.

    Works directly from raw counts: per-member product of smoothed
    likelihoods times the prior, logged at the end. The chi-square mixing
    weight comes from scipy, independently of the implementation's closed
    form.
    """
    from scipy.stats import chi2

    total = sum(stats.occurrences)
    scores = []
    for i in range(member_count):
        n_i = stats.occurrences[i]
        factors = []
        for f in active:
            row = stats.counts[f]
            a = row[i]
            b = sum(row) - a
            c = n_i - a
            d = (total - n_i) - b
            denominator = (a + b) * (c + d) * (a + c) * (b + d)
            if denominator == 0:
                lam = 1.0
            else:
                statistic = (a + b + c + d) * (a * d - b * c) ** 2 / denominator
                lam = float(chi2.sf(statistic, 1))
            ml = a / n_i if n_i else 0.0
            unigram = sum(row) / total
            factors.append((1.0 - lam) * ml + lam * unigram)
        # Multiply in sorted order so members whose factor multisets are
        # permutations of each other tie exactly despite float rounding.
        value = n_i / total
        for factor in sorted(factors):
            value *= factor
        scores.append(math.log(value) if value > 0 else float("-inf"))
    return scores


def context_word(word: str) -> Feature:
    return Feature(CONTEXT_WORD, word=word)


def collocation(offsets, slots) -> Feature:
    return Feature(COLLOCATION, offsets=tuple(offsets), slots=tuple(slots))


def stats_from_counts(counts, occurrences) -> FeatureStats:
    """The stats of the set {w0, w1} with these member occurrences and, for
    each word of ``counts``, its context word's count row."""
    stats = FeatureStats(confusion_set_from_text("w0, w1"), ExtractionParams())
    stats.occurrences = list(occurrences)
    stats.counts = {context_word(name).key(): list(row) for name, row in counts.items()}
    return stats


def winnow_train_example(cloud, active_set, label):
    """One online step for every classifier of the cloud, as training takes
    it: a positive example first links any unlinked active features at the
    default weight; each classifier whose prediction is mistaken then
    promotes (missed positive) or demotes (false positive) every active
    weight, the bias's among them, where an unlinked one stays 0.0. Negative
    examples never create links."""
    links = []
    if label == 1:
        links = [f for f in active_set if f not in cloud.linked]
        cloud.linked.update(active_set)
    lesson = [(_presentation(active_set), label, links)]
    for classifier in cloud.classifiers:
        _learn(classifier, lesson)
    cloud.examples_seen += 1


def ids_of(model, features) -> tuple[int, ...]:
    """The sorted ids a BayesModel or WinnowNetwork gives ``features``: what
    ``extract_active`` returns for an occurrence generating just those."""
    return tuple(sorted(model.feature_ids[f.key()] for f in features))


def index_of(features):
    """The index a model over just these Feature tuples numbers them by."""
    return index_features(f.key() for f in features)


def oracle_argmax(scores, priors) -> int:
    return max(range(len(scores)), key=lambda i: (scores[i], priors[i], -i))


def saved_here(number: int, saved: str | None) -> str:
    """The pattern matching exactly a model loader's refusal of a file whose
    line ``number`` is not ``saved``, what saving its model writes there
    (None: the end of the file)."""
    here = "the end of the file" if saved is None else repr(saved)
    message = f"line {number}: model file truncated or damaged: saving it writes {here} here"
    return f"^{re.escape(message)}$"
