"""Experiment harness: corpus splits, baseline, significance tests, and the
system ladder over one or more confusion sets."""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence

from .bayes import (
    HEADER as BAYES_HEADER,
    BayesModel,
    Decision,
    choose,
    classify_bayes,
    load_model,
    priors_of,
    save_model,
    train_bayes,
    with_dependency_resolution,
)
from .corpus import (
    ConfusionSet,
    Occurrence,
    Sentence,
    TagDictionary,
    corrupt,
    find_occurrences,
    load_confusion_sets,
    load_corpus,
    load_tag_dictionary,
    occurrences_by_set,
)
from .features import (
    PRUNED,
    ExtractionParams,
    active_ids,
    chi2_sf,
    count_features,
    extract_active,
    prune,
)
from .winnow import (
    CYCLES,
    HEADER as WINNOW_HEADER,
    ONE_LAYER,
    TWO_LAYER,
    WinnowNetwork,
    classify_winnow,
    init_bayesian,
    load_network,
    save_network,
    sparsify,
    train_network,
)

WITHIN = "within"
ACROSS = "across"
SUPUNSUP = "supunsup"
PROTOCOLS = (WITHIN, ACROSS, SUPUNSUP)

# Training share of the corpus; share of the test corpus kept out of testing.
TRAIN_FRACTION = 0.8
UNSUP_FRACTION = 0.6

# The systems that train a model; SYSTEMS adds the majority baseline.
TRAINABLE_SYSTEMS = (
    "bayes",
    "simplified-bayes",
    "winnow",
    "simplified-winnow",
    "winnow-1layer",
    "winnow-2layer",
    "winnow-bayes-init",
)
SYSTEMS = ("baseline", *TRAINABLE_SYSTEMS)

# Column order of the ablation ladder, from the Bayesian end to the full
# sparse Winnow system.
ABLATION_LADDER = (
    "bayes",
    "simplified-bayes",
    "winnow-1layer",
    "winnow-2layer",
    "winnow-bayes-init",
)


class SplitSpec(namedtuple("SplitSpec", "fraction seed")):
    __slots__ = ()

    def __new__(cls, fraction: float, seed: int):
        if not 0 < fraction < 1:
            raise ValueError("split fraction must be strictly between 0 and 1")
        return super().__new__(cls, fraction, seed)


def split_corpus(
    sentences: Sequence[Sentence], spec: SplitSpec
) -> tuple[list[Sentence], list[Sentence]]:
    """Seeded random partition by sentence; the first part gets
    floor(fraction * n) sentences. Corpus order is preserved within each
    part."""
    if len(sentences) < 2:
        raise ValueError("cannot split a corpus of fewer than 2 sentences")
    indices = list(range(len(sentences)))
    random.Random(spec.seed).shuffle(indices)
    chosen = set(indices[: int(spec.fraction * len(sentences))])
    first = [s for i, s in enumerate(sentences) if i in chosen]
    second = [s for i, s in enumerate(sentences) if i not in chosen]
    return first, second


def mcnemar_test(
    outcomes_a: Sequence[bool], outcomes_b: Sequence[bool]
) -> float:
    """Two-sided McNemar p-value over paired per-case outcomes, using the
    continuity-corrected chi-square statistic on the discordant counts."""
    if len(outcomes_a) != len(outcomes_b):
        raise ValueError("outcome sequences must pair up case by case")
    b = sum(1 for x, y in zip(outcomes_a, outcomes_b) if x and not y)
    c = sum(1 for x, y in zip(outcomes_a, outcomes_b) if not x and y)
    if b + c == 0:
        return 1.0
    statistic = (abs(b - c) - 1) ** 2 / (b + c)
    return chi2_sf(statistic)


def two_proportion_test(correct1: int, n1: int, correct2: int, n2: int) -> float:
    """Two-sided pooled-variance z-test for the difference of proportions."""
    if n1 <= 0 or n2 <= 0:
        raise ValueError("sample sizes must be positive")
    p1, p2 = correct1 / n1, correct2 / n2
    pooled = (correct1 + correct2) / (n1 + n2)
    variance = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if variance == 0.0:
        return 1.0
    z = (p1 - p2) / math.sqrt(variance)
    return math.erfc(abs(z) / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Trained systems: the one place that tells a BayesModel from a WinnowNetwork
# ---------------------------------------------------------------------------


class TrainingSet:
    """One confusion set's training data from one feature pass over its
    occurrences: the counts ``stats`` and the ``retained`` index. The Winnow
    ``stream`` and the dependency-free Bayes model ``bayes`` are built the
    first time a system reads them, at most once per set."""

    def __init__(self, occurrences: Sequence[Occurrence], confusion_set: ConfusionSet,
                 extraction: ExtractionParams, tagdict: TagDictionary, mode: str):
        self.stats, self._generated = count_features(
            occurrences, confusion_set, extraction, tagdict
        )
        self.retained = prune(self.stats, mode)

    @cached_property
    def stream(self) -> list[tuple[tuple[int, ...], int]]:
        """Each occurrence's (active ids in ``retained``, member) pair."""
        return [(active_ids(keys, self.retained), member) for keys, member in self._generated]

    @cached_property
    def bayes(self) -> BayesModel:
        """The Bayes model without dependency resolution, whose tables and
        log rows every system but ``winnow`` reads."""
        return train_bayes(self.stats, self.retained, dependency_resolution=False)


def train_system_model(name: str, training: TrainingSet, cycles: int):
    """Train one persistable system on one confusion set; returns a
    BayesModel or WinnowNetwork that extracts features with the parameters
    the set's features were generated with. A Winnow network trains for
    ``cycles`` passes."""
    if name not in TRAINABLE_SYSTEMS:
        raise ValueError(f"unknown system: {name!r}")
    if name == "bayes":
        return with_dependency_resolution(training.bayes)
    if name == "simplified-bayes":
        return training.bayes
    stats = training.stats
    network = WinnowNetwork(
        stats.confusion_set, training.retained, cycles, stats.params,
        layer_mode=ONE_LAYER if name in ("simplified-winnow", "winnow-1layer") else TWO_LAYER,
        priors=priors_of(stats.occurrences, stats.confusion_set),
    )
    # The other variants start from Bayesian weights derived from the
    # dependency-resolution-free model.
    if name != "winnow":
        init_bayesian(network, training.bayes)
    if name == "winnow-bayes-init":
        sparsify(network, training.bayes.counts)
    if name != "simplified-winnow":
        train_network(network, training.stream)
    return network


def decide(model: BayesModel | WinnowNetwork, active) -> Decision:
    """The decision of a trained model for one active set."""
    if isinstance(model, WinnowNetwork):
        return classify_winnow(model, active)
    return classify_bayes(model, active)


def save_system_model(model: BayesModel | WinnowNetwork, path: str | Path):
    if isinstance(model, WinnowNetwork):
        save_network(model, path)
    else:
        save_model(model, path)


def load_system_model(path: str | Path) -> BayesModel | WinnowNetwork:
    """Load a ``BAYES v1`` or ``WINNOW v1`` file, told apart by the bytes of
    its first line. Every ValueError names the file."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline().strip()
        if header == BAYES_HEADER.encode():
            return load_model(path)
        if header == WINNOW_HEADER.encode():
            return load_network(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    raise ValueError(f"{path}: line 1: unrecognized model format")


class SetResult(NamedTuple):
    """Per-case outcomes of every system on one confusion set's test cases."""

    label: str
    cases: int
    outcomes: dict[str, list[bool]]

    def percent(self, system: str) -> float:
        if self.cases == 0:
            return 0.0
        return 100.0 * sum(self.outcomes[system]) / self.cases


def evaluate_systems(
    train_occurrences: Sequence[Occurrence],
    test_occurrences: Sequence[Occurrence],
    confusion_set: ConfusionSet,
    tagdict: TagDictionary,
    systems: Sequence[str],
    mode: str,
    extraction: ExtractionParams | None = None,
    cycles: int = CYCLES,
) -> SetResult:
    """Train every requested system on one confusion set's training
    occurrences and score it on its test occurrences. The baseline chooses
    the most common training member for every case, ties as in :func:`choose`."""
    extraction = extraction or ExtractionParams()
    training = TrainingSet(train_occurrences, confusion_set, extraction, tagdict, mode)
    test_cases = [
        (extract_active(o, training.retained, extraction, tagdict), o.member_index)
        for o in test_occurrences
    ]
    outcomes = {}
    for name in systems:
        if name == "baseline":
            counts = training.stats.occurrences
            chosen = [choose([0.0] * len(counts), counts)] * len(test_cases)
        else:
            model = train_system_model(name, training, cycles)
            chosen = [decide(model, active).chosen for active, _ in test_cases]
        outcomes[name] = [c == member for c, (_, member) in zip(chosen, test_cases)]
    return SetResult(confusion_set.label, len(test_cases), outcomes)


class EvalReport(NamedTuple):
    """Per-set and pooled scores plus pairwise McNemar verdicts."""

    systems: tuple[str, ...]
    results: list[SetResult]

    def pooled(self) -> SetResult:
        """Every set's cases as one result: the OVERALL row."""
        outcomes = {
            s: [o for r in self.results for o in r.outcomes[s]] for s in self.systems
        }
        return SetResult("OVERALL", sum(r.cases for r in self.results), outcomes)

    def adjacent_pairs(self) -> list[tuple[str, str]]:
        return list(zip(self.systems, self.systems[1:]))

    def _header(self) -> list[str]:
        columns = ["confusion_set", "cases", *self.systems]
        columns += [f"p_{a}_vs_{b}" for a, b in self.adjacent_pairs()]
        return columns

    def _rows(self) -> list[list[str]]:
        rows = []
        for r in [*self.results, self.pooled()]:
            row = [r.label, str(r.cases)]
            row += [f"{r.percent(s):.1f}" for s in self.systems]
            row += [
                f"{mcnemar_test(r.outcomes[a], r.outcomes[b]):.4g}"
                for a, b in self.adjacent_pairs()
            ]
            rows.append(row)
        return rows

    def to_tsv(self) -> str:
        lines = ["\t".join(self._header())]
        lines += ["\t".join(row) for row in self._rows()]
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        header = self._header()
        rows = [header] + self._rows()
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        out = []
        for row in rows:
            out.append(
                "  ".join(
                    cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
                    for i, cell in enumerate(row)
                ).rstrip()
            )
        return "\n".join(out) + "\n"


class ExperimentConfig(NamedTuple):
    """Everything one experiment needs: file paths plus protocol knobs."""

    corpus: str | Path
    confusion_sets: str | Path
    tagdict: str | Path
    systems: tuple[str, ...] = ("baseline", "bayes", "winnow")
    mode: str = PRUNED
    protocol: str = WITHIN
    test_corpus: str | Path | None = None
    seed: int = 0
    corrupt_pct: float = 5.0
    extraction: ExtractionParams = ExtractionParams()
    cycles: int = CYCLES


def run_experiment(config: ExperimentConfig) -> EvalReport:
    """Run one protocol over every confusion set and assemble the report.

    within:   seeded train/test split of the corpus.
    across:   train on the training split of `corpus`, test on the held-out
              fraction of `test_corpus`.
    supunsup: like across, but the non-test fraction of `test_corpus` is
              corrupted and added to the training data.
    """
    if config.protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol: {config.protocol!r}")
    for name in config.systems:
        if name not in SYSTEMS:
            raise ValueError(f"unknown system: {name!r}")
    # A test corpus is given exactly when the protocol tests on one.
    needs_test_corpus = config.protocol != WITHIN
    if (config.test_corpus is not None) != needs_test_corpus:
        need = "needs a" if needs_test_corpus else "takes no"
        raise ValueError(f"protocol {config.protocol!r} {need} test corpus")
    corpus = load_corpus(config.corpus)
    confusion_sets = load_confusion_sets(config.confusion_sets)
    tagdict = load_tag_dictionary(config.tagdict)
    train, test = split_corpus(corpus, SplitSpec(TRAIN_FRACTION, config.seed))
    if needs_test_corpus:
        test_corpus = load_corpus(config.test_corpus)
        unsup, test = split_corpus(test_corpus, SplitSpec(UNSUP_FRACTION, config.seed))
    train_occurrences = occurrences_by_set(train, confusion_sets)
    test_occurrences = occurrences_by_set(test, confusion_sets)
    if config.protocol == SUPUNSUP:
        for cs, occurrences in zip(confusion_sets, train_occurrences):
            noisy, _log = corrupt(unsup, cs, config.corrupt_pct, config.seed)
            occurrences.extend(find_occurrences(noisy, cs))
    results = [
        evaluate_systems(
            cs_train, cs_test, cs, tagdict, config.systems,
            config.mode, config.extraction, config.cycles,
        )
        for cs, cs_train, cs_test in zip(confusion_sets, train_occurrences, test_occurrences)
    ]
    return EvalReport(tuple(config.systems), results)
