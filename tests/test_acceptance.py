"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (visible with `pytest -v`, details with `-s`)."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import winspell
from winspell.bayes import (
    classify_bayes,
    load_model,
    save_model,
    train_bayes,
)
from winspell.corpus import (
    TagDictionary,
    confusion_set_from_text,
    corrupt,
    find_occurrences,
    restore,
)
from winspell.evaluation import (
    SplitSpec,
    evaluate_systems,
    mcnemar_test,
    split_corpus,
    two_proportion_test,
)
from winspell.features import (
    ExtractionParams,
    PRUNED,
    UNPRUNED,
    chi_square_2x2,
    collect_stats,
    extract_active,
    prune,
)
from winspell.winnow import (
    CYCLES,
    ONE_LAYER,
    Cloud,
    WinnowClassifier,
    WinnowNetwork,
    classify_winnow,
    init_bayesian,
    load_network,
    save_network,
)

from helpers import (
    CHI2_ORACLE,
    MCNEMAR_ORACLE,
    TWO_PROPORTION_ORACLE,
    corpus_of,
    mcnemar_outcome_pair,
    oracle_argmax,
    oracle_bayes_scores,
    random_tiny_corpus,
    separable_corpus,
    small_disjunct_corpus,
    two_domain_pair,
    winnow_train_example,
)

EMPTY_TAGS = TagDictionary()
TINY_PARAMS = ExtractionParams(k=1, l=1)


def report(name, detail):
    print(f"ACCEPTANCE [{name}]: PASS ({detail})")


@pytest.fixture(scope="module")
def tiny_corpora():
    """100 randomized toy corpora: <= 20 training sentences each, and a
    feature universe of at most 8 distinct features at k=1, l=1."""
    rng = random.Random(20240601)
    corpora = []
    for _ in range(100):
        train, test, cset = random_tiny_corpus(rng)
        stats = collect_stats(train, cset, TINY_PARAMS, EMPTY_TAGS)
        retained = prune(stats, UNPRUNED)
        assert len(train) <= 20 and len(retained) <= 8
        cases = [
            extract_active(o, retained, TINY_PARAMS, EMPTY_TAGS)
            for o in find_occurrences(test, cset)
        ]
        corpora.append((stats, retained, cset, cases))
    return corpora


def test_c01_bayes_matches_brute_force_oracle(tiny_corpora):
    """Dependency resolution off: classifier argmax and log-scores must match
    a straight-line naive-Bayes oracle (argmax on 100% of cases, scores
    within 1e-9) in under 10 seconds."""
    started = time.monotonic()
    checked = 0
    for stats, retained, cset, cases in tiny_corpora:
        model = train_bayes(stats, retained, dependency_resolution=False)
        for active in cases:
            posterior = classify_bayes(model, active)
            features = [retained.features[f].key() for f in active]
            expected = oracle_bayes_scores(_restrict(stats, retained), features, 2)
            for got, want in zip(posterior.scores, expected):
                if math.isinf(want):
                    assert math.isinf(got) and got < 0
                else:
                    assert got == pytest.approx(want, abs=1e-9)
            assert posterior.chosen == oracle_argmax(expected, model.priors)
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report("bayes-oracle-equivalence",
           f"{checked} cases over {len(tiny_corpora)} corpora in {elapsed:.2f}s")


def _restrict(stats, retained):
    from winspell.features import FeatureStats

    clone = FeatureStats(stats.confusion_set, stats.params)
    clone.occurrences = list(stats.occurrences)
    clone.counts = {f: list(stats.counts[f]) for f in retained}
    return clone


def test_c02_simplified_winnow_equals_simplified_bayes(tiny_corpora):
    """The Bayesian-initialized, non-learning, full-network, single-classifier
    network must agree with the dependency-free Bayes classifier on 100% of
    decisions, in under 10 seconds."""
    started = time.monotonic()
    checked = 0
    for stats, retained, cset, cases in tiny_corpora:
        model = train_bayes(stats, retained, dependency_resolution=False)
        network = WinnowNetwork(cset, retained, CYCLES, TINY_PARAMS,
                                layer_mode=ONE_LAYER)
        init_bayesian(network, model)
        for active in cases:
            assert classify_winnow(network, active).chosen == \
                classify_bayes(model, active).chosen
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report("simplified-isomorphism", f"{checked} decisions agree in {elapsed:.2f}s")


def _disjunction_mistakes(r, n, seed, n_examples=400, background=8):
    rng = random.Random(seed)
    pool = list(range(n))  # the feature ids of n words
    relevant = pool[:r]
    cloud = Cloud(0, [WinnowClassifier(beta=0.5, n_features=n)])
    for _ in range(n_examples):
        active = set()
        if rng.random() < 0.5:
            chosen = [f for f in relevant if rng.random() < 0.5]
            active.update(chosen or [rng.choice(relevant)])
        for _ in range(background):
            f = pool[rng.randrange(n)]
            if f not in relevant:
                active.add(f)
        label = 1 if active & set(relevant) else 0
        winnow_train_example(cloud, tuple(sorted(active)), label)
    return cloud.classifiers[0].mistakes


def test_c03_winnow_mistake_bound():
    """Learning a planted r-of-1000 monotone disjunction stays within
    2.5 * r * (1 + log2(1000)) total mistakes in >= 95% of 100 seeded runs,
    for r in {1, 3, 5}, in under 30 seconds."""
    started = time.monotonic()
    n = 1000
    summary = []
    for r in (1, 3, 5):
        bound = 2.5 * r * (1 + math.log2(n))
        passed = sum(
            1 for seed in range(100) if _disjunction_mistakes(r, n, seed) <= bound
        )
        assert passed >= 95, f"r={r}: only {passed}/100 runs within {bound:.1f}"
        summary.append(f"r={r}: {passed}/100 within {bound:.1f}")
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report("winnow-mistake-bound", "; ".join(summary) + f" in {elapsed:.2f}s")


def test_c04_separable_convergence():
    """On a corpus where collocations deterministically select the member,
    the sparse uniform two-layer system reaches 100% test accuracy within the
    default 5 training cycles, and the baseline scores the majority
    frequency exactly."""
    for seed in (0, 1, 2):
        train, test, cset = separable_corpus(seed=seed)
        result = evaluate_systems(
            find_occurrences(train, cset), find_occurrences(test, cset), cset, EMPTY_TAGS,
            ["baseline", "winnow"], mode=UNPRUNED,
        )
        assert result.percent("winnow") == 100.0
        majority_frequency = 100.0 * 20 / 35  # 20 dax cases of 35, dax trained majority
        assert result.percent("baseline") == majority_frequency
    report("separable-convergence", "winnow 100.0 on 3 seeds, baseline exact")


def test_c05_pruned_subset_and_small_disjuncts():
    """The pruned retained set is a subset of the unpruned one on every
    corpus tried, and on the rare-but-perfect-feature corpus the unpruned
    system scores at least as well as the pruned one."""
    rng = random.Random(5)
    subset_checks = 0
    for _ in range(30):
        train, _test, cset = random_tiny_corpus(rng)
        stats = collect_stats(train, cset, TINY_PARAMS, EMPTY_TAGS)
        assert set(prune(stats, PRUNED)) <= set(prune(stats, UNPRUNED))
        subset_checks += 1
    gains = []
    for seed in range(5):
        train, test, cset = small_disjunct_corpus(seed=seed)
        stats = collect_stats(train, cset, ExtractionParams(), EMPTY_TAGS)
        assert set(prune(stats, PRUNED)) <= set(prune(stats, UNPRUNED))
        train_occurrences = find_occurrences(train, cset)
        test_occurrences = find_occurrences(test, cset)
        pruned_score = evaluate_systems(
            train_occurrences, test_occurrences, cset, EMPTY_TAGS, ["winnow"], mode=PRUNED
        ).percent("winnow")
        unpruned_score = evaluate_systems(
            train_occurrences, test_occurrences, cset, EMPTY_TAGS, ["winnow"], mode=UNPRUNED
        ).percent("winnow")
        assert unpruned_score >= pruned_score
        gains.append(unpruned_score - pruned_score)
        subset_checks += 1
    report("pruned-subset-unpruned",
           f"{subset_checks} subset checks; unpruned-pruned gains {gains}")


def test_c06_statistical_test_oracles():
    """chi-square, McNemar, and two-proportion p-values match the frozen
    oracle tables (>= 10 cases each) to 1e-3."""
    for table, _stat, p in CHI2_ORACLE:
        assert chi_square_2x2(*table)[1] == pytest.approx(p, abs=1e-3)
    for discordant, p in MCNEMAR_ORACLE:
        a_out, b_out = mcnemar_outcome_pair(*discordant)
        assert mcnemar_test(a_out, b_out) == pytest.approx(p, abs=1e-3)
    for case, p in TWO_PROPORTION_ORACLE:
        assert two_proportion_test(*case) == pytest.approx(p, abs=1e-3)
    report("statistical-tests",
           f"{len(CHI2_ORACLE)}+{len(MCNEMAR_ORACLE)}+{len(TWO_PROPORTION_ORACLE)} oracle cases")


def test_c07_corruption_calibration():
    """Over 100 seeds at p=5% with 1000 occurrences the mean corrupted
    fraction lands within +-0.5 percentage points of 5%; p=0 is the identity;
    replaying the change log restores the original."""
    cset = confusion_set_from_text("hear, here")
    corpus = corpus_of(*(["you hear it"] * 500 + ["come here now"] * 500))
    fractions = []
    for seed in range(100):
        corrupted, log = corrupt(corpus, cset, 5, seed)
        fractions.append(len(log) / 1000)
        if seed < 10:
            assert restore(corrupted, cset, log) == corpus
    mean = sum(fractions) / len(fractions)
    assert abs(mean - 0.05) <= 0.005
    identical, log = corrupt(corpus, cset, 0, seed=0)
    assert identical == corpus and log == []
    report("corruption-calibration", f"mean corrupted fraction {mean:.4f}")


def test_c08_supunsup_benefit():
    """With a planted test-domain-only collocation, adding the corrupted
    unsupervised slice beats supervised-only training for both systems at
    p in {0, 5, 10}%, and the average benefit over 20 seeds never increases
    with p."""
    started = time.monotonic()
    systems = ("bayes", "winnow")
    corruption_levels = (0, 5, 10)
    benefits = {s: {p: [] for p in corruption_levels} for s in systems}
    extraction = ExtractionParams(k=3)
    for seed in range(20):
        corpus_a, corpus_b, cset = two_domain_pair(seed=seed)
        unsup, test_b = split_corpus(corpus_b, SplitSpec(0.6, seed))
        test_occurrences = find_occurrences(test_b, cset)
        sup_only = evaluate_systems(
            find_occurrences(corpus_a, cset), test_occurrences, cset, EMPTY_TAGS, systems,
            mode=UNPRUNED, extraction=extraction,
        )
        for p in corruption_levels:
            noisy, _ = corrupt(unsup, cset, p, seed)
            combined = evaluate_systems(
                find_occurrences(list(corpus_a) + noisy, cset), test_occurrences, cset,
                EMPTY_TAGS, systems, mode=UNPRUNED, extraction=extraction,
            )
            for s in systems:
                assert combined.percent(s) > sup_only.percent(s), (
                    f"seed {seed}, p={p}, {s}: sup/unsup "
                    f"{combined.percent(s):.1f} <= sup-only {sup_only.percent(s):.1f}"
                )
                benefits[s][p].append(combined.percent(s) - sup_only.percent(s))
    details = []
    for s in systems:
        averages = [sum(benefits[s][p]) / 20 for p in corruption_levels]
        assert averages[0] >= averages[1] >= averages[2], (s, averages)
        details.append(f"{s}: " + " >= ".join(f"{a:.1f}" for a in averages))
    elapsed = time.monotonic() - started
    report("supunsup-benefit", "; ".join(details) + f" in {elapsed:.1f}s")


def _write_workspace(base: Path) -> None:
    base.mkdir(parents=True, exist_ok=True)
    train, test, _cset = separable_corpus(seed=0)
    (base / "corpus.txt").write_text(
        "\n".join(" ".join(s.surfaces) for s in train + test) + "\n"
    )
    (base / "sets.txt").write_text("dax, fep\n")
    (base / "tags.tsv").write_text("rix\tMARK\nzor\tMARK\n")
    (base / "input.txt").write_text("one pix dax rix here .\n")


def _child_pythonpath() -> str:
    """An absolute PYTHONPATH that finds the winspell package this test
    process imported, then the inherited entries. The child runs with another
    cwd, where a relative entry such as `src` would not resolve."""
    package_root = str(Path(winspell.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    entries = inherited.split(os.pathsep) if inherited else []
    return os.pathsep.join([package_root, *map(os.path.abspath, entries)])


def _run_cli(base: Path, args, hash_seed: str) -> bytes:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = _child_pythonpath()
    proc = subprocess.run(
        [sys.executable, "-m", "winspell", *args],
        cwd=base, env=env, capture_output=True,
    )
    assert proc.returncode == 0, (
        f"`winspell {' '.join(args)}` with PYTHONHASHSEED={hash_seed} "
        f"exited {proc.returncode}; stderr:\n{proc.stderr.decode()}"
    )
    return proc.stdout


def _snapshot(base: Path, stdout_chunks) -> dict:
    files = {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*"))
        if p.is_file()
    }
    files["<stdout>"] = b"".join(stdout_chunks)
    return files


def test_c09_determinism_and_round_trip(tmp_path):
    """Every command is byte-identical across repeated runs with fixed seeds
    (even under different hash seeds), and model files survive a
    save -> load -> save round trip unchanged."""
    common = ["--corpus", "corpus.txt", "--confusion-sets", "sets.txt",
              "--tagdict", "tags.tsv", "--mode", "unpruned", "--seed", "3"]
    commands = [
        ["train", *common, "--system", "bayes", "--out", "out"],
        ["train", *common, "--system", "winnow", "--out", "out"],
        ["classify", "--out", "out", "--system", "winnow",
         "--tagdict", "tags.tsv", "input.txt"],
        ["eval", *common, "--system", "baseline", "--system", "bayes",
         "--system", "winnow", "--k", "3", "--out", "out"],
        ["ablate", *common, "--k", "3", "--out", "out"],
        ["corrupt", "--corpus", "corpus.txt", "--confusion-sets", "sets.txt",
         "--corrupt-pct", "30", "--seed", "3", "--out", "out"],
    ]
    snapshots = []
    for run_index, hash_seed in enumerate(("101", "202")):
        base = tmp_path / f"run{run_index}"
        _write_workspace(base)
        stdout_chunks = [_run_cli(base, args, hash_seed) for args in commands]
        snapshots.append(_snapshot(base, stdout_chunks))
    assert snapshots[0] == snapshots[1]

    base = tmp_path / "run0"
    bayes_path = base / "out" / "dax+fep.bayes.model"
    first = bayes_path.read_bytes()
    save_model(load_model(bayes_path), bayes_path)
    assert bayes_path.read_bytes() == first
    winnow_path = base / "out" / "dax+fep.winnow.model"
    first = winnow_path.read_bytes()
    save_network(load_network(winnow_path), winnow_path)
    assert winnow_path.read_bytes() == first
    report("determinism-round-trip",
           f"{len(commands)} commands byte-identical across hash seeds")


# The 21 confusion sets used throughout the full-corpus protocol.
FULL_CONFUSION_SETS = """\
accept, except
affect, effect
among, between
amount, number
begin, being
cite, sight, site
country, county
fewer, less
i, me
its, it's
lead, led
maybe, may be
passed, past
peace, piece
principal, principle
quiet, quite
raise, rise
than, then
their, there, they're
weather, whether
your, you're
"""


def test_c10_optional_corpus_mode(tmp_path):
    """Optional: with a user-supplied full-size corpus (one sentence per
    line; WINSPELL_CORPUS env var), run the pruned/unpruned comparison and
    check the qualitative ordering: unpruned Winnow beats unpruned Bayes
    overall. Absolute score reproduction is explicitly not expected."""
    corpus_path = os.environ.get("WINSPELL_CORPUS")
    if not corpus_path:
        pytest.skip("corpus mode is optional: set WINSPELL_CORPUS to a "
                    "one-sentence-per-line corpus file to run it")
    from winspell.evaluation import ExperimentConfig, run_experiment

    sets_path = tmp_path / "sets.txt"
    sets_path.write_text(FULL_CONFUSION_SETS)
    tagdict = os.environ.get("WINSPELL_TAGDICT")
    if tagdict is None:
        (tmp_path / "tags.tsv").write_text("the\tDET\n")
        tagdict = str(tmp_path / "tags.tsv")
    overall = {}
    for mode in (PRUNED, UNPRUNED):
        config = ExperimentConfig(
            corpus=corpus_path, confusion_sets=sets_path, tagdict=tagdict,
            systems=("baseline", "bayes", "winnow"), mode=mode,
        )
        report_obj = run_experiment(config)
        print(f"\n=== mode: {mode} ===")
        print(report_obj.to_table())
        overall[mode] = {s: report_obj.pooled().percent(s)
                         for s in ("baseline", "bayes", "winnow")}
    assert overall[UNPRUNED]["winnow"] > overall[UNPRUNED]["bayes"]
    report("corpus-mode", str(overall))
