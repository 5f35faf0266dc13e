import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winspell import bayes
from winspell.bayes import model_from_text, model_to_text
from winspell.corpus import confusion_set_from_text, find_occurrences
from winspell.evaluation import (
    ABLATION_LADDER,
    SYSTEMS,
    EvalReport,
    ExperimentConfig,
    SetResult,
    SplitSpec,
    TrainingSet,
    evaluate_systems,
    load_system_model,
    mcnemar_test,
    run_experiment,
    split_corpus,
    train_system_model,
    two_proportion_test,
)
from winspell.features import ExtractionParams
from winspell.winnow import CYCLES, WinnowNetwork, network_from_text, network_to_text

from helpers import (
    EMPTY_TAGS,
    MCNEMAR_ORACLE,
    TWO_PROPORTION_ORACLE,
    corpus_of,
    corpus_text,
    mcnemar_outcome_pair,
    saved_here,
    separable_corpus,
    two_domain_pair,
    write_inputs,
)



def baseline_outcomes(train_counts, test_counts):
    """The baseline's outcomes on a set of members w0, w1, ... trained on
    ``train_counts[i]`` occurrences of member i and tested on
    ``test_counts[i]``, each test case in a context of its own."""
    members = [f"w{i}" for i in range(len(train_counts))]
    cset = confusion_set_from_text(", ".join(members))

    def occurrences(counts, context):
        texts = [f"{context(n)} {m}" for m, count in zip(members, counts) for n in range(count)]
        return find_occurrences(corpus_of(*texts), cset)

    result = evaluate_systems(occurrences(train_counts, lambda n: "the"),
                              occurrences(test_counts, lambda n: f"ctx{n}"),
                              cset, EMPTY_TAGS, ["baseline"], mode="unpruned")
    return result.outcomes["baseline"]


class TestSplitCorpus:
    def test_sizes(self):
        corpus = corpus_of(*(f"sentence {i}" for i in range(10)))
        train, test = split_corpus(corpus, SplitSpec(0.8, seed=0))
        assert len(train) == 8 and len(test) == 2

    def test_floor_rule_on_large_corpus(self):
        corpus = corpus_of(*(f"sentence {i}" for i in range(1000)))
        train, test = split_corpus(corpus, SplitSpec(0.8, seed=3))
        assert len(train) == 800

    def test_same_seed_identical(self):
        corpus = corpus_of(*(f"sentence {i}" for i in range(50)))
        assert split_corpus(corpus, SplitSpec(0.8, 7)) == split_corpus(corpus, SplitSpec(0.8, 7))

    def test_disjoint_and_exhaustive(self):
        corpus = corpus_of(*(f"sentence {i}" for i in range(31)))
        train, test = split_corpus(corpus, SplitSpec(0.8, seed=5))
        assert len(train) + len(test) == len(corpus)
        seen = {s.source_line for s in train} | {s.source_line for s in test}
        assert seen == {s.source_line for s in corpus}

    def test_order_preserved(self):
        corpus = corpus_of(*(f"sentence {i}" for i in range(20)))
        train, test = split_corpus(corpus, SplitSpec(0.8, seed=1))
        assert [s.source_line for s in train] == sorted(s.source_line for s in train)
        assert [s.source_line for s in test] == sorted(s.source_line for s in test)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            SplitSpec(1.0, 0)

    def test_too_small_corpus(self):
        with pytest.raises(ValueError):
            split_corpus(corpus_of("just one"), SplitSpec(0.8, 0))


class TestBaseline:
    def test_majority_member(self):
        # Every case is given the majority member w0, whatever its context.
        assert baseline_outcomes([70, 30], [2, 2]) == [True, True, False, False]

    @pytest.mark.parametrize("occurrences,majority", [([50, 50], 0), ([30, 50, 50], 1)])
    def test_tie_prefers_lower_index(self, occurrences, majority):
        outcomes = baseline_outcomes(occurrences, [1] * len(occurrences))
        assert outcomes == [i == majority for i in range(len(occurrences))]

    def test_score_equals_majority_frequency(self):
        outcomes = baseline_outcomes([70, 30], [7, 3])
        assert sum(outcomes) / len(outcomes) == 0.7


class TestMcNemar:
    @pytest.mark.parametrize("discordant,p_value", MCNEMAR_ORACLE)
    def test_oracle_cases(self, discordant, p_value):
        a_out, b_out = mcnemar_outcome_pair(*discordant)
        assert mcnemar_test(a_out, b_out) == pytest.approx(p_value, rel=1e-6)

    def test_identical_systems(self):
        outcomes = [True, False, True, True]
        assert mcnemar_test(outcomes, outcomes) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mcnemar_test([True], [True, False])

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_symmetric(self, pairs):
        a_out = [x for x, _ in pairs]
        b_out = [y for _, y in pairs]
        assert mcnemar_test(a_out, b_out) == mcnemar_test(b_out, a_out)


class TestTwoProportion:
    @pytest.mark.parametrize("case,p_value", TWO_PROPORTION_ORACLE)
    def test_oracle_cases(self, case, p_value):
        assert two_proportion_test(*case) == pytest.approx(p_value, rel=1e-6)

    def test_across_corpus_drop_is_significant(self):
        # 96.4% of 4336 vs 95.2% of 4560.
        assert two_proportion_test(4180, 4336, 4341, 4560) < 0.05

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            two_proportion_test(1, 0, 1, 10)

    @given(st.integers(0, 50), st.integers(1, 50), st.integers(0, 50), st.integers(1, 50))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_bounded(self, c1, n1, c2, n2):
        c1, c2 = min(c1, n1), min(c2, n2)
        p = two_proportion_test(c1, n1, c2, n2)
        assert 0.0 <= p <= 1.0
        assert p == two_proportion_test(c2, n2, c1, n1)


class TestEvaluateSystems:
    def test_separable_corpus_scores(self):
        train, test, cset = separable_corpus(seed=0)
        result = evaluate_systems(
            find_occurrences(train, cset), find_occurrences(test, cset), cset, EMPTY_TAGS,
            ["baseline", "bayes", "winnow"], mode="unpruned",
        )
        assert result.percent("winnow") == 100.0
        assert result.percent("bayes") == 100.0
        # Trained majority is dax; 20 of the 35 test cases are dax.
        assert result.percent("baseline") == pytest.approx(100 * 20 / 35)

    def test_every_system_runs(self):
        train, test, cset = separable_corpus(seed=1, train_counts=(30, 20),
                                             test_counts=(6, 6))
        result = evaluate_systems(
            find_occurrences(train, cset), find_occurrences(test, cset), cset, EMPTY_TAGS,
            SYSTEMS, mode="unpruned", extraction=ExtractionParams(k=3),
        )
        assert set(result.outcomes) == set(SYSTEMS)
        for name in SYSTEMS:
            assert len(result.outcomes[name]) == result.cases

    @pytest.mark.parametrize("systems, builds", [
        (ABLATION_LADDER, 1), (SYSTEMS, 1), (("bayes",), 1), (("baseline", "winnow"), 0),
    ])
    def test_bayes_tables_built_once_per_set(self, monkeypatch, systems, builds):
        built = []
        build = bayes.BayesModel.__init__

        def counting(model, *args, **kwargs):
            built.append(model)
            build(model, *args, **kwargs)

        monkeypatch.setattr(bayes.BayesModel, "__init__", counting)
        train, test, cset = separable_corpus(seed=1, train_counts=(30, 20),
                                             test_counts=(6, 6))
        evaluate_systems(
            find_occurrences(train, cset), find_occurrences(test, cset), cset, EMPTY_TAGS,
            systems, mode="unpruned", extraction=ExtractionParams(k=3),
        )
        assert len(built) == builds

    def test_bayes_init_variants_share_the_sets_bayes_model(self):
        train, _, cset = separable_corpus(seed=1, train_counts=(30, 20), test_counts=(6, 6))
        training = TrainingSet(find_occurrences(train, cset), cset, ExtractionParams(k=3),
                               EMPTY_TAGS, "unpruned")
        assert train_system_model("simplified-bayes", training, CYCLES) is training.bayes
        for name in ("simplified-winnow", "winnow-1layer", "winnow-2layer", "winnow-bayes-init"):
            train_system_model(name, training, CYCLES)
        # The Bayesian initializations read every row of the shared log table.
        assert None not in training.bayes.log_likelihoods

    def test_simplified_pair_agree(self):
        train, test, cset = separable_corpus(seed=2)
        result = evaluate_systems(
            find_occurrences(train, cset), find_occurrences(test, cset), cset, EMPTY_TAGS,
            ["simplified-bayes", "simplified-winnow"], mode="unpruned",
        )
        assert result.outcomes["simplified-bayes"] == result.outcomes["simplified-winnow"]


def test_load_system_model_refuses_a_file_of_neither_format(tmp_path):
    path = tmp_path / "peace+piece.bayes.model"
    path.write_text("BAYES v2\nmembers\tpeace\tpiece\n")
    with pytest.raises(ValueError,
                       match=f"^{re.escape(str(path))}: line 1: unrecognized model format$"):
        load_system_model(path)


def smoke_model(toy, name):
    """System ``name``'s model of the toy workspace, and the writer and loader
    of its format."""
    model = load_system_model(toy / f"models/peace+piece.{name}.model")
    if isinstance(model, WinnowNetwork):
        return model, network_to_text, network_from_text
    return model, model_to_text, model_from_text


class TestModelPrefixes:
    def test_every_proper_prefix_of_every_systems_model_refused(self, toy):
        # Every trainable system: a file cut after any line or any byte is
        # refused as truncated, naming a line; one cut inside line 1 is no
        # model file of its format.
        cuts = 0
        for name in SYSTEMS[1:]:
            model, to_text, from_text = smoke_model(toy, name)
            text = to_text(model)
            assert text.isascii() and to_text(from_text(text)) == text
            lines = text.splitlines(keepends=True)
            foreign = f"line 1: not a {lines[0].strip()} model file"
            prefixes = ["".join(lines[:n]) for n in range(len(lines))]
            prefixes += [text[:n] for n in range(len(text))]
            for prefix in prefixes:
                with pytest.raises(ValueError, match=r"^line \d+: ") as refused:
                    from_text(prefix)
                message = str(refused.value)
                assert "truncated" in message or (message == foreign and "\n" not in prefix), (
                    prefix, message)
            cuts += len(prefixes)
        assert cuts == 15_435


class TestModelEdits:
    @pytest.mark.parametrize("name", ["bayes", "winnow", "winnow-1layer"])
    def test_every_line_deletion_or_adjacent_swap_reloads_or_names_a_line(self, toy, name):
        # Each edited file either holds a model that saves back to its own
        # bytes or is refused naming a line: a Bayes model, a trained sparse
        # two-layer network, and a full one-layer one. Edits delete, repeat
        # or swap lines, or put a line in its neighbour's place; a repeated
        # feature key leaves the sorted index one id short of its features.
        model, to_text, from_text = smoke_model(toy, name)
        lines = to_text(model).splitlines(keepends=True)
        edits = [lines[:i] + lines[i + 1 :] for i in range(len(lines))]
        edits += [lines[: i + 1] + lines[i:] for i in range(len(lines))]
        edits += [lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2 :]
                  for i in range(len(lines) - 1) if lines[i] != lines[i + 1]]
        edits += [lines[:i] + [lines[j]] + lines[i + 1 :]
                  for i in range(len(lines)) for j in (i - 1, i + 1)
                  if 0 <= j < len(lines) and lines[i] != lines[j]]
        refused = 0
        for edited in map("".join, edits):
            try:
                loaded = from_text(edited)
            except ValueError as exc:
                assert re.match(r"line [1-9]\d*: ", str(exc)), str(exc)
                refused += 1
            else:
                assert to_text(loaded) == edited
        assert len(lines) > 20 and refused

    @pytest.mark.parametrize("name", ["bayes", "winnow", "winnow-1layer"])
    def test_every_respelled_number_or_crlf_copy_refused_at_its_line(self, toy, name):
        # Each edit spells a value another way that int() or float() reads as
        # the same value, or ends every line in CRLF: only the writer's
        # spelling loads, so each is refused where saving writes otherwise.
        model, to_text, from_text = smoke_model(toy, name)
        text = to_text(model)
        lines = text.splitlines()

        def respelled(number, old, new):
            edited = list(lines)
            assert old in edited[number - 1]
            edited[number - 1] = edited[number - 1].replace(old, new, 1)
            return number, "\n".join(edited) + "\n"

        edits = [(1, text.replace("\n", "\r\n"))]
        if name == "bayes":
            edits.append(respelled(6, "occurrences\t", "occurrences\t+"))
        else:
            assert lines[3].endswith(f"\tcycles={CYCLES}")
            edits += [respelled(4, "cycles=", "cycles=0"), respelled(4, "cycles=", "cycles=+")]
            bias, classifier, weight = (
                next(n for n, line in enumerate(lines, 1) if re.fullmatch(pattern, line))
                for pattern in (r"-1\t.*", r"classifier\t.*", r"-?\d+\t\d+\.\d+")
            )
            edits += [respelled(bias, "-1\t", "-0_1\t"),
                      respelled(classifier, "mistakes=", "mistakes=0_"),
                      respelled(weight, lines[weight - 1], lines[weight - 1] + "0")]
        for number, edited in edits:
            with pytest.raises(ValueError, match=saved_here(number, lines[number - 1])):
                from_text(edited)


class TestRepeatedValueEdits:
    """A value respelled on every line that holds it is refused at the first
    of them: the loaders read and check each distinct value once, and the
    round trip names the first line that saving writes otherwise."""

    @pytest.mark.parametrize("old, new", [
        (re.compile(r"(\t0\.1)$"), r"\g<1>0"),  # weight 0.1 as 0.10
        (re.compile(r"^(3\t)"), r"0\g<1>"),      # row id 3 as 03
    ])
    def test_winnow_value_respelled_on_every_row(self, toy, old, new):
        model, to_text, from_text = smoke_model(toy, "winnow")
        lines = to_text(model).splitlines()
        edited = [old.sub(new, line) for line in lines]
        changed = [n for n, (a, b) in enumerate(zip(lines, edited), 1) if a != b]
        assert len(changed) > 1
        with pytest.raises(ValueError, match=saved_here(changed[0], lines[changed[0] - 1])):
            from_text("\n".join(edited) + "\n")


class TestEvalReport:
    def build_report(self):
        results = [
            SetResult("a, b", 4, {"s1": [True] * 4, "s2": [True, True, False, False]}),
            SetResult("c, d", 1, {"s1": [False], "s2": [True]}),
        ]
        return EvalReport(("s1", "s2"), results)

    def test_overall_pools_cases_not_percentages(self):
        report = self.build_report()
        # Pooled: s1 4/5 = 80%; the mean of per-set percentages would be 50%.
        assert report.pooled().percent("s1") == pytest.approx(80.0)
        assert report.pooled().percent("s2") == pytest.approx(60.0)

    def test_tsv_shape(self):
        report = self.build_report()
        lines = report.to_tsv().splitlines()
        assert lines[0].split("\t") == ["confusion_set", "cases", "s1", "s2", "p_s1_vs_s2"]
        assert len(lines) == 4
        assert lines[-1].startswith("OVERALL\t5\t80.0\t60.0")
        pooled_s1 = [True] * 4 + [False]
        pooled_s2 = [True, True, False, False, True]
        p = mcnemar_test(pooled_s1, pooled_s2)
        assert lines[-1] == f"OVERALL\t5\t80.0\t60.0\t{p:.4g}"
        # A third set whose pooled McNemar p-value differs from every
        # per-set one and from 1.
        report.results.append(SetResult("e, f", 3, {"s1": [True] * 3, "s2": [False] * 3}))
        p = mcnemar_test(pooled_s1 + [True] * 3, pooled_s2 + [False] * 3)
        assert f"{p:.4g}" == "0.2207"
        assert report.to_tsv().splitlines()[-1] == f"OVERALL\t8\t87.5\t37.5\t{p:.4g}"
        empty = EvalReport(("s1", "s2"), []).to_tsv().splitlines()
        assert empty == [lines[0], "OVERALL\t0\t0.0\t0.0\t1"]

    def test_table_aligned(self):
        table = self.build_report().to_table()
        assert "OVERALL" in table
        widths = {len(line) for line in table.splitlines()}
        assert len(widths) <= 2  # header and rows align (label column ragged-right)


class TestRunExperiment:
    def test_within_protocol(self, tmp_path):
        train, test, cset = separable_corpus(seed=0)
        corpus_path, sets_path, tag_path = write_inputs(tmp_path, train + test)
        config = ExperimentConfig(
            corpus=corpus_path, confusion_sets=sets_path, tagdict=tag_path,
            systems=("baseline", "winnow"), mode="unpruned",
            extraction=ExtractionParams(k=3),
        )
        report = run_experiment(config)
        assert report.results[0].cases > 0
        assert report.pooled().percent("winnow") > report.pooled().percent("baseline")

    def test_reports_deterministic(self, tmp_path):
        train, test, _ = separable_corpus(seed=3)
        corpus_path, sets_path, tag_path = write_inputs(tmp_path, train + test)
        config = ExperimentConfig(
            corpus=corpus_path, confusion_sets=sets_path, tagdict=tag_path,
            systems=("baseline", "bayes"), mode="unpruned", seed=11,
        )
        assert run_experiment(config).to_tsv() == run_experiment(config).to_tsv()

    def test_unknown_system_rejected(self, tmp_path):
        train, test, _ = separable_corpus(seed=0)
        corpus_path, sets_path, tag_path = write_inputs(tmp_path, train + test)
        config = ExperimentConfig(
            corpus=corpus_path, confusion_sets=sets_path, tagdict=tag_path,
            systems=("oracle",),
        )
        with pytest.raises(ValueError, match="unknown system"):
            run_experiment(config)

    def test_unknown_protocol_rejected(self, tmp_path):
        train, test, _ = separable_corpus(seed=0)
        corpus_path, sets_path, tag_path = write_inputs(tmp_path, train + test)
        config = ExperimentConfig(
            corpus=corpus_path, confusion_sets=sets_path, tagdict=tag_path,
            protocol="zigzag",
        )
        with pytest.raises(ValueError, match="unknown protocol"):
            run_experiment(config)

    def test_ladder_systems_all_valid(self):
        assert set(ABLATION_LADDER) <= set(SYSTEMS)

    def test_supunsup_beats_across_on_shifted_domain(self, tmp_path):
        corpus_a, corpus_b, _ = two_domain_pair(seed=0)
        corpus_path, sets_path, tag_path = write_inputs(tmp_path, corpus_a)
        test_path = tmp_path / "test_corpus.txt"
        test_path.write_text(corpus_text(corpus_b))
        scores = {}
        for protocol in ("across", "supunsup"):
            config = ExperimentConfig(
                corpus=corpus_path, confusion_sets=sets_path, tagdict=tag_path,
                systems=("winnow",), mode="unpruned", protocol=protocol,
                test_corpus=test_path, corrupt_pct=5.0,
                extraction=ExtractionParams(k=3),
            )
            scores[protocol] = run_experiment(config).pooled().percent("winnow")
        assert scores["supunsup"] > scores["across"]
