import gc
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import winspell
from winspell.cli import TRAINABLE_SYSTEMS, main
from winspell.winnow import load_network

from helpers import noisy_disjunct_corpus, separable_corpus, two_domain_pair


@pytest.fixture
def workspace(tmp_path):
    """Corpus, confusion sets, and tag dictionary on disk."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(
        "\n".join(
            [
                "a piece of cake is easy",
                "another piece of cake for you",
                "one more piece of pie please",
                "they cut a piece of bread",
                "peace talks began today",
                "world peace is the goal",
                "the peace treaty was signed",
                "lasting peace takes work",
            ]
        )
        + "\n"
    )
    sets = tmp_path / "sets.txt"
    sets.write_text("# test sets\npeace, piece\n")
    tags = tmp_path / "tags.tsv"
    tags.write_text("of\tPREP\ncake\tNOUN_sing\n")
    return tmp_path


def run(args):
    return main([str(a) for a in args])


class TestTrain:
    def test_writes_loadable_model(self, workspace, capsys):
        out = workspace / "models"
        rc = run(["train", "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv",
                  "--mode", "unpruned", "--system", "bayes", "--out", out])
        assert rc == 0
        assert (out / "peace+piece.bayes.model").exists()
        assert "wrote" in capsys.readouterr().out

    def test_winnow_cycles_reflected(self, workspace):
        out = workspace / "models"
        rc = run(["train", "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv",
                  "--mode", "unpruned", "--system", "winnow",
                  "--cycles", 5, "--out", out])
        assert rc == 0
        network = load_network(out / "peace+piece.winnow.model")
        # 8 occurrences x 5 cycles.
        assert all(c.examples_seen == 40 for c in network.clouds)

    def test_unknown_system_is_usage_error(self, workspace, capsys):
        rc = run(["train", "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv",
                  "--system", "psychic", "--out", workspace / "m"])
        assert rc == 2
        assert "unknown system" in capsys.readouterr().err

    def test_missing_corpus_is_runtime_error(self, workspace, capsys):
        rc = run(["train", "--corpus", workspace / "nope.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv",
                  "--system", "bayes", "--out", workspace / "m"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_absent_confusion_set_is_runtime_error(self, workspace, capsys):
        (workspace / "sets.txt").write_text("hear, here\n")
        rc = run(["train", "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv",
                  "--system", "bayes", "--out", workspace / "m"])
        assert rc == 1
        assert "no occurrences" in capsys.readouterr().err

    @pytest.mark.parametrize("system", ["bayes", "winnow"])
    def test_sets_sharing_tokens_train_as_if_alone(self, tmp_path, system):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "it may be a bee\nmaybe the bee may fly\nto be or not to be\n"
            "may be later , maybe not\nthe bee may be here\nlet it be may\n"
        )
        sets = ["may, may be", "be, bee", "maybe, may be"]
        (tmp_path / "all.txt").write_text("\n".join(sets) + "\n")
        (tmp_path / "tags.tsv").write_text("bee\tNOUN\nmay\tMD,NOUN\n")

        def train(sets_file, out):
            assert run(["train", "--corpus", corpus, "--confusion-sets", sets_file,
                        "--tagdict", tmp_path / "tags.tsv", "--mode", "unpruned",
                        "--system", system, "--k", 3, "--out", out]) == 0

        train(tmp_path / "all.txt", tmp_path / "together")
        for i, text in enumerate(sets):
            alone = tmp_path / f"alone{i}"
            (tmp_path / f"set{i}.txt").write_text(text + "\n")
            train(tmp_path / f"set{i}.txt", alone)
            (path,) = alone.iterdir()
            assert (tmp_path / "together" / path.name).read_bytes() == path.read_bytes()
        assert len(list((tmp_path / "together").iterdir())) == len(sets)


class TestClassify:
    def train_first(self, workspace, capsys, system="bayes"):
        out = workspace / "models"
        assert run(["train", "--corpus", workspace / "corpus.txt",
                    "--confusion-sets", workspace / "sets.txt",
                    "--tagdict", workspace / "tags.tsv",
                    "--mode", "unpruned", "--system", system, "--out", out]) == 0
        capsys.readouterr()  # drop the training chatter
        return out

    def test_suggests_planted_association(self, workspace, capsys, tmp_path):
        out = self.train_first(workspace, capsys)
        text = tmp_path / "input.txt"
        text.write_text("i'd like a peace of cake\n")
        rc = run(["classify", "--out", out, "--system", "bayes",
                  "--tagdict", workspace / "tags.tsv", text])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        fields = lines[0].split("\t")
        assert fields[2] == "peace"
        assert fields[3] == "piece"
        assert fields[4] == "fix"

    def test_agreeing_occurrence_flagged_ok(self, workspace, capsys, tmp_path):
        out = self.train_first(workspace, capsys)
        text = tmp_path / "input.txt"
        text.write_text("a piece of cake\n")
        run(["classify", "--out", out, "--system", "bayes",
             "--tagdict", workspace / "tags.tsv", text])
        line = capsys.readouterr().out.splitlines()[0]
        assert line.split("\t")[4] == "ok"

    def test_no_occurrences_empty_output(self, workspace, capsys, tmp_path):
        out = self.train_first(workspace, capsys)
        text = tmp_path / "input.txt"
        text.write_text("nothing relevant here\n")
        rc = run(["classify", "--out", out, "--system", "bayes",
                  "--tagdict", workspace / "tags.tsv", text])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_winnow_model_round_trip(self, workspace, capsys, tmp_path):
        out = self.train_first(workspace, capsys, system="winnow")
        text = tmp_path / "input.txt"
        text.write_text("i'd like a peace of cake\n")
        rc = run(["classify", "--out", out, "--system", "winnow",
                  "--tagdict", workspace / "tags.tsv", text])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0].split("\t")[3] == "piece"

    def test_missing_models_exit_1(self, workspace, capsys, tmp_path):
        text = tmp_path / "input.txt"
        text.write_text("whatever\n")
        rc = run(["classify", "--out", workspace / "empty", "--system", "bayes",
                  "--tagdict", workspace / "tags.tsv", text])
        assert rc == 1
        assert "no bayes models" in capsys.readouterr().err

    def test_truncated_model_one_line_error(self, workspace, capsys, tmp_path):
        out = self.train_first(workspace, capsys, system="winnow")
        model = out / "peace+piece.winnow.model"
        model.write_text("".join(model.read_text().splitlines(keepends=True)[:5]))
        text = tmp_path / "input.txt"
        text.write_text("a piece of cake\n")
        rc = run(["classify", "--out", out, "--system", "winnow",
                  "--tagdict", workspace / "tags.tsv", text])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, bad", [("mistakes", "-3000"), ("examples_seen", "-5"), ("horizon", "0")]
    )
    def test_bad_count_one_line_error(self, workspace, capsys, tmp_path, field, bad):
        out = self.train_first(workspace, capsys, system="winnow")
        model = out / "peace+piece.winnow.model"
        edited, edits = re.subn(rf"\b{field}=\d+", f"{field}={bad}", model.read_text(), 1)
        assert edits == 1
        model.write_text(edited)
        text = tmp_path / "input.txt"
        text.write_text("a piece of cake\n")
        rc = run(["classify", "--out", out, "--system", "winnow",
                  "--tagdict", workspace / "tags.tsv", text])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {model}: ") and err.count("\n") == 1
        assert field in err

    def test_closed_stdout_exits_quietly(self, workspace, capsys, tmp_path):
        out = self.train_first(workspace, capsys)
        text = tmp_path / "input.txt"
        # Far more output than a pipe buffers, so writes fail once the reader
        # has gone.
        text.write_text("a piece of cake\n" * 5000)
        package_root = str(Path(winspell.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "winspell", "classify", "--out", str(out),
             "--system", "bayes", "--tagdict", str(workspace / "tags.tsv"), str(text)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0, stderr.decode()
        assert first.split(b"\t")[4] == b"ok"
        assert stderr == b""

    @pytest.mark.parametrize("system", ["bayes", "winnow"])
    def test_rows_ordered_by_line_then_model_then_span(self, tmp_path, capsys, system):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(
            "a piece of cake is easy\nanother piece of cake for you\n"
            "world peace is the goal\nthe peace treaty was signed\n"
            "their house is big\ntheir dog barks\n"
            "over there it is\nput it there now\n"
        )
        sets = tmp_path / "sets.txt"
        sets.write_text("their, there\npeace, piece\n")
        tags = tmp_path / "tags.tsv"
        tags.write_text("of\tPREP\n")
        out = tmp_path / "models"
        assert run(["train", "--corpus", corpus, "--confusion-sets", sets,
                    "--tagdict", tags, "--mode", "unpruned", "--system", system,
                    "--out", out]) == 0
        capsys.readouterr()
        draft = tmp_path / "draft.txt"
        draft.write_text(
            "there is a piece of their cake\n"
            "\n"
            "peace and piece over there and their peace\n"
            "nothing here\n"
        )
        assert run(["classify", "--out", out, "--system", system,
                    "--tagdict", tags, draft]) == 0
        rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
        assert all(len(row) == 6 for row in rows)
        # Model files sort as peace+piece before their+there.
        assert [row[:3] for row in rows] == [
            ["1", "3:1", "piece"],
            ["1", "0:1", "there"],
            ["1", "5:1", "their"],
            ["3", "0:1", "peace"],
            ["3", "2:1", "piece"],
            ["3", "7:1", "peace"],
            ["3", "4:1", "there"],
            ["3", "6:1", "their"],
        ]


def write_eval_workspace(tmp_path, seed=0):
    train, test, _ = separable_corpus(seed=seed)
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(" ".join(s.surfaces) for s in train + test) + "\n")
    sets = tmp_path / "sets.txt"
    sets.write_text("dax, fep\n")
    tags = tmp_path / "tags.tsv"
    tags.write_text("rix\tMARK\nzor\tMARK\n")
    return corpus, sets, tags


class TestEvalAndAblate:
    def test_eval_writes_reports(self, tmp_path, capsys):
        corpus, sets, tags = write_eval_workspace(tmp_path)
        out = tmp_path / "out"
        rc = run(["eval", "--corpus", corpus, "--confusion-sets", sets,
                  "--tagdict", tags, "--mode", "unpruned",
                  "--system", "baseline", "--system", "winnow",
                  "--k", 3, "--out", out])
        assert rc == 0
        tsv = (out / "report.tsv").read_text()
        header = tsv.splitlines()[0].split("\t")
        assert header == ["confusion_set", "cases", "baseline", "winnow",
                          "p_baseline_vs_winnow"]
        assert (out / "report.txt").exists()
        assert "OVERALL" in capsys.readouterr().out

    def test_ablate_emits_ladder_columns_in_order(self, tmp_path, capsys):
        corpus, sets, tags = write_eval_workspace(tmp_path)
        out = tmp_path / "out"
        rc = run(["ablate", "--corpus", corpus, "--confusion-sets", sets,
                  "--tagdict", tags, "--mode", "unpruned", "--k", 3, "--out", out])
        assert rc == 0
        header = (out / "ablation.tsv").read_text().splitlines()[0].split("\t")
        assert header[2:7] == ["bayes", "simplified-bayes", "winnow-1layer",
                               "winnow-2layer", "winnow-bayes-init"]

    def test_eval_supunsup_protocol(self, tmp_path):
        corpus_a, corpus_b, _ = two_domain_pair(seed=0)
        corpus = tmp_path / "a.txt"
        corpus.write_text("\n".join(" ".join(s.surfaces) for s in corpus_a) + "\n")
        test_corpus = tmp_path / "b.txt"
        test_corpus.write_text("\n".join(" ".join(s.surfaces) for s in corpus_b) + "\n")
        sets = tmp_path / "sets.txt"
        sets.write_text("dax, fep\n")
        tags = tmp_path / "tags.tsv"
        tags.write_text("brix\tMARK\n")
        out = tmp_path / "out"
        rc = run(["eval", "--corpus", corpus, "--test-corpus", test_corpus,
                  "--confusion-sets", sets, "--tagdict", tags,
                  "--mode", "unpruned", "--protocol", "supunsup",
                  "--corrupt-pct", 5, "--system", "winnow", "--k", 3,
                  "--out", out])
        assert rc == 0
        assert (out / "report.tsv").exists()

    def test_eval_includes_mcnemar_column(self, tmp_path):
        corpus, sets, tags = write_eval_workspace(tmp_path)
        out = tmp_path / "out"
        run(["eval", "--corpus", corpus, "--confusion-sets", sets,
             "--tagdict", tags, "--mode", "unpruned",
             "--system", "bayes", "--system", "winnow", "--k", 3, "--out", out])
        header = (out / "report.tsv").read_text().splitlines()[0]
        assert "p_bayes_vs_winnow" in header


class TestCorrupt:
    def test_p_zero_identity(self, tmp_path, capsys):
        corpus, sets, _ = write_eval_workspace(tmp_path)
        out = tmp_path / "out"
        rc = run(["corrupt", "--corpus", corpus, "--confusion-sets", sets,
                  "--corrupt-pct", 0, "--out", out])
        assert rc == 0
        assert (out / "corrupted.txt").read_bytes() == corpus.read_bytes()
        changes = (out / "changes.tsv").read_text().splitlines()
        assert len(changes) == 1  # header only

    def test_corruption_logged(self, tmp_path):
        corpus, sets, _ = write_eval_workspace(tmp_path)
        out = tmp_path / "out"
        rc = run(["corrupt", "--corpus", corpus, "--confusion-sets", sets,
                  "--corrupt-pct", 50, "--seed", 0, "--out", out])
        assert rc == 0
        assert (out / "corrupted.txt").read_bytes() != corpus.read_bytes()
        changes = (out / "changes.tsv").read_text().splitlines()
        assert changes[0] == "set\tsentence\tspan_start\told_member\tnew_member"
        assert len(changes) > 1

    def test_deterministic_across_runs(self, tmp_path):
        corpus, sets, _ = write_eval_workspace(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            run(["corrupt", "--corpus", corpus, "--confusion-sets", sets,
                 "--corrupt-pct", 30, "--seed", 9, "--out", out])
        assert (out1 / "corrupted.txt").read_bytes() == (out2 / "corrupted.txt").read_bytes()
        assert (out1 / "changes.tsv").read_bytes() == (out2 / "changes.tsv").read_bytes()


class TestEmptyConfusionSets:
    """A confusion-set file without a set is an error, not an empty run."""

    @pytest.mark.parametrize("command", ["train", "eval", "ablate", "corrupt"])
    def test_one_line_error(self, workspace, capsys, command):
        (workspace / "sets.txt").write_text("# no sets here\n\n")
        out = workspace / "out"
        args = [command, "--corpus", workspace / "corpus.txt",
                "--confusion-sets", workspace / "sets.txt",
                "--tagdict", workspace / "tags.tsv", "--out", out]
        if command == "train":
            args += ["--system", "bayes"]
        rc = run(args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {workspace / 'sets.txt'}: no confusion sets\n"
        assert not out.exists() or not any(out.iterdir())


class TestRepeatedInputs:
    """A set or a tag-dictionary word listed twice is an error. A repeated
    set would give classify two lines with opposite verdicts for one span; a
    repeated word would drop one line's tags without a word."""

    @pytest.mark.parametrize("command", ["train", "eval", "ablate", "corrupt"])
    def test_repeated_set_one_line_error(self, workspace, capsys, command):
        (workspace / "sets.txt").write_text("peace, piece\npiece, peace\n")
        out = workspace / "out"
        args = [command, "--corpus", workspace / "corpus.txt",
                "--confusion-sets", workspace / "sets.txt",
                "--tagdict", workspace / "tags.tsv", "--out", out]
        if command == "train":
            args += ["--system", "bayes"]
        rc = run(args)
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (f"error: {workspace / 'sets.txt'}: line 2: "
                       "confusion set {piece, peace} repeats line 1\n")
        assert not out.exists() or not any(out.iterdir())

    def test_repeated_tag_word_one_line_error(self, workspace, capsys):
        (workspace / "tags.tsv").write_text("of\tPREP\ncake\tNOUN_sing\nof\tADP\n")
        rc = run(["train", "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv",
                  "--system", "bayes", "--out", workspace / "out"])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {workspace / 'tags.tsv'}: line 3: tag entry 'of' first listed on line 1\n"
        )


class TestCollector:
    """``main`` runs a command with the cyclic collector off and leaves it as
    it found it. That is safe because a command builds no reference cycles:
    what a collection finds after it does not grow with the input."""

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("outcome", ["ok", "error", "usage", "argparse-exit"])
    def test_collector_state_restored(self, workspace, capsys, enabled, outcome):
        args = {
            "ok": ["corrupt", "--corpus", workspace / "corpus.txt",
                   "--confusion-sets", workspace / "sets.txt", "--out", workspace / "out"],
            "error": ["corrupt", "--corpus", workspace / "nope.txt",
                      "--confusion-sets", workspace / "sets.txt", "--out", workspace / "out"],
            "usage": ["corrupt", "--corpus", workspace / "corpus.txt"],
            "argparse-exit": ["transmogrify"],
        }[outcome]
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if outcome == "argparse-exit":
                with pytest.raises(SystemExit) as exc:
                    run(args)
                code = exc.value.code
            else:
                code = run(args)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert code == {"ok": 0, "error": 1, "usage": 2, "argparse-exit": 2}[outcome]

    @pytest.mark.parametrize(
        "command", ["train", "eval", "eval-supunsup", "ablate", "classify", "corrupt"]
    )
    def test_garbage_does_not_grow_with_corpus(self, tmp_path, capsys, command):
        train, test, _ = separable_corpus(seed=0)
        corpus_a, corpus_b, _ = two_domain_pair(seed=0)
        text = corpus_text(corpus_a if command == "eval-supunsup" else train + test)
        sets = write(tmp_path / "sets.txt", "dax, fep\n")
        tags = write(tmp_path / "tags.tsv", "rix\tMARK\nzor\tMARK\nbrix\tMARK\n")
        models = tmp_path / "models"
        common = ["--confusion-sets", sets, "--tagdict", tags, "--mode", "unpruned", "--k", 3]
        if command == "classify":
            assert run(["train", "--corpus", write(tmp_path / "c.txt", text),
                        "--system", "winnow", "--out", models, *common]) == 0
        unreachable = []
        for repeat in (1, 4):
            corpus = write(tmp_path / f"corpus{repeat}.txt", text * repeat)
            test_corpus = write(tmp_path / f"test{repeat}.txt", corpus_text(corpus_b) * repeat)
            out = tmp_path / f"out{repeat}"
            args = {
                "train": ["train", "--corpus", corpus, "--system", "winnow", "--out", out],
                "eval": ["eval", "--corpus", corpus, "--out", out],
                "eval-supunsup": ["eval", "--corpus", corpus, "--test-corpus", test_corpus,
                                  "--protocol", "supunsup", "--system", "winnow", "--out", out],
                "ablate": ["ablate", "--corpus", corpus, "--out", out],
                "classify": ["classify", "--system", "winnow", "--out", models, corpus],
                "corrupt": ["corrupt", "--corpus", corpus, "--corrupt-pct", 30, "--out", out],
            }[command] + common
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                gc.collect()
                assert run(args) == 0
                unreachable.append(gc.collect())
            finally:
                (gc.enable if was_enabled else gc.disable)()
            capsys.readouterr()
        assert unreachable[0] == unreachable[1]


def corpus_text(sentences) -> str:
    return "\n".join(" ".join(s.surfaces) for s in sentences) + "\n"


def write(path, text):
    path.write_text(text)
    return path


def test_cli_import_skips_dataclasses_and_statistics():
    """Generating dataclass code and importing ``statistics`` (with
    ``fractions`` and ``decimal``) cost every command ~20 ms at start-up."""
    package_root = str(Path(winspell.__file__).resolve().parent.parent)
    probe = (
        "import sys; before = set(sys.modules); import winspell.cli; "
        "print(sorted({'dataclasses', 'statistics'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=package_root)
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout == "[]\n"


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus": str(workspace / "corpus.txt"),
            "confusion-sets": str(workspace / "sets.txt"),
            "tagdict": str(workspace / "tags.tsv"),
            "mode": "pruned",
            "system": "bayes",
            "out": str(tmp_path / "from_config"),
        }))
        # --mode on the command line beats the config file.
        rc = run(["train", "--config", config, "--mode", "unpruned"])
        assert rc == 0
        assert (tmp_path / "from_config" / "peace+piece.bayes.model").exists()

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        rc = run(["train", "--config", config])
        assert rc == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("command,entry", [
        ("train", {"k": "3"}),
        ("train", {"k": True}),
        ("train", {"cycles": 2.5}),
        ("train", {"modes": "unpruned"}),
        ("train", {"mode": None}),
        ("eval", {"corrupt_pct": "5"}),
        ("eval", {"systems": "bayes"}),
        ("eval", {"systems": [1]}),
    ])
    def test_bad_entry_is_usage_error_naming_key(self, workspace, tmp_path, capsys,
                                                 command, entry):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(entry))
        rc = run([command, "--config", config, "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv", "--system", "winnow",
                  "--out", tmp_path / "out"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("usage error: ") and err.count("\n") == 1
        (key,) = entry
        assert repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_other_subcommands_keys_ignored(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        # systems is eval's flag; corrupt_pct takes any number.
        config.write_text(json.dumps({"systems": ["baseline"], "corrupt_pct": 5}))
        rc = run(["train", "--config", config, "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv", "--system", "bayes",
                  "--out", tmp_path / "out"])
        assert rc == 0
        assert (tmp_path / "out" / "peace+piece.bayes.model").exists()

    def test_missing_required_flag_reported(self, workspace, capsys):
        rc = run(["train", "--corpus", workspace / "corpus.txt"])
        assert rc == 2
        assert "--confusion-sets" in capsys.readouterr().err


class TestUsage:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_bad_mode_rejected(self, workspace, capsys):
        rc = run(["train", "--corpus", workspace / "corpus.txt",
                  "--confusion-sets", workspace / "sets.txt",
                  "--tagdict", workspace / "tags.tsv",
                  "--system", "bayes", "--mode", "medium",
                  "--out", workspace / "m"])
        assert rc == 2
        assert "unknown mode" in capsys.readouterr().err


# SHA-256 of every file and stdout the commands in TestGoldenBytes produce.
GOLDEN_DIGESTS = {
    "<stdout of train bayes>":
        "030934efc5a6106a4403f0ba666a188995508cd1943c1b1f10b9ca7df8560b89",
    "<stdout of train simplified-bayes>":
        "fad11e03626ceb3a9c31bf7fdb9072ce61a4799bbbd2a91785039c32dce3b805",
    "<stdout of train winnow>":
        "b2678ca1e49ee6eff9e79c24ff6175dd6ba16f8e70b8f911acf7f57c5f5b8ea2",
    "<stdout of train simplified-winnow>":
        "6b231438c610a5fb374f0e74365116ee437c817172c5fdce938345e56098513a",
    "<stdout of train winnow-1layer>":
        "1262c3d647029986110eb1e7afa1e23f5eee8f5bc84c04ef3a72904439af1a84",
    "<stdout of train winnow-2layer>":
        "0af2d06801fc4f5185c06c6e6e2a5b757b1e87ad695218c97c7436b5f91da0e7",
    "<stdout of train winnow-bayes-init>":
        "0d8df16cfb43c03df107226da89d24c8b4f24c9d866c845e4f520589c091cfaa",
    "<stdout of ablate>":
        "c80a694ddd623bfc428efbb22b0ff5afdba3f35a0b1d9ec1d082bacb18d281e9",
    "<stdout of classify bayes>":
        "23f56ec83b9543b0cb20edfda770802f7def09f09d5c0b8b7f0d8de72821fe29",
    "<stdout of classify simplified-bayes>":
        "b11c25bf8844f769b73db333c13932d669f4c5ae065b03c5995299c3b0b0bfba",
    "<stdout of classify winnow>":
        "5c45627fbda179c09d5020447529baad3839a95ff5fe98cd6ea899754ab34f80",
    "<stdout of classify simplified-winnow>":
        "9e4da6600a6fc47f11de278a258c663d332c99ba74f8acb2ca80795ecab6086b",
    "<stdout of classify winnow-1layer>":
        "40246800f405da4781b4727c2a8740bf7e1a13d7362f7e3be18f171b2daef9d6",
    "<stdout of classify winnow-2layer>":
        "914d6c94c0d086ac488b9ec615cdff5881390a94a75d63a1366a813e3cf8a96c",
    "<stdout of classify winnow-bayes-init>":
        "f1119621eedc519229ac1a546fcdff2eedb79556b824a598fabaa3b51a875ac5",
    "out/dax+fep.bayes.model":
        "62b180a7e65475646e2ce9158ebc229fb7f7ea4b877507ec3fa1792b879e462a",
    "out/dax+fep.simplified-bayes.model":
        "f67aa863f14ce601c75841cc2fe1a11b8eaaddd8104a1cb02f8f86bdcdba7dff",
    "out/dax+fep.simplified-winnow.model":
        "d0626265f7d6d5e35eaf40650977e3c89a4661abfa554b32fbc8cc92e7ae38c3",
    "out/dax+fep.winnow-1layer.model":
        "8a453994e3e3bc662159d8420ee2c83c8f0c4eaece05c92b4604a83d7f57718c",
    "out/dax+fep.winnow-2layer.model":
        "b1d3f23caaa34f33986630fc967d9b7997c377447fd98704035ba556c565e33e",
    "out/dax+fep.winnow-bayes-init.model":
        "b782d3e088beb6e9d3b406cc8247b6aadccf8f54311d3d8c56bd928275c0c6ea",
    "out/dax+fep.winnow.model":
        "b98c20d935e85e4339a56dfcd7015713209b7cfc522c99bc5f93648c52093cac",
    "report/ablation.tsv":
        "7c0f1cfa0948179d28b53a6c652b3969a3cf2ab34a3bb28cd4a3bafd4476421f",
    "report/ablation.txt":
        "c80a694ddd623bfc428efbb22b0ff5afdba3f35a0b1d9ec1d082bacb18d281e9",
}


class TestGoldenBytes:
    def test_outputs_match_recorded_digests(self, tmp_path, capsys, monkeypatch):
        """Every trainable system's model file, the ablation report and every
        system's classify output keep their recorded bytes. The corpus has
        flipped labels, so each trained Winnow variant promotes and demotes."""
        sentences, _ = noisy_disjunct_corpus(seed=0)
        text = "\n".join(" ".join(s.surfaces) for s in sentences) + "\n"
        (tmp_path / "corpus.txt").write_text(text)
        (tmp_path / "sets.txt").write_text("dax, fep\n")
        (tmp_path / "tags.tsv").write_text("rix\tMARK\nzor\tMARK\nquom\tMARK\n")
        monkeypatch.chdir(tmp_path)
        common = ["--corpus", "corpus.txt", "--confusion-sets", "sets.txt",
                  "--tagdict", "tags.tsv", "--mode", "unpruned", "--k", "3"]
        commands = {f"train {s}": ["train", *common, "--system", s, "--out", "out"]
                    for s in TRAINABLE_SYSTEMS}
        commands["ablate"] = ["ablate", *common, "--out", "report"]
        commands.update(
            (f"classify {s}", ["classify", "--out", "out", "--system", s,
                               "--tagdict", "tags.tsv", "corpus.txt"])
            for s in TRAINABLE_SYSTEMS
        )
        digests = {}
        for name, args in commands.items():
            assert main(args) == 0, name
            digests[f"<stdout of {name}>"] = capsys.readouterr().out.encode()
        for path in sorted((tmp_path / "out").iterdir()) + sorted(
            (tmp_path / "report").iterdir()
        ):
            digests[path.relative_to(tmp_path).as_posix()] = path.read_bytes()
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()}
        assert digests == GOLDEN_DIGESTS
