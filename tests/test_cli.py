import ast
import gc
import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import winspell
from winspell import bayes, cli
from winspell.cli import COMMANDS, FLAGS, _build_parser, _option, main
from winspell.evaluation import TRAINABLE_SYSTEMS, ExperimentConfig, TrainingSet
from winspell.features import ExtractionParams
from winspell.winnow import load_network

from helpers import (
    corpus_text,
    noisy_disjunct_corpus,
    separable_corpus,
    two_domain_pair,
    write_inputs,
)
from refusals import child_env


def run(args):
    return main([str(a) for a in args])


def train(workspace, *flags):
    """``train`` on the workspace's corpus.txt, sets.txt and tags.tsv."""
    return run(["train", "--corpus", workspace / "corpus.txt",
                "--confusion-sets", workspace / "sets.txt",
                "--tagdict", workspace / "tags.tsv", *flags])


class TestTrain:
    def test_winnow_cycles_reflected(self, workspace):
        out = workspace / "out"
        rc = train(workspace, "--mode", "unpruned", "--system", "winnow", "--cycles", 2,
                   "--out", out)
        assert rc == 0
        network = load_network(out / "peace+piece.winnow.model")
        # 6 occurrences x 2 cycles.
        assert all(c.examples_seen == 12 for c in network.clouds)

    @pytest.mark.parametrize("system, streams, bayes_models", [("bayes", 0, 1), ("winnow", 1, 0)])
    def test_builds_only_what_the_system_reads(self, workspace, monkeypatch, system, streams,
                                               bayes_models):
        built = []
        build_stream = TrainingSet.stream.func
        build_model = bayes.BayesModel.__init__

        def counting_stream(training):
            built.append("stream")
            return build_stream(training)

        def counting_model(model, *args, **kwargs):
            built.append("bayes")
            build_model(model, *args, **kwargs)

        monkeypatch.setattr(TrainingSet.stream, "func", counting_stream)
        monkeypatch.setattr(bayes.BayesModel, "__init__", counting_model)
        rc = train(workspace, "--mode", "unpruned", "--system", system, "--out", workspace / "m")
        assert rc == 0
        assert (built.count("stream"), built.count("bayes")) == (streams, bayes_models)

    def test_bayes_train_saves_complete_tables(self, workspace, monkeypatch):
        # The model handed to saving holds every feature's derived tables.
        saved = []
        monkeypatch.setattr(winspell.cli, "save_system_model",
                            lambda model, path: saved.append(model))
        rc = train(workspace, "--mode", "unpruned", "--system", "bayes", "--out", workspace / "m")
        assert rc == 0
        (model,) = saved
        n = len(model.features)
        assert n and len(model.log_likelihoods) == len(model.mean_lambda) == n
        assert None not in model.log_likelihoods and None not in model.mean_lambda

    @pytest.mark.parametrize("letters, rc", [(7, 0), (8, 1)])
    def test_model_file_name_length_counts_bytes(self, workspace, capsys, monkeypatch,
                                                 letters, rc):
        # A name of 2 * letters + 15 bytes (é is two in UTF-8) against a
        # limit of 30, asked of the nearest existing parent of --out.
        asked = []
        monkeypatch.setattr(os, "pathconf", lambda path, name: asked.append(path) or 30)
        with open(workspace / "corpus.txt", "a") as fh:
            fh.write(f"one {'é' * letters} or two\n")
        (workspace / "sets.txt").write_text(f"{'é' * letters}, or\n")
        out = workspace / "a" / "b"
        assert train(workspace, "--system", "bayes", "--out", out) == rc
        assert asked == [workspace]
        assert out.exists() == (rc == 0)
        err = capsys.readouterr().err
        assert err == "" if rc == 0 else err.endswith("has a name longer than 30 bytes\n")

    @pytest.mark.parametrize("raises", [False, True])
    def test_model_file_name_limit_is_255_where_unavailable(self, workspace, capsys,
                                                             monkeypatch, raises):
        def pathconf(path, name):  # no limit given, or none to be had
            if raises:
                raise OSError(22, "Invalid argument")
            return -1

        monkeypatch.setattr(os, "pathconf", pathconf)
        (workspace / "sets.txt").write_text(f"{'x' * 241}, or\n")  # 256 bytes
        rc = train(workspace, "--system", "bayes", "--out", workspace / "m")
        assert rc == 1
        assert capsys.readouterr().err.endswith("has a name longer than 255 bytes\n")

    @pytest.mark.parametrize("system", ["bayes", "winnow"])
    def test_sets_sharing_tokens_train_as_if_alone(self, tmp_path, system):
        (tmp_path / "corpus.txt").write_text(
            "it may be a bee\nmaybe the bee may fly\nto be or not to be\n"
            "may be later , maybe not\nthe bee may be here\nlet it be may\n"
        )
        sets = ["may, may be", "be, bee", "maybe, may be"]
        (tmp_path / "tags.tsv").write_text("bee\tNOUN\nmay\tMD,NOUN\n")

        def train_sets(texts, out):
            (tmp_path / "sets.txt").write_text("\n".join(texts) + "\n")
            assert train(tmp_path, "--mode", "unpruned", "--system", system, "--k", 3,
                         "--out", out) == 0

        train_sets(sets, tmp_path / "together")
        for i, text in enumerate(sets):
            alone = tmp_path / f"alone{i}"
            train_sets([text], alone)
            (path,) = alone.iterdir()
            assert (tmp_path / "together" / path.name).read_bytes() == path.read_bytes()
        assert len(list((tmp_path / "together").iterdir())) == len(sets)


class TestClassify:
    # classify's rows for one draft line, less their score column, from the toy's models.
    @pytest.mark.parametrize("system, draft, rows", [
        ("bayes", "i'd like a peace of cake", ["1\t3:1\tpeace\tpiece\tfix"]),
        ("winnow", "i'd like a peace of cake", ["1\t3:1\tpeace\tpiece\tfix"]),
        ("bayes", "a piece of cake", ["1\t1:1\tpiece\tpiece\tok"]),
        ("winnow", "a piece of cake", ["1\t1:1\tpiece\tpiece\tok"]),
        ("bayes", "nothing relevant here", []),
    ], ids=["bayes-fix", "winnow-fix", "bayes-ok", "winnow-ok", "no-occurrences"])
    def test_rows_but_the_score(self, toy, capsys, tmp_path, system, draft, rows):
        text = tmp_path / "input.txt"
        text.write_text(draft + "\n")
        assert run(["classify", "--out", toy / "models", "--system", system,
                    "--tagdict", toy / "tags.tsv", text]) == 0
        assert [line.rsplit("\t", 1)[0] for line in capsys.readouterr().out.splitlines()] == rows

    def test_stdin_input_reads_as_the_file_does(self, toy, capsys, tmp_path, monkeypatch):
        data = "a peace of cake\r\nworld piece is near\n\nno match here\n".encode()
        text = tmp_path / "input.txt"
        text.write_bytes(data)
        args = ["classify", "--out", toy / "models", "--system", "bayes",
                "--tagdict", toy / "tags.tsv"]
        assert run([*args, text]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(args) == 0
        assert capsys.readouterr().out == from_file
        assert from_file.count("\n") == 2

    def test_closed_stdout_exits_quietly(self, toy, tmp_path):
        text = tmp_path / "input.txt"
        # Far more output than a pipe buffers, so writes fail once the reader
        # has gone.
        text.write_text("a piece of cake\n" * 5000)
        proc = subprocess.Popen(
            [sys.executable, "-m", "winspell", "classify", "--out", str(toy / "models"),
             "--system", "bayes", "--tagdict", str(toy / "tags.tsv"), str(text)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
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
        (tmp_path / "corpus.txt").write_text(
            "a piece of cake is easy\nanother piece of cake for you\n"
            "world peace is the goal\nthe peace treaty was signed\n"
            "their house is big\ntheir dog barks\n"
            "over there it is\nput it there now\n"
        )
        (tmp_path / "sets.txt").write_text("their, there\npeace, piece\n")
        tags = tmp_path / "tags.tsv"
        tags.write_text("of\tPREP\n")
        out = tmp_path / "models"
        assert train(tmp_path, "--mode", "unpruned", "--system", system, "--out", out) == 0
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


class TestCorrupt:
    def test_p_zero_identity(self, tmp_path, capsys):
        train, test, _ = separable_corpus(seed=0)
        corpus, sets, _ = write_inputs(tmp_path, train + test)
        out = tmp_path / "out"
        rc = run(["corrupt", "--corpus", corpus, "--confusion-sets", sets,
                  "--corrupt-pct", 0, "--out", out])
        assert rc == 0
        assert (out / "corrupted.txt").read_bytes() == corpus.read_bytes()
        changes = (out / "changes.tsv").read_text().splitlines()
        assert len(changes) == 1  # header only


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
        # classify and corrupt take only some of the common flags.
        common_read = {"classify": ["--tagdict", tags], "corrupt": ["--confusion-sets", sets]}
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
            }[command] + common_read.get(command, common)
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


def write(path, text):
    path.write_text(text)
    return path


def test_cli_import_skips_dataclasses_and_statistics():
    """Generating dataclass code and importing ``statistics`` (with
    ``fractions`` and ``decimal``) cost every command ~20 ms at start-up;
    ``json``, which only a ``--config`` file needs, ~1.7 ms more."""
    probe = (
        "import sys; before = set(sys.modules); import winspell.cli; "
        "print(sorted({'dataclasses', 'json', 'statistics'} & (set(sys.modules) - before)))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                            text=True, env=child_env(), check=True)
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

    def test_other_subcommands_keys_ignored(self, workspace, tmp_path):
        config = tmp_path / "config.json"
        # systems is eval's flag; corrupt_pct takes any number.
        config.write_text(json.dumps({"systems": ["baseline"], "corrupt_pct": 5}))
        rc = train(workspace, "--config", config, "--system", "bayes", "--out", tmp_path / "out")
        assert rc == 0
        assert (tmp_path / "out" / "peace+piece.bayes.model").exists()


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_command_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## Command line\n") : text.index("\n## File formats\n")]


def test_readme_command_lines_parse():
    """Every ``winspell`` line of README's example block parses as it stands."""
    section = readme_command_section()
    block = section[section.index("```sh\n") + 6 :]
    block = block[: block.index("```")].replace("\\\n", " ")
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("winspell ")]
    assert sorted({argv[0] for argv in commands}) == sorted(COMMANDS)
    for argv in commands:
        args = _build_parser(argv[0]).parse_args(argv)
        assert args.command == argv[0]


def test_readme_lists_each_subcommands_flags():
    """README's bullet per subcommand names its flags, required ones first."""
    section = readme_command_section()
    listed = {}
    for bullet in re.findall(r"^- `(\w+)`: (.*?)\.$", section, re.M | re.S):
        name, text = bullet
        required, _, optional = text.partition(";")
        listed[name] = (re.findall(r"`(--[\w-]+)`", required),
                        re.findall(r"`(--[\w-]+)`", optional))
    expected = {
        name: ([_option(d) for d in required], [_option(d) for d in optional])
        for name, (required, optional) in COMMANDS.items()
    }
    assert listed == expected


# SHA-256 of each help text, whitespace runs collapsed to one space, so that
# argparse's column layout, which differs between Python versions, does not
# count; the words and their order do. A parser gets only the invoked
# subcommand's flags, so this pins that each text is the full one.
HELP_DIGESTS = {
    "winspell": "520b0d588d101e2b52f08a0bf3fe1dcffcc55a6f1857042c0cda16523151a6e7",
    "train": "24c8783d86cec6ec3f76b030742d6a5fc0084125000219a98f1ae9c4983d2eff",
    "classify": "a855dc5399a102fddb0a14a46d928e719371ad48fa23c4e7df85274498f208b2",
    "eval": "41e4d1d846df5aaf52d73fb1a96fe1512585009331e3434cf9f2dac021b871d3",
    "ablate": "cfd2ec9fa2184198d01b187df3fac9f6cb4f229532bc5a3b7c22cce8fe8e1b38",
    "corrupt": "8145c401984e14602e11ea7878807c955c2bdfc263d48d7a09a5dc2ac085825c",
}


def test_help_defaults_are_the_experiments(capsys, monkeypatch):
    # Each default --help shows is ExperimentConfig's or its ExtractionParams',
    # and cli.FLAGS spells none of them again.
    monkeypatch.setenv("COLUMNS", "1000")
    expected = {**ExperimentConfig._field_defaults, **ExtractionParams()._asdict()}
    shown = {}
    for command in COMMANDS:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = capsys.readouterr().out
        for option, default in re.findall(r"^ +--([\w-]+) [A-Z_]+\s+[^\n]*?default ([^)]*)\)",
                                          text, re.M):
            shown["systems" if option == "system" else option.replace("-", "_")] = default
        if command in ("train", "classify"):
            assert re.search(r"--system SYSTEM\s+.*: " + re.escape("|".join(TRAINABLE_SYSTEMS))
                             + "$", text, re.M)
    systems = shown.pop("systems")
    assert re.split(r", | and ", systems) == list(expected["systems"])
    assert shown == {dest: str(expected[dest]) for dest in shown}
    assert sorted(shown) == ["corrupt_pct", "cycles", "k", "l", "mode", "protocol", "seed"]
    assert FLAGS["system"][2] == TRAINABLE_SYSTEMS
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    (flags,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "FLAGS"]
    spelled = [ast.unparse(entry) for entry in flags.values
               if isinstance(entry.elts[1], ast.Constant) and entry.elts[1].value is not None]
    assert spelled == []


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_text_unchanged(command, capsys, monkeypatch):
    # Wide enough that no help line wraps.
    monkeypatch.setenv("COLUMNS", "1000")
    argv = ["--help"] if command == "winspell" else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == HELP_DIGESTS[command]


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
    "<stdout of eval supunsup>":
        "86fdad46943fad46e990067f7d677c0ca9210e9d46930dd363e20248a027b30b",
    "<stdout of eval within>":
        "fa560022e9896548af91aaabf12d43d38756671bbd1bc5979904d67a1f2693de",
    "<stdout of corrupt>":
        "2c52b19805045f1291da50b2fd46cbd510031e810f47c6ae78e40e2fb9c1b28a",
    "corrupt/changes.tsv":
        "ac8011a73acf531bddd86260007f8d61c1ae16b99f0ab4ce3bf8517567d4e087",
    "corrupt/corrupted.txt":
        "3762a6dcb1521e94e607e600f35eda3419da99209a5ed69a3f2b4a033a85b16e",
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
    "report/report.tsv":
        "3a3daf53a2bc02a56c484cf60a263f14d3958b05aa45b87d325117befc71df23",
    "report/report.txt":
        "86fdad46943fad46e990067f7d677c0ca9210e9d46930dd363e20248a027b30b",
    "within/report.tsv":
        "0fc8db7f6879b49a89d35ce77daeaf977db15a666cde7d3fcb1851b021b502aa",
    "within/report.txt":
        "fa560022e9896548af91aaabf12d43d38756671bbd1bc5979904d67a1f2693de",
}


class TestGoldenBytes:
    def test_outputs_match_recorded_digests(self, tmp_path, capsys, monkeypatch):
        """Every trainable system's model file, the ablation report, every
        system's classify output, a report of the default systems under
        within, a supunsup report and a corruption of two sets keep their
        recorded bytes. The corpus has flipped labels, so each
        trained Winnow variant promotes and demotes. Each value eval is given
        apart from --k and --mode changes its report from the default's, and
        the second set makes 45 of the 87 changes corrupt logs."""
        sentences, _ = noisy_disjunct_corpus(seed=0)
        (tmp_path / "corpus.txt").write_text(corpus_text(sentences))
        (tmp_path / "sets.txt").write_text("dax, fep\n")
        (tmp_path / "two-sets.txt").write_text("dax, fep\nrix, zor\n")
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
        commands["eval supunsup"] = ["eval", *common, *(
            "--protocol supunsup --test-corpus corpus.txt --system bayes --system winnow"
            " --seed 3 --corrupt-pct 30 --cycles 2 --l 1 --out report").split()]
        commands["eval within"] = ["eval", *common, "--out", "within"]
        commands["corrupt"] = ("corrupt --corpus corpus.txt --confusion-sets two-sets.txt"
                               " --corrupt-pct 30 --seed 3 --out corrupt").split()
        digests = {}
        for name, args in commands.items():
            assert main(args) == 0, name
            digests[f"<stdout of {name}>"] = capsys.readouterr().out.encode()
        for path in tmp_path.glob("*/*"):
            digests[path.relative_to(tmp_path).as_posix()] = path.read_bytes()
        digests = {k: hashlib.sha256(v).hexdigest() for k, v in digests.items()}
        assert digests == GOLDEN_DIGESTS
