"""Every command-line refusal as data, one ``Row`` each: a file of the toy
workspace (every system's model among them) and an edit of it, the argv and
stdin of one ``winspell`` run, its exit code, the one stderr line it writes
(a run that warns, one per warning) as an anchored pattern, and the paths it
must not leave. ``test_refusals`` runs the rows in-process, ``smoke.py`` as
``python -S -m winspell``. A new refusal is one more row. The toy's writer,
the in-process runner and a child ``python``'s environment are here too, for
``conftest.py`` and ``smoke.py``. Standard library only.
"""

import io
import os
import re
import shutil
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import winspell
from winspell.cli import main
from winspell.evaluation import TRAINABLE_SYSTEMS

TOY = {
    "corpus.txt": "a piece of cake is easy\nanother piece of cake for you\n"
                  "they cut a piece of bread\npeace talks began today\n"
                  "world peace is the goal\nthe peace treaty was signed\n",
    "sets.txt": "peace, piece\n", "tags.tsv": "of\tPREP\ncake\tNOUN\n",
}
FILES = "--corpus {ws}/corpus.txt --confusion-sets {ws}/sets.txt --tagdict {ws}/tags.tsv"
TRAIN = f"train {FILES} --mode unpruned --system bayes --out {{ws}}/out"


def argv_of(template: str, ws: Path) -> list[str]:
    return [arg.replace("{ws}", str(ws)) for arg in template.split()]


def run_in_process(argv, stdin=b""):
    """``main(argv)`` with ``stdin`` on sys.stdin: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin))):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def child_env() -> dict:
    """The environment of a child ``python`` that imports this winspell: its
    PYTHONPATH is the directory holding the package, and nothing else."""
    return dict(os.environ, PYTHONPATH=str(Path(winspell.__file__).resolve().parent.parent))


def build_workspace(ws: Path, run) -> None:
    """Write the toy files to ``ws`` and train every system's models under
    ``ws/models`` with ``run(argv, stdin)``, which returns (code, out, err)."""
    ws.mkdir(parents=True)
    for name, text in TOY.items():
        (ws / name).write_text(text, encoding="utf-8")
    for system in TRAINABLE_SYSTEMS:
        template = f"train {FILES} --mode unpruned --system {system} --out {{ws}}/models"
        code, _, err = run(argv_of(template, ws), b"")
        if code != 0:
            raise RuntimeError(f"train --system {system} exited {code}: {err}")


class Row(NamedTuple):
    name: str
    argv: str  # split on spaces; "{ws}" is the workspace
    code: int
    # The stderr line, after argparse's usage line for its own errors; for a
    # run that warns, one per warning, joined by "\n".
    err: str
    file: str = ""  # the workspace file that ``edit`` changes; "{file}" in ``err``
    edit: tuple = ()  # steps, applied in order: see ``apply``
    line: object = None  # "{line}" in ``err``: a number, or a helper of the file's lines
    stdin: bytes = b""
    absent: tuple = ("out",)  # the --out of most rows


def line_of(pattern: bytes):
    """The helper giving the number of the first line ``pattern`` finds."""
    return lambda lines: next(n for n, line in enumerate(lines, 1) if re.search(pattern, line))


def apply(step: tuple, data: bytes, ws: Path) -> bytes:
    """One edit step: ("sub", pattern, replacement[, n]) substitutes every
    match, or the first n, and fails unless it made one, or n; ("swap", N)
    swaps lines N and N + 1, ("drop", N) drops line N, ("repeat", N) repeats
    it and ("keep", N) keeps lines 1 to N only; ("cut", n) drops the last n
    bytes; ("append", bytes); ("copy", file) takes the bytes of that file of
    the workspace ``ws``."""
    kind, *args = step
    if kind == "copy":
        return (ws / args[0]).read_bytes()
    if kind == "sub":
        pattern, repl, *count = args
        n = count[0] if count else 0  # 0: every match
        data, made = re.subn(pattern, repl, data, count=n)
        if made < max(n, 1):
            raise ValueError(f"{pattern!r} made {made} substitutions")
        return data
    if kind == "cut":
        return data[:-args[0]]
    if kind == "append":
        return data + args[0]
    lines, n = data.splitlines(keepends=True), args[0] - 1
    if kind == "swap":
        lines[n], lines[n + 1] = lines[n + 1], lines[n]
    elif kind == "drop":
        del lines[n]
    elif kind == "keep":
        del lines[n + 1 :]
    else:
        lines.insert(n, lines[n])
    return b"".join(lines)


def run_row(row: Row, base: Path, ws: Path, run) -> list[str]:
    """Copy the workspace ``base`` to ``ws``, edit the row's file there, run
    the row with ``run(argv, stdin)`` and return what it got wrong."""
    shutil.copytree(base, ws)
    err = row.err.replace("{ws}", re.escape(str(ws)))
    if row.file:
        path = ws / row.file
        data = path.read_bytes() if path.exists() else b""
        if row.line is not None:
            line = row.line if isinstance(row.line, int) else row.line(data.splitlines(True))
            err = err.replace("{line}", str(line))
        err = err.replace("{file}", re.escape(str(path)))
        for step in row.edit:
            data = apply(step, data, ws)
        path.write_bytes(data)
    code, out, text = run(argv_of(row.argv, ws), row.stdin)
    wrong = [] if code == row.code else [f"exit {code}, not {row.code}"]
    lines = "".join(f"(?:{line[1:-1]})\n" for line in err.split("\n"))  # "." matches no newline
    if err.startswith("^winspell: error: "):  # argparse writes its usage line first
        lines = "usage: winspell .*\n" + lines
    if not re.fullmatch(lines, text):
        wrong.append(f"stderr {text!r} is not the lines {err!r}")
    if code and out:
        wrong.append(f"stdout {out!r}: a refusal writes nothing there")
    return wrong + [f"{left} exists" for left in row.absent if (ws / left).exists()]


def classify(system: str, out: str = "models", source: str = "-") -> str:
    return f"classify --system {system} --out {{ws}}/{out} --tagdict {{ws}}/tags.tsv {source}"


def model_row(name, system, edit, err, line=None) -> Row:
    """A row classifying a line with ``system``'s edited model: exit 1."""
    return Row(f"{system}-{name}", classify(system), 1, "^error: {file}: " + err,
               f"models/peace+piece.{system}.model", edit, line, b"a peace of cake\n")


SAVED = r"line {}: model file truncated or damaged: saving it writes '{}' here$".format
END = "line {}: model file truncated or damaged: saving it writes the end of the file here$".format
DAMAGED = SAVED("{line}", ".*")
HEAD = "line {}: malformed model file header: {}$".format
WARNS = r"^warning: confusion set \{{{}\}}: no training occurrences of '{}'; its prior is 0$".format
COUNTS = ("line {}: count row for '{}' holds a count that is not an integer from 0 to its"
          " member's occurrences$").format
COUNT_ROW = rb"(?m)^(COLL -1:t=UNK _\t\d+)\t(\d+)$"  # line 9 of the toy Bayes model
CLOUDS = rb"(?s)(cloud\t0\t.*?)(cloud\t1\t.*)"  # the toy Winnow models' two clouds
CORRUPT = "corrupt --corpus {ws}/corpus.txt --confusion-sets {ws}/sets.txt --out {ws}/out"
# A run of train, classify and corrupt, and the flags it does not read and
# does not take. train takes --seed without reading it (see cli.COMMANDS).
UNREAD_FLAGS = {
    TRAIN: "--test-corpus --corrupt-pct --protocol",
    classify("bayes", "out", "{ws}/corpus.txt"): "--corpus --test-corpus --confusion-sets "
    "--mode --seed --cycles --corrupt-pct --protocol --k --l",
    CORRUPT: "--test-corpus --tagdict --mode --cycles --protocol --k --l",
}
# Each command that reads the sets.
SET_COMMANDS = {"train": TRAIN, "eval": f"eval {FILES} --out {{ws}}/out",
                "ablate": f"ablate {FILES} --out {{ws}}/out", "corrupt": CORRUPT}

ROWS = [
    # Model files: each refusal names the file and, where it has one, the line.
    # The rules every format shares (features.parse_model_head and
    # check_round_trip), one row per format.
    *(model_row("head-lines-swapped", system, [("swap", line)],
                f"line {line}: malformed model file header line: {got}$")
      for system, line, got in [("bayes", 4, r"'dependency_resolution\\ton'"),
                                ("winnow", 6, r"'architecture\\tsparse'")]),
    model_row("cut-head", "bayes", [("keep", 4)], "line 5: truncated model file header$"),
    model_row("cut-after-betas", "winnow", [("keep", 5)], "line 6: truncated model file header$"),
    # Two lines of the feature list kept, of 20.
    *(model_row("feature-list-cut", system, [("keep", line - 1)],
                f"line {line}: model file truncated inside its feature list$")
      for system, line in [("bayes", 11), ("winnow", 14)]),
    *(model_row(name, system, [("cut", n)],
                "line {line}: model file truncated: no newline at its end$", len)
      for system, name, n in [("bayes", "no-final-newline", 1),
                              ("winnow", "no-final-newline", 1),
                              ("winnow-1layer", "no-final-newline", 1),
                              ("bayes", "cut-inside-last-line", 2),
                              ("winnow", "cut-inside-last-line", 3),
                              ("winnow-1layer", "cut-inside-last-line", 3)]),
    # A loaded feature list is sorted like a trained one and saves back so.
    *(model_row("feature-keys-swapped", system, [("swap", line)], SAVED(line, saved))
      for system, line, saved in [("bayes", 9, r"COLL -1:t=UNK _\\t2\\t3"),
                                  ("winnow", 12, "COLL -1:t=UNK _")]),
    # The head lines every format opens with: the members, the extraction
    # parameters and the feature count (line 8 of the Bayes model, 11 of the
    # Winnow one).
    *(model_row(name, system, [("sub", pattern, repl)], message)
      for system, features in [("bayes", 8), ("winnow", 11)]
      for name, pattern, repl, message in [
          ("one-member", rb"\nmembers\t.*", b"\nmembers\tpeace",
           HEAD(2, "confusion set needs at least 2 members")),
          ("repeated-member", rb"\nmembers\t.*", b"\nmembers\tpeace\tpeace",
           HEAD(2, "confusion-set members must be distinct")),
          ("extraction-field", rb"\tk=10\t", b"\tk10\t",
           HEAD(3, r"expected k=\.\.\. l=\.\.\., got 'k10 l=2'")),
          ("k-0", rb"\tk=10\t", b"\tk=0\t", HEAD(3, "context window k must be >= 1")),
          ("l-3", rb"\tl=2\n", b"\tl=3\n", HEAD(3, "collocation length l must be 1 or 2")),
          ("bare-features-line", rb"\nfeatures\t20\n", b"\nfeatures\n",
           f"line {features}: malformed model file header line: 'features'$"),
          ("negative-features", rb"\nfeatures\t20\n", b"\nfeatures\t-1\n",
           HEAD(features, "features=-1 is negative")),
      ]),
    # The head: Winnow's constants, then the values a field's reader refuses.
    model_row("foreign-theta", "winnow-1layer", [("sub", rb"\btheta=1\.0\b", b"theta=2.0")],
              SAVED(4, r"winnow\\ttheta=1\.0\\t.*")),
    model_row("cycles-respelled", "winnow-1layer",
              [("sub", rb"\tcycles=5\n", b"\tcycles=05\n")], DAMAGED, 4),
    model_row("other-betas", "winnow", [("sub", rb"(betas\t|beta=)0\.5\t", rb"\g<1>0.55\t")],
              SAVED(5, r"betas\\t0\.5\\t0\.6\\t0\.7\\t0\.8\\t0\.9")),
    *(model_row(name, system, [("sub", rf"\n{field}\t.*".encode(), f"\n{field}\t{bad}".encode())],
                HEAD(line, message))
      for system, name, field, bad, line, message in [
          ("winnow", "layer-junk", "layer", "two_layer\tjunk", 6,
           "layer must be one_layer or two_layer"),
          ("winnow", "three-layers", "layer", "three_layer", 6,
           "layer must be one_layer or two_layer"),
          ("winnow", "dense", "architecture", "dense", 7, "architecture must be sparse or full"),
          ("winnow", "init-bogus", "init", "bogus", 8, "init must be uniform or bayesian"),
          ("winnow", "schedule-fields-missing", "schedule", "start=1.0", 9,
           r"expected start=\.\.\. end=\.\.\. horizon=\.\.\., got 'start=1\.0'"),
          *(("winnow", f"{name}-prior", "priors", bad, 10, "priors must be finite and non-negative")
            for name, bad in [("nan", "nan\t0.5"), ("inf", "inf\t0.5"), ("negative", "-1.0\t2.0")]),
          ("winnow", "three-priors", "priors", "0.5\t0.25\t0.25", 10,
           "priors do not match the confusion set"),
          ("bayes", "dependency-resolution-yes", "dependency_resolution", "yes", 5,
           "dependency_resolution must be on or off"),
          ("bayes", "negative-occurrences", "occurrences", "-5\t10", 6,
           "occurrences must be non-negative"),
          ("bayes", "three-occurrences", "occurrences", "3\t4\t5", 6,
           "occurrence counts do not match the confusion set"),
          ("bayes", "no-occurrences", "occurrences", "0\t0", 6,
           "model needs at least one training occurrence"),
      ]),
    *(model_row(f"{field}-{bad}", "winnow",
                [("sub", rf"\b{field}=\d+".encode(), f"{field}={bad}".encode(), 1)], message)
      for field, bad, message in [
          ("mistakes", "-3000", "line 33: mistakes=-3000 is negative$"),
          ("examples_seen", "-5", "line 32: examples_seen=-5 is negative$"),
          ("cycles", "0", HEAD(4, "cycles must be >= 1")),
          ("horizon", "0", HEAD(9, "schedule horizon must be >= 1")),
          ("theta", "2", SAVED(4, r"winnow\\ttheta=1\.0\\talpha=1\.5\\t.*")),
          ("alpha", "2", SAVED(4, r"winnow\\ttheta=1\.0\\talpha=1\.5\\t.*")),
          ("default_weight", "5", SAVED(4, r".*\\tdefault_weight=0\.1\\tcycles=5")),
          ("start", "2", SAVED(9, r"schedule\\tstart=1\.0\\tend=0\.67\\thorizon=30")),
          ("end", "1", SAVED(9, r"schedule\\tstart=1\.0\\tend=0\.67\\thorizon=30")),
      ]),
    # Winnow: the body. The feature count reads one key fewer than the list
    # holds, so the list's last key stands where the first cloud line belongs.
    *(model_row(f"feature-key-{name}", "winnow", [edit],
                "line {line}: feature list is longer than its features count 20$",
                line_of(rb"^cloud\t"))
      for name, edit in [("repeated", ("repeat", 12)),
                         ("inserted", ("sub", rb"\nfeatures\t20\n", b"\nfeatures\t20\nCW zzz\n"))]),
    # And one key more than the list holds: the first cloud line stands where
    # the list's last key belongs, unless a key before it is malformed.
    model_row("feature-list-shorter-than-count", "winnow",
              [("sub", rb"\nfeatures\t20\n", b"\nfeatures\t21\n")],
              "line {line}: feature list is shorter than its features count 21$",
              line_of(rb"^cloud\t")),
    model_row("malformed-key-in-list-shorter-than-count", "winnow",
              [("sub", rb"\nfeatures\t20\nCOLL -1:t=UNK _\n", b"\nfeatures\t21\nCOLL zzz\n")],
              "line 12: malformed feature key: 'COLL zzz'$"),
    # The winnow model's cloud 0 (lines 32-72) has five classifiers of seven
    # rows, bias first; cloud 1 (lines 73-163) five of eighteen.
    model_row("cloud-line-dropped", "winnow", [("drop", 32)],
              "line 32: classifier outside any cloud$"),
    model_row("clouds-swapped", "winnow", [("sub", CLOUDS, rb"\2\1")],
              SAVED(32, r"cloud\\t0\\texamples_seen=30")),
    model_row("cloud-0-repeated", "winnow", [("sub", CLOUDS, rb"\1\2\1")], END(164)),
    model_row("last-cloud-missing", "winnow", [("keep", 72)],
              SAVED(73, r"cloud\\t1\\texamples_seen=0")),  # as a new network holds it
    *(model_row(f"{kind}-line-{name}", "winnow",
                [("sub", rf"(?m)^{kind}\t.*".encode(), row, 1)],
                f"line {line}: expected {fields}, got '{got}'$")
      for kind, name, row, line, fields, got in [
          ("cloud", "short", b"cloud\t0", 32, r"examples_seen=\.\.\.", ""),
          ("classifier", "short", b"classifier\tbeta=0.5", 33, r"beta=\.\.\. mistakes=\.\.\.",
           r"beta=0\.5"),
          ("classifier", "unnamed-beta", b"classifier\t0.5\tmistakes=0", 33,
           r"beta=\.\.\. mistakes=\.\.\.", r"0\.5 mistakes=0"),
      ]),
    model_row("classifier-beta-respelled", "winnow",
              [("sub", rb"\nclassifier\tbeta=0\.6\t", b"\nclassifier\tbeta=0.65\t", 1)],
              SAVED(41, r"classifier\\tbeta=0\.6\\tmistakes=3")),
    model_row("classifier-repeated", "winnow-1layer", [("repeat", 33)],
              "line 34: cloud 0 has more classifiers than betas$"),
    # Every cloud links the bias, so saving writes the missing row.
    model_row("cloud-without-bias-row", "winnow", [("sub", rb"(?m)^-1\t.*\n", b"", 5)],
              SAVED(34, r"-1\\t0\.1")),
    model_row("weight-row-outside-classifier", "winnow",
              [("sub", rb"(?m)^(cloud\t1\t.*\n)", rb"\g<1>0\t0.5\n")],
              "line 74: weight row outside any classifier$"),
    # Line 42 is the first weight row of the second classifier.
    model_row("weight-row-dropped", "winnow", [("drop", 42)], DAMAGED, 42),
    *(model_row(f"weight-row-repeated-in-classifier-{k}", "winnow", [("repeat", line)],
                SAVED(line + 1, r"3\\t0\.15000000000000002"))
      for k, line in [(1, 35), (2, 43)]),
    # The rows ascend, as saving writes them; with one classifier per cloud
    # no later classifier shows the swap.
    *(model_row("weight-rows-swapped", system, [("swap", line)], SAVED(line, saved))
      for system, line, saved in [("winnow", 43, r"0\\t0\.15000000000000002"),
                                  ("winnow-1layer", 35, r"0\\t0\.0909741121761848")]),
    # A full network links every feature, so saving writes the missing last
    # row, unread and so 0.0.
    model_row("cut-after-a-line", "winnow-1layer", [("sub", rb"[^\n]*\n\Z", b"")],
              SAVED("{line}", r"19\\t0\.0"), len),
    model_row("0.1-respelled-twice", "winnow", [("sub", rb"\t0\.1\n", b"\t0.10\n", 2)], DAMAGED,
              line_of(rb"\t0\.1\n")),
    *(model_row(f"weight-row-{name}", "winnow", [("sub", rb"(?m)^-1\t.*", row, 1)],
                f"line {{line}}: {message}$", line_of(rb"^-1\t"))
      for name, row, message in [
          *((weight, b"-1\t" + weight.encode(), f"weight {re.escape(weight)} is negative or "
             "not finite") for weight in ("-5", "nan", "inf", "-0.5")),
          ("abc", b"-1\tabc", "could not convert string to float: 'abc'"),
          ("x", b"x\t0.1", r"invalid literal for int\(\) with base 10: 'x'"),
          ("three-fields", b"3\t0.1\t7", r"malformed weight row: '3\\t0\.1\\t7'"),
          ("one-field", b"0", "malformed weight row: '0'"),
          *((str(f), f"{f}\t0.5".encode(), f"weight row for feature {f} is out of range")
            for f in (20, -2)),
          ("cloud-5", b"cloud\t5\texamples_seen=0", "cloud 5 is out of range"),
          ("classifier", b"classifier\tbeta=0.5",
           r"expected beta=\.\.\. mistakes=\.\.\., got 'beta=0\.5'"),
      ]),
    *(model_row("feature-not-canonical", system,
                [("sub", rb"(?m)^COLL -1:t=UNK _(?=[\t\n])", b"COLL _ -1:t=UNK", 1)],
                "line {line}: feature 'COLL _ -1:t=UNK' is not in canonical form; expected "
                "'COLL -1:t=UNK _'$", line_of(rb"^COLL -1:t=UNK _[\t\n]"))
      for system in ("bayes", "winnow")),
    *(model_row(f"invalid-utf8-{where}", system, [("sub", pattern, b"\xff\n", 1)],
                "invalid UTF-8 on line {line}$", line)
      for system in ("bayes", "winnow")
      for where, pattern, line in [("members", rb"(?<=piece)\n", 2),
                                   ("last-line", rb"\n\Z", len)]),
    model_row("invalid-utf8-row-appended", "bayes", [("append", b"\xff\n")],
              "invalid UTF-8 on line 29$"),
    # Bayes. Lines 24-28 hold CW a, CW cake, CW is, CW of and CW the.
    model_row("smoothing-mle", "bayes", [("sub", rb"\tinterpolative\n", b"\tmle\n")],
              SAVED(4, r"smoothing\\tinterpolative")),
    # Saving writes each key as it was read, so only parsing sees a foreign kind.
    model_row("feature-key-foreign-kind", "bayes",
              [("sub", rb"(?m)^COLL (?=-1:t=UNK _\t)", b"XX ", 1)],
              "line 9: malformed feature key: 'XX -1:t=UNK _'$"),
    model_row("feature-key-moved", "bayes",
              [("sub", rb"(CW cake\t.*\n)(CW is\t.*\n)(CW of\t.*\n)", rb"\2\3\1")],
              SAVED(25, r"CW cake\\t0\\t2")),
    # The index keeps one id for a repeated key, so saving writes one row fewer.
    model_row("feature-key-repeated", "bayes", [("repeat", 9), ("drop", 11)],
              SAVED(10, r"COLL -1:t=UNK _ \+1:t=PREP\\t0\\t3")),
    model_row("feature-keys-a-b-a", "bayes",
              [("sub", rb"(?s)features\t20\n([^\n]*\n)([^\n]*\n).*", rb"features\t3\n\1\2\1")],
              END(11)),
    model_row("count-rows-swapped", "bayes", [("swap", 9)], DAMAGED, 9),
    *(model_row(f"count-{bad}", "bayes", [("sub", COUNT_ROW, rb"\g<1>\t" + bad.encode())],
                COUNTS(9, "COLL -1:t=UNK _")) for bad in ("-4", "40", "x")),
    # Each distinct count row is read and checked once: "+0\t2" on three
    # lines is refused at the first.
    model_row("count-row-respelled-thrice", "bayes", [("sub", rb"\t0\t2\n", b"\t+0\t2\n", 3)],
              COUNTS(10, "COLL -1:w=a _")),
    *(model_row(f"{name}-count-row", "bayes", [("sub", COUNT_ROW, row)],
                f"line 9: count row for 'COLL -1:t=UNK _' has {n} counts, not 2$")
      for name, row, n in [("short", rb"\1", 1), ("long", rb"\1\t\2\t0", 3)]),
    model_row("edited-priors", "bayes", [("sub", rb"\npriors\t.*", b"\npriors\t0.9\t0.1")],
              SAVED(7, r"priors\\t0\.5\\t0\.5")),
    model_row("row-after-last", "bayes", [("append", b"CW zzz\t9\t9\n")], END(29)),
    # The first line names the format; an empty file has no header.
    model_row("foreign-header", "bayes", [("sub", rb"\ABAYES v1\n", b"WINSPELL v0\n")],
              "line 1: not a BAYES v1 model file$"),
    model_row("empty-file", "winnow", [("sub", rb"(?s)\A.+", b"")],
              "line 1: not a WINNOW v1 model file$"),
    # A file loads as the system it is classified with, or as none: one row
    # per part of the shape evaluation.TRAINABLE_SYSTEMS gives each system.
    model_row("holds-winnow", "bayes", [("copy", "models/peace+piece.winnow.model")],
              "line 1: not a BAYES v1 model file$"),
    *(model_row(f"holds-{held}", system, [("copy", f"models/peace+piece.{held}.model")],
                f"holds a {held} model, not a {system} model$")
      for held, system in [("simplified-bayes", "bayes"),  # dependency resolution
                           ("winnow-2layer", "winnow-bayes-init"),  # layer, architecture, init
                           ("winnow-1layer", "simplified-winnow")]),  # trained or not
    # A sparse network cut after a weight row saves back to its own bytes,
    # the rows cut being links it never had; no system trains it one-layer.
    model_row("sparse-cut-inside-last-cloud", "winnow-1layer",
              [("sub", rb"\narchitecture\tfull\n", b"\narchitecture\tsparse\n"),
               ("sub", rb"(?:[^\n]*\n){3}\Z", b"")],
              "holds a model no system trains, not a winnow-1layer model$"),
    # Two models of one set, in either member order and whichever sorts first:
    # the later file is refused, naming the earlier.
    Row("classify-set-copied", classify("bayes"), 1, r"^error: {ws}/models/peace\+piece\.bayes"
        r"\.model: confusion set \{peace, piece\} repeats {file}$", "models/copy.bayes.model",
        [("copy", "models/peace+piece.bayes.model")], stdin=b"a peace of cake\n"),
    Row("classify-set-members-swapped", classify("bayes"), 1, r"^error: {file}: confusion set "
        r"\{piece, peace\} repeats {ws}/models/peace\+piece\.bayes\.model$",
        "models/piece+peace.bayes.model", [("copy", "models/peace+piece.bayes.model"),
                                           ("sub", rb"\nmembers\tpeace\tpiece\n",
                                            b"\nmembers\tpiece\tpeace\n")],
        stdin=b"a peace of cake\n"),
    Row("classify-no-models", classify("bayes", "empty"), 1,
        "^error: no bayes models under {ws}/empty$"),
    Row("classify-invalid-utf8-file", classify("bayes", source="{ws}/corpus.txt"), 1,
        "^error: {file}: invalid UTF-8 on line 7$", "corpus.txt", [("append", b"world \xff\n")]),
    Row("classify-invalid-utf8-stdin", classify("bayes"), 1,
        "^error: <stdin>: invalid UTF-8 on line 2$", stdin=b"a piece of cake\nworld \xff piece\n"),
    # Lines are counted as str.splitlines counts them: it breaks at \f, \r,
    # \x1c, U+0085 and U+2028 too, and \r\n is one break, not two.
    *(Row(f"classify-invalid-utf8-after-{name}", classify("bayes"), 1,
          "^error: <stdin>: invalid UTF-8 on line 3$",
          stdin=b"a piece" + end.encode() + b"of cake\n\xff\n")
      for name, end in [("form-feed", "\f"), ("crlf", "\r\n"), ("carriage-return", "\r"),
                        ("file-separator", "\x1c"), ("next-line", "\x85"),
                        ("line-separator", "\u2028")]),
    # The input files of train, eval, ablate and corrupt.
    *(Row(f"{command}-invalid-utf8-{name}", argv, 1,
          "^error: {file}: invalid UTF-8 on line {line}$", file, [("append", b"bad \xff line\n")],
          lambda lines: len(lines) + 1)
      for command, argv, name, file in [
          ("train", TRAIN, "corpus", "corpus.txt"), ("train", TRAIN, "sets", "sets.txt"),
          ("train", TRAIN, "tags", "tags.tsv"),
          ("eval", f"eval {FILES} --protocol across --test-corpus {{ws}}/test.txt --out {{ws}}/out",
           "test-corpus", "test.txt")]),
    # Tokens are lowercased and hold no whitespace, so no token could equal
    # these words: an entry for one would never be looked up.
    *(Row(f"train-{name}-tag-word", TRAIN, 1, "^error: {file}: line 1: malformed tag entry: "
          f"word {word!r} is empty, not lowercase or holds whitespace$", "tags.tsv",
          [("sub", rb"\Aof", word.encode())])
      for name, word in [("uppercase", "Of"), ("space-led", " of"), ("empty", ""),
                         ("spaced", "a b")]),
    *(Row(f"train-{name}", TRAIN, 1, "^error: {file}: line 3: malformed tag entry: " + message,
          "tags.tsv", [("append", entries)])
      for name, entries, message in [
          ("bad-tag-list-on-two-lines", b"in\tPREP X\nto\tPREP X\n",
           "tag 'PREP X' contains whitespace$"),
          ("tag-entry-without-tags", b"in\t , ,\n", "entry has no tags$"),
          ("tag-entry-without-tab", b"to PREP\n", "expected word<TAB>tags$"),
          ("tag-entry-with-two-tabs", b"to\tPREP\tX\n", "expected word<TAB>tags$")]),
    Row("train-repeated-tag-word", TRAIN, 1, "^error: {file}: line 3: tag entry 'of' first "
        "listed on line 1$", "tags.tsv", [("append", b"of\tADP\n")]),
    # The slug or+/ names a directory; --out joined with the absolute name
    # /+or is that name.
    Row("train-model-outside-out", TRAIN, 1, r"^error: confusion set \{or, /\}: model file "
        r"{ws}/out/or\+/\.bayes\.model is not in {ws}/out$", "sets.txt",
        [("append", b"or, /\n")]),
    Row("train-absolute-model-name", TRAIN, 1, r"^error: confusion set \{/, or\}: model file "
        r"/\+or\.bayes\.model is not in {ws}/out$", "sets.txt", [("append", b"/, or\n")]),
    Row("train-model-name-too-long", TRAIN, 1, r"^error: confusion set \{x{300}, or\}: model "
        r"file {ws}/out/x{300}\+or\.bayes\.model has a name longer than \d+ bytes$", "sets.txt",
        [("append", b"x" * 300 + b", or\n")]),
    # A member without training occurrences: one warning per set and member,
    # whichever systems train.
    Row("train-absent-member-warns", TRAIN, 0, WARNS("peace, pease", "pease"), "sets.txt",
        [("sub", rb"piece", b"pease")], absent=()),
    *(Row(f"{name}-member-without-occurrences-warns", argv, 0, WARNS("peace, piece", "peace"),
          "corpus.txt", [("sub", rb"(?m)^.*peace.*\n", b"")], absent=())
      for name, argv in [("train", TRAIN), ("train-winnow", TRAIN.replace("bayes", "winnow")),
                         ("eval", f"eval {FILES} --system baseline --system winnow"
                                  " --out {ws}/out"),
                         ("ablate", SET_COMMANDS["ablate"])]),
    Row("train-two-sets-warn", TRAIN, 0, WARNS("peace, pease", "pease") + "\n"
        + WARNS("piece, pease", "pease"), "sets.txt",
        [("append", b"peace, pease\npiece, pease\n")], absent=()),
    # No model is written before every set is checked, each in order, so the
    # first refused set is the one named.
    *(Row(f"train-{name}", TRAIN, 1,
          r"^error: no occurrences of \{hear, here\} in corpus; cannot train$", "sets.txt", [edit])
      for name, edit in [("set-without-occurrences", ("sub", rb"peace, piece", b"hear, here")),
                         ("second-set-without-occurrences", ("append", b"hear, here\n")),
                         ("set-without-occurrences-before-model-outside-out",
                          ("sub", rb"peace, piece\n", b"hear, here\nor, /\n"))]),
    Row("train-missing-corpus", TRAIN.replace("corpus.txt", "nope.txt"), 1,
        r"^error: \[Errno 2\] No such file or directory: '{ws}/nope\.txt'$"),
    # A test corpus is given exactly when the protocol tests on one.
    *(Row(f"{command}-{name}", f"{command} {FILES} {flags} --out {{ws}}/out", 1,
          f"^error: protocol {message} test corpus$")
      for command, name, flags, message in [
          ("eval", "within-test-corpus", "--test-corpus {ws}/missing.txt", "'within' takes no"),
          ("ablate", "within-test-corpus", "--test-corpus {ws}/missing.txt", "'within' takes no"),
          ("eval", "across-without-test-corpus", "--protocol across", "'across' needs a"),
      ]),
    Row("eval-one-sentence-corpus", SET_COMMANDS["eval"], 1,
        "^error: {file}: cannot split a corpus of fewer than 2 sentences$", "corpus.txt",
        [("keep", 1)]),
    Row("eval-one-sentence-test-corpus",
        f"eval {FILES} --protocol across --test-corpus {{ws}}/test.txt --out {{ws}}/out", 1,
        "^error: {file}: cannot split a corpus of fewer than 2 sentences$", "test.txt",
        [("append", b"world peace is the goal\n")]),
    *(Row(f"{command}-{name}", argv, 1, r"^error: {ws}/sets\.txt: " + message, "sets.txt", [edit])
      for command, argv in SET_COMMANDS.items()
      for name, edit, message in [
          ("no-sets", ("sub", rb"peace, piece", b"# no sets here\n"), "no confusion sets$"),
          ("repeated-set", ("append", b"piece, peace\n"),
           r"line 2: confusion set \{piece, peace\} repeats line 1$")]),
    *(Row(f"train-{name}", TRAIN, 1, r"^error: {ws}/sets\.txt: " + message, "sets.txt", [edit])
      for name, edit, message in [
          ("empty-sets-file", ("sub", rb"peace, piece\n", b""), "no confusion sets$"),
          ("set-repeated-after-comment", ("append", b"# again\npeace, piece\n"),
           r"line 3: confusion set \{peace, piece\} repeats line 1$"),
          ("one-member-set", ("append", b"\nhear\n"),
           "line 3: confusion set needs at least 2 members$")]),
    *(Row(f"{command}-zero-cycles{name}".replace(" --system ", "-"),
          f"{command} {FILES} --cycles 0 --out {{ws}}/out".replace("corpus.txt", corpus), 1,
          "^error: cycles must be >= 1$")
      for command in ("train --system bayes", "train --system winnow", "eval", "ablate")
      for name, corpus in [("", "corpus.txt"), ("-missing-corpus", "missing.txt")]),
    # The corruption percentage is checked by corrupt, and by eval and ablate
    # under every protocol before any input is read. NaN is out of range too.
    *(Row(f"{name}-corrupt-pct-{value}", f"{argv} --corrupt-pct {pct}", 1,
          rf"^error: corruption percentage out of range: {shown}$")
      for name, argv, value, pct, shown in [
          ("corrupt", CORRUPT, "above-100", "150", r"150\.0"),
          ("corrupt", CORRUPT, "negative", "-1", r"-1\.0"),
          ("corrupt", CORRUPT, "nan", "nan", "nan"),
          ("eval-supunsup", f"eval {FILES} --protocol supunsup --test-corpus {{ws}}/corpus.txt"
                            " --out {ws}/out", "above-100", "150", r"150\.0"),
          ("eval-within", SET_COMMANDS["eval"], "above-100", "150", r"150\.0"),
          ("eval-across", f"eval {FILES} --protocol across --test-corpus {{ws}}/missing.txt"
                          " --out {ws}/out", "nan-missing-test-corpus", "nan", "nan")]),
    # Usage errors: exit 2.
    Row("classify-mode-pruned", "classify --mode pruned --system bayes --out {ws}/models "
        "--tagdict {ws}/tags.tsv -", 2,
        "^winspell: error: unrecognized arguments: --mode pruned$"),
    *(Row(f"{argv.split()[0]}{flag}-unread", f"{argv} {flag} 1", 2,
          f"^winspell: error: unrecognized arguments: {flag} 1$")
      for argv, flags in UNREAD_FLAGS.items() for flag in flags.split()),
    *(Row(f"classify{flag}-before-input", f"classify {flag} pruned --system bayes --out "
          "{ws}/out --tagdict {ws}/tags.tsv -", 2,
          f"^winspell: error: unrecognized arguments: {flag} pruned$")
      for flag in UNREAD_FLAGS[classify("bayes", "out", "{ws}/corpus.txt")].split()),
    Row("unknown-subcommand", "transmogrify", 2,
        r"^winspell: error: argument command: invalid choice: 'transmogrify' \(choose from .*\)$"),
    Row("train-unknown-system", f"{TRAIN} --system psychic", 2,
        r"^usage error: unknown system: 'psychic' \(choose from .*\)$"),
    Row("train-unknown-mode", f"{TRAIN} --mode medium", 2,
        r"^usage error: unknown mode: 'medium' \(choose from pruned, unpruned\)$"),
    Row("train-missing-required-option", "train --corpus {ws}/corpus.txt", 2,
        "^usage error: missing required option --confusion-sets$"),
    Row("config-not-an-object", "train --config {ws}/config.json", 2,
        "^usage error: config file must hold a JSON object$", "config.json",
        [("append", b"[1, 2]")]),
    Row("config-unreadable", "train --config {ws}/absent.json", 2, r"^usage error: cannot read "
        r"config file: \[Errno 2\] No such file or directory: '{ws}/absent\.json'$"),
    Row("config-empty-path", f"train --config= {FILES} --system bayes --out {{ws}}/out", 2,
        r"^usage error: cannot read config file: \[Errno 2\] No such file or directory: ''$"),
    *(Row(f"{command}-config-{name}", f"{command} --config {{ws}}/config.json {FILES} --system"
          " winnow --out {ws}/out", 2, f"^usage error: config file: {message}$", "config.json",
          [("append", entry)])
      for command, name, entry, message in [
          ("train", "k-string", b'{"k": "3"}', "'k' must be an integer, not \"3\""),
          ("train", "k-true", b'{"k": true}', "'k' must be an integer, not true"),
          ("train", "cycles-float", b'{"cycles": 2.5}', r"'cycles' must be an integer, not 2\.5"),
          ("train", "unknown-key", b'{"modes": "unpruned"}', "unknown key 'modes'"),
          ("train", "mode-null", b'{"mode": null}', "'mode' must be a string, not null"),
          ("eval", "corrupt-pct-string", b'{"corrupt_pct": "5"}',
           "'corrupt_pct' must be a number, not \"5\""),
          ("eval", "systems-string", b'{"systems": "bayes"}',
           "'systems' must be a list of strings, not \"bayes\""),
          ("eval", "systems-of-numbers", b'{"systems": [1]}',
           r"'systems' must be a list of strings, not \[1\]"),
      ]),
    Row("eval-empty-system-list", f"eval --config {{ws}}/config.json {FILES} --out {{ws}}/out",
        2, "^usage error: empty system list$", "config.json", [("append", b'{"systems": []}')]),
    Row("eval-repeated-system", f"eval {FILES} --system bayes --system bayes --out {{ws}}/out",
        2, "^usage error: system 'bayes' is listed twice$"),
]
