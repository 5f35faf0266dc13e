"""Every command-line refusal as data, one ``Row`` each: a file of the toy
workspace (every system's model among them) and an edit of it, the argv and
stdin of one ``winspell`` run, its exit code, the one stderr line it writes
as an anchored pattern, and the paths it must not leave. ``test_refusals``
runs the rows in-process, ``smoke.py`` as ``python -S -m winspell``. A new
refusal is one more row. Standard library only.
"""

import re
import shutil
from pathlib import Path
from typing import NamedTuple

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
    err: str  # the one stderr line, after argparse's usage line for its own errors
    file: str = ""  # the workspace file that ``edit`` changes; "{file}" in ``err``
    edit: tuple = ()  # steps, applied in order: see ``apply``
    line: object = None  # "{line}" in ``err``: a number, or a helper of the file's lines
    stdin: bytes = b""
    absent: tuple = ("out",)  # the --out of most rows


def line_of(pattern: bytes):
    """The helper giving the number of the first line ``pattern`` finds."""
    return lambda lines: next(n for n, line in enumerate(lines, 1) if re.search(pattern, line))


def apply(step: tuple, data: bytes) -> bytes:
    """One edit step: ("sub", pattern, replacement[, n]) substitutes every
    match, or the first n, and fails unless it made one, or n; ("swap", N)
    swaps lines N and N + 1, ("drop", N) drops line N and ("repeat", N)
    repeats it; ("cut", n) drops the last n bytes; ("append", bytes)."""
    kind, *args = step
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
            data = apply(step, data)
        path.write_bytes(data)
    code, out, text = run(argv_of(row.argv, ws), row.stdin)
    wrong = [] if code == row.code else [f"exit {code}, not {row.code}"]
    one_line = f"(?:{err[1:-1]})\n"  # "." matches no newline
    if err.startswith("^winspell: error: "):  # argparse writes its usage line first
        one_line = "usage: winspell .*\n" + one_line
    if not re.fullmatch(one_line, text):
        wrong.append(f"stderr {text!r} is not the one line {err!r}")
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
DAMAGED = SAVED("{line}", ".*")
COUNT_ROW = rb"(?m)^(COLL -1:t=UNK _\t\d+)\t(\d+)$"  # line 9 of the toy Bayes model
CORRUPT = "corrupt --corpus {ws}/corpus.txt --confusion-sets {ws}/sets.txt --out {ws}/out"
# A run of train, classify and corrupt, and the flags it does not read and
# does not take. train takes --seed without reading it (see cli.COMMANDS).
UNREAD_FLAGS = {
    TRAIN: "--test-corpus --corrupt-pct --protocol",
    classify("bayes", "out", "{ws}/corpus.txt"): "--corpus --test-corpus --confusion-sets "
    "--mode --seed --cycles --corrupt-pct --protocol --k --l",
    CORRUPT: "--test-corpus --tagdict --mode --cycles --protocol --k --l",
}
# Each command that reads the sets, and what its refusal of them leaves no
# trace of: corrupt makes --out before it reads them.
SET_COMMANDS = {"train": (TRAIN, ("out",)),
                "eval": (f"eval {FILES} --out {{ws}}/out", ("out",)),
                "ablate": (f"ablate {FILES} --out {{ws}}/out", ("out",)),
                "corrupt": (CORRUPT, ("out/corrupted.txt", "out/changes.tsv"))}

ROWS = [
    # Model files: each refusal names the file and, where it has one, the line.
    model_row("cut-after-a-line", "winnow-1layer", [("sub", rb"[^\n]*\n\Z", b"")], DAMAGED,
              len),
    model_row("cut-inside-last-line", "winnow-1layer", [("cut", 3)],
              "line {line}: model file truncated: no newline at its end$", len),
    model_row("foreign-theta", "winnow-1layer", [("sub", rb"\btheta=1\.0\b", b"theta=2.0")],
              SAVED(4, r"winnow\\ttheta=1\.0\\t.*")),
    model_row("cycles-respelled", "winnow-1layer",
              [("sub", rb"\tcycles=5\n", b"\tcycles=05\n")], DAMAGED, 4),
    model_row("cut-after-betas", "winnow", [("sub", rb"(?s)\nlayer\t.*", b"\n")],
              "line 6: truncated model file header$"),
    model_row("head-lines-swapped", "winnow", [("swap", 6)],
              r"line 6: malformed model file header line: 'architecture\\tsparse'$"),
    model_row("other-betas", "winnow", [("sub", rb"(betas\t|beta=)0\.5\t", rb"\g<1>0.55\t")],
              SAVED(5, r"betas\\t0\.5\\t0\.6\\t0\.7\\t0\.8\\t0\.9")),
    model_row("nan-prior", "winnow", [("sub", rb"\npriors\t[^\t]*", b"\npriors\tnan")],
              "line 10: malformed model file header: priors must be finite and non-negative$"),
    *(model_row(f"{field}-{bad}", "winnow",
                [("sub", rf"\b{field}=\d+".encode(), f"{field}={bad}".encode(), 1)], message)
      for field, bad, message in [
          ("mistakes", "-3000", "line 33: mistakes=-3000 is negative$"),
          ("examples_seen", "-5", "line 32: examples_seen=-5 is negative$"),
          ("horizon", "0", "line 9: malformed model file header: schedule horizon must be >= 1$"),
          ("theta", "2", SAVED(4, r"winnow\\ttheta=1\.0\\talpha=1\.5\\t.*")),
          ("alpha", "2", SAVED(4, r"winnow\\ttheta=1\.0\\talpha=1\.5\\t.*")),
          ("default_weight", "5", SAVED(4, r".*\\tdefault_weight=0\.1\\tcycles=5")),
          ("start", "2", SAVED(9, r"schedule\\tstart=1\.0\\tend=0\.67\\thorizon=30")),
          ("end", "1", SAVED(9, r"schedule\\tstart=1\.0\\tend=0\.67\\thorizon=30")),
      ]),
    model_row("feature-key-repeated", "winnow", [("repeat", 12)],
              "line {line}: feature list is longer than its features count 20$",
              line_of(rb"^cloud\t")),
    # Line 42 is the first weight row of the second classifier.
    model_row("weight-row-dropped", "winnow", [("drop", 42)], DAMAGED, 42),
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
    model_row("count-rows-swapped", "bayes", [("swap", 9)], DAMAGED, 9),
    *(model_row(f"count-{bad}", "bayes", [("sub", COUNT_ROW, rb"\g<1>\t" + bad.encode())],
                "line 9: count row for 'COLL -1:t=UNK _' holds a count that is not an integer"
                " from 0 to its member's occurrences$") for bad in ("-4", "40", "x")),
    model_row("extraction-field", "bayes", [("sub", rb"\tk=10\t", b"\tk10\t")],
              "line 3: malformed model file header: expected k=... l=..., got 'k10 l=2'$"),
    model_row("bare-features-line", "bayes", [("sub", rb"\nfeatures\t20\n", b"\nfeatures\n")],
              "line 8: malformed model file header line: 'features'$"),
    *(model_row(f"{name}-count-row", "bayes", [("sub", COUNT_ROW, row)],
                f"line 9: count row for 'COLL -1:t=UNK _' has {n} counts, not 2$")
      for name, row, n in [("short", rb"\1", 1), ("long", rb"\1\t\2\t0", 3)]),
    model_row("edited-priors", "bayes", [("sub", rb"\npriors\t.*", b"\npriors\t0.9\t0.1")],
              SAVED(7, r"priors\\t0\.5\\t0\.5")),
    model_row("row-after-last", "bayes", [("append", b"CW zzz\t9\t9\n")],
              "line 29: model file truncated or damaged: saving it writes the end of the file"
              " here$"),
    Row("classify-no-models", classify("bayes", "empty"), 1,
        "^error: no bayes models under {ws}/empty$"),
    Row("classify-invalid-utf8-file", classify("bayes", source="{ws}/corpus.txt"), 1,
        "^error: {file}: invalid UTF-8 on line 7$", "corpus.txt", [("append", b"world \xff\n")]),
    Row("classify-invalid-utf8-stdin", classify("bayes"), 1,
        "^error: <stdin>: invalid UTF-8 on line 2$", stdin=b"a piece of cake\nworld \xff piece\n"),
    # The input files of train, eval, ablate and corrupt.
    Row("train-uppercase-tag-word", TRAIN, 1, "^error: {file}: line 1: malformed tag entry: "
        "word 'Of' is empty, not lowercase or holds whitespace$", "tags.tsv",
        [("sub", rb"\Aof", b"Of")]),
    Row("train-bad-tag-list-on-two-lines", TRAIN, 1, "^error: {file}: line 3: malformed tag "
        "entry: tag 'PREP X' contains whitespace$", "tags.tsv",
        [("append", b"in\tPREP X\nto\tPREP X\n")]),
    Row("train-repeated-tag-word", TRAIN, 1, "^error: {file}: line 3: tag entry 'of' first "
        "listed on line 1$", "tags.tsv", [("append", b"of\tADP\n")]),
    Row("train-model-outside-out", TRAIN, 1, r"^error: confusion set \{or, /\}: model file "
        r"{ws}/out/or\+/\.bayes\.model is not in {ws}/out$", "sets.txt",
        [("append", b"or, /\n")]),
    Row("train-model-name-too-long", TRAIN, 1, r"^error: confusion set \{x{300}, or\}: model "
        r"file {ws}/out/x{300}\+or\.bayes\.model has a name longer than \d+ bytes$", "sets.txt",
        [("append", b"x" * 300 + b", or\n")]),
    Row("train-absent-member-warns", TRAIN, 0, "^warning: no training occurrences of 'pease'; "
        "its prior is 0$", "sets.txt", [("sub", rb"piece", b"pease")], absent=()),
    Row("train-member-without-occurrences-warns", TRAIN, 0, "^warning: no training occurrences"
        " of 'peace'; its prior is 0$", "corpus.txt", [("sub", rb"(?m)^.*peace.*\n", b"")],
        absent=()),
    Row("train-set-without-occurrences", TRAIN, 1, r"^error: no occurrences of \{hear, here\} "
        "in corpus; cannot train$", "sets.txt", [("sub", rb"peace, piece", b"hear, here")],
        absent=()),
    Row("train-missing-corpus", TRAIN.replace("corpus.txt", "nope.txt"), 1,
        r"^error: \[Errno 2\] No such file or directory: '{ws}/nope\.txt'$"),
    *(Row(f"{command}-{name}", argv, 1, r"^error: {ws}/sets\.txt: " + message, "sets.txt", [edit],
          absent=absent)
      for command, (argv, absent) in SET_COMMANDS.items()
      for name, edit, message in [
          ("no-sets", ("sub", rb"peace, piece", b"# no sets here\n"), "no confusion sets$"),
          ("repeated-set", ("append", b"piece, peace\n"),
           r"line 2: confusion set \{piece, peace\} repeats line 1$")]),
    *(Row(f"{command}-zero-cycles{name}".replace(" --system ", "-"),
          f"{command} {FILES} --cycles 0 --out {{ws}}/out".replace("corpus.txt", corpus), 1,
          "^error: cycles must be >= 1$")
      for command in ("train --system bayes", "train --system winnow", "eval", "ablate")
      for name, corpus in [("", "corpus.txt"), ("-missing-corpus", "missing.txt")]),
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
