"""The command line without site-packages: ``PYTHONPATH=src python -S tests/smoke.py``.

In the toy workspace of ``refusals.py`` it trains and classifies with every
trainable system, runs eval of every system under supunsup, ablate and
corrupt, classifies a CRLF draft as its LF copy and reloads every model, as
its own system, to its own bytes; then it runs every refusal row as
``python -S -m winspell``. Each child runs in dev mode with ResourceWarning
and DeprecationWarning as errors, the warning flags of the pytest run, so a
file left open fails its command. It exits 1 naming each check and row that
failed; a child that hangs is killed and fails its own. Standard library
only.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from refusals import FILES, ROWS, argv_of, build_workspace, child_env, run_row
from winspell.evaluation import SYSTEMS, TRAINABLE_SYSTEMS, load_system_model, save_system_model

TIMEOUT = 120  # seconds
PYTHON = [sys.executable, "-S", "-X", "dev", "-W", "error::ResourceWarning",
          "-W", "error::DeprecationWarning"]


def run(argv, stdin=b""):
    """``python -S -m winspell *argv`` under PYTHON's flags: (exit code,
    stdout, stderr). A child still running after TIMEOUT seconds is killed,
    and its exit code is None."""
    try:
        proc = subprocess.run([*PYTHON, "-m", "winspell", *argv], input=stdin,
                              capture_output=True, env=child_env(), timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, "", f"killed after {TIMEOUT} s\n"
    return proc.returncode, *(text.decode(errors="replace") for text in (proc.stdout, proc.stderr))


def smoke(tmp: Path) -> list[str]:
    """The names of the checks and rows that failed, each row's faults after it."""
    ws = tmp / "toy"
    build_workspace(ws, run)
    checks = {"no site-packages on sys.path": not any("-packages" in p for p in sys.path),
              "--help": run(["--help"])[0] == 0}
    classify = argv_of("classify --out {ws}/models --tagdict {ws}/tags.tsv --system", ws)
    for system in TRAINABLE_SYSTEMS:
        code, out, _ = run([*classify, system], b"we want world piece\na peace of cake\n")
        checks[f"classify --system {system}"] = (code, out.count("\n")) == (0, 2)
    every = " ".join(f"--system {system}" for system in SYSTEMS)
    code = run(argv_of(f"eval {FILES} --test-corpus {{ws}}/corpus.txt --mode unpruned "
                       f"--protocol supunsup {every} --out {tmp}/eval", ws))[0]
    header = (tmp / "eval/report.tsv").read_text().split("\n")[0] if code == 0 else ""
    checks["eval of every system under supunsup"] = set(SYSTEMS) <= set(header.split("\t"))
    code = run(argv_of(f"ablate {FILES} --mode unpruned --out {tmp}/ablate", ws))[0]
    checks["ablate"] = code == 0 and (tmp / "ablate/ablation.tsv").stat().st_size > 0
    code = run(argv_of("corrupt --corpus {ws}/corpus.txt --confusion-sets {ws}/sets.txt "
                       f"--corrupt-pct 50 --out {tmp}/corrupt", ws))[0]
    checks["corrupt"] = code == 0 and (tmp / "corrupt/corrupted.txt").read_text().count("\n") == 6
    draft = b"we want world piece\n\na peace of cake\n"
    lf, crlf = (run([*classify, "winnow"], draft.replace(b"\n", end)) for end in (b"\n", b"\r\n"))
    checks["a CRLF draft classifies as its LF copy"] = (lf == crlf and crlf[0] == 0
                                                       and crlf[1].count("\n") == 2)
    paths = sorted((ws / "models").glob("*.model"))
    checks["one model per trainable system"] = (sorted(p.name.split(".")[1] for p in paths)
                                                == sorted(TRAINABLE_SYSTEMS))
    for path in paths:
        saved = tmp / path.name
        save_system_model(load_system_model(path, path.name.split(".")[1]), saved)
        checks[f"{path.name} reloads to its own bytes"] = saved.read_bytes() == path.read_bytes()
    failed = [name for name, ok in checks.items() if not ok]
    for row in ROWS:
        wrong = run_row(row, ws, tmp / "rows" / row.name, run)
        failed += [row.name, *(f"  {what}" for what in wrong)] if wrong else []
    print(f"{len(checks)} checks and {len(ROWS)} refusal rows run")
    return failed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        failed = smoke(Path(tmp))
    if failed:
        sys.exit("failed:\n" + "\n".join(failed))
