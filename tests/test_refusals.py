"""Every row of ``refusals.ROWS``, run in-process through ``cli.main``."""

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest

import smoke
from refusals import ROWS, build_workspace, run_row
from winspell.cli import main

ROW = {row.name: row for row in ROWS}


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


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    ws = tmp_path_factory.mktemp("refusals") / "toy"
    build_workspace(ws, run_in_process)
    return ws


@pytest.mark.parametrize("row", ROWS, ids=list(ROW))
def test_row(row, toy, tmp_path):
    assert run_row(row, toy, tmp_path / "ws", run_in_process) == []


def test_cases_are_the_rows(request):
    # The module collected afresh, so that a -k selection does not count.
    cases = [item.callspec.id for item in request.node.parent.collect()
             if item.originalname == "test_row"]
    assert cases == [row.name for row in ROWS] and len(ROW) == len(ROWS)


def test_each_row_expects_one_anchored_line():
    for row in ROWS:
        lines = row.err.split("\n")
        assert all(line.startswith("^") and line.endswith("$") for line in lines), row.name
        # A refusal is one line; only a run that warns writes more.
        assert row.code == 0 or len(lines) == 1, row.name
        assert ("{line}" in row.err) == (row.line is not None), row.name
        # A refusal leaves no --out, not even an empty one.
        if row.code and "--out {ws}/out" in row.argv:
            assert "out" in row.absent, row.name


def test_smoke_runner_runs_a_row(toy, tmp_path):
    row = ROW["classify-mode-pruned"]
    assert run_row(row, toy, tmp_path / "ok", smoke.run) == []
    # A row that does not hold is reported, not passed.
    wrong = run_row(row._replace(code=1, err=row.err.replace("--mode", "--k")), toy,
                    tmp_path / "wrong", smoke.run)
    assert [what.split()[0] for what in wrong] == ["exit", "stderr"]
