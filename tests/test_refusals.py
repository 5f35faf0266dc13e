"""Every row of ``refusals.ROWS``, run in-process through ``cli.main``."""

import pytest

import smoke
from refusals import ROWS, run_in_process, run_row

ROW = {row.name: row for row in ROWS}


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


def test_smoke_runner_runs_a_row(toy, tmp_path, monkeypatch):
    row = ROW["classify-mode-pruned"]
    assert run_row(row, toy, tmp_path / "ok", smoke.run) == []
    # A row that does not hold is reported, not passed; so is a child that
    # outlives the timeout, which no python starts within.
    wrong = run_row(row._replace(code=1, err=row.err.replace("--mode", "--k")), toy,
                    tmp_path / "wrong", smoke.run)
    assert [what.split()[0] for what in wrong] == ["exit", "stderr"]
    monkeypatch.setattr(smoke, "TIMEOUT", 0.001)
    assert run_row(row, toy, tmp_path / "hung", smoke.run)[0] == "exit None, not 2"
