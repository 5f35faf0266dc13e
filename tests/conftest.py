"""The toy workspace of ``refusals.py``, written and trained once per session."""

import shutil

import pytest

from refusals import build_workspace, run_in_process


@pytest.fixture(scope="session")
def toy(tmp_path_factory):
    """The toy files and every trainable system's model, under ``models``: read only."""
    ws = tmp_path_factory.mktemp("toy") / "toy"
    build_workspace(ws, run_in_process)
    return ws


@pytest.fixture
def workspace(toy, tmp_path):
    """An editable copy of ``toy``."""
    return shutil.copytree(toy, tmp_path / "ws")
