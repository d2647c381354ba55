"""Run hygiene of the benchmark itself.

    python3 -m pytest -q perfbench/test_worktree.py

A run must leave the repository's working tree as it found it: CLI outputs,
including ``--boundaries``, go to a temporary directory that is removed, and
only .perfbench/ and bytecode caches may appear.  Without the twofold sources
the benchmark must fail without printing a result.
"""
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tree_state():
    out = subprocess.run(
        ["git", "status", "--porcelain", "--ignored", "--untracked-files=all"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    return {line for line in out.splitlines()
            if not line[3:].startswith(".perfbench/") and "__pycache__/" not in line}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.skipif(not os.path.isdir(os.path.join(ROOT, ".git")),
                    reason="needs a git checkout")
@pytest.mark.parametrize("workload,trace", [("cycles", 1), ("band", 0), ("trajectory", 0)])
def test_run_leaves_worktree_unchanged(workload, trace):
    before = _tree_state()
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].startswith('{"correct": ')
    assert _tree_state() == before
    leftovers = [n for n in os.listdir(os.path.join(ROOT, ".perfbench")) if n.startswith("tmp-")]
    assert leftovers == []


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "cycles", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
