"""Smoke test: the fast demos run to completion and leave the repository and
their temporary directory as they were.

``demos/03_prepare_agent.py`` is left out: it takes seconds, and
``tests/test_prepare.py`` covers the agent loop it shows; CI runs it in a
step of its own.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = ("01_concept_scores", "02_rate_cutoffs", "04_pitfall_assessment",
         "05_confusion_metrics", "06_full_pipeline")


def tree_state(root):
    """Path, size and mtime of everything under ``root`` except ``.git``."""
    state = {}
    for parent, dirs, files in os.walk(root):
        dirs[:] = [d for d in dirs if d != ".git"]
        for name in dirs + files:
            path = os.path.join(parent, name)
            stat = os.lstat(path)
            state[os.path.relpath(path, root)] = (stat.st_size, stat.st_mtime_ns)
    return state


@pytest.fixture(scope="module")
def demo_runs(tmp_path_factory):
    """Every demo run at once, each in its own empty directory, its working and its temporary one.

    Returns ``({name: (exit code, stderr, what is left in that directory)}, repository state
    before, repository state after)``.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    before = tree_state(REPO)
    procs = {}
    for name in DEMOS:
        work = tmp_path_factory.mktemp(name)
        procs[name] = work, subprocess.Popen(
            [sys.executable, str(REPO / "demos" / f"{name}.py")],
            cwd=work, env=dict(env, TMPDIR=str(work)),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
    runs = {}
    for name, (work, proc) in procs.items():
        _, stderr = proc.communicate(timeout=120)
        runs[name] = (proc.returncode, stderr, sorted(os.listdir(work)))
    return runs, before, tree_state(REPO)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_0(demo_runs, name):
    code, stderr, _ = demo_runs[0][name]
    assert code == 0, stderr


@pytest.mark.parametrize("name", DEMOS)
def test_demo_leaves_its_temp_directory_empty(demo_runs, name):
    assert demo_runs[0][name][2] == []


def test_demos_write_nothing_into_the_repository(demo_runs):
    _, before, after = demo_runs
    assert after == before
