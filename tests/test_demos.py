"""The README demos run to completion from a source checkout, and the
mutation catalogue still matches the source."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["structure_demo.py", "witness_family_demo.py"])
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _closed_early(script, lines):
    """Run a demo into a pipe whose reader closes it after `lines` lines:
    (the exit status, stderr).  Each print is written at once."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
    read, write = os.pipe()
    if not lines:  # no reader from the start: the first print meets it
        os.close(read)
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT, env=env, stdout=write, stderr=subprocess.PIPE, text=True,
    )
    os.close(write)
    if lines:
        with open(read) as out:
            for _ in range(lines):
                out.readline()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err


@pytest.mark.parametrize("script, lines", [
    ("structure_demo.py", 0), ("witness_family_demo.py", 0), ("witness_family_demo.py", 1),
])
def test_a_demo_whose_reader_closes_early_exits_141_with_nothing_on_stderr(script, lines):
    # as `immtools gen pk 30 | head -1` does.  Each line of the witness
    # demo follows a search, so the reader closes before the next write;
    # a run in which the demo still wrote every line first shows nothing
    # and is run again
    for _ in range(5):
        code, err = _closed_early(script, lines)
        if code:
            break
    assert (code, err) == (141, "")


def test_every_catalogued_mutant_still_applies():
    # a mutant whose fragment no longer occurs exactly once, or whose
    # tests are gone, would be reported stale by scripts/mutants.py
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for m in mutants.CATALOGUE:
        assert (ROOT / m.path).read_text().count(m.fragment) == 1, m.name
        for test in m.tests:
            path, _, name = test.partition("::")
            assert not name or f"def {name}(" in (ROOT / path).read_text(), (m.name, test)
