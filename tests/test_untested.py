import os
import subprocess
import sys

from conftest import ROOT

UNTESTED = ROOT / "tools" / "untested.py"

MODULE = '''"""A module with one branch that its test leaves out."""


def half(x):
    if x < 0:
        raise ValueError("negative")
    return x / 2
'''
TEST = '''from mod import half


def test_half():
    assert half(4) == 2
'''


def test_the_one_statement_no_test_runs_is_listed(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "mod.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_mod.py").write_text(TEST)
    done = subprocess.run(
        [sys.executable, str(UNTESTED), "--src", "src", "tests", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    report = done.stdout.splitlines()
    # the docstring and the def lines run on import, the if and return in the test
    assert [line for line in report if line.startswith("mod.py:")] == [
        'mod.py:6: raise ValueError("negative")']
    assert report[-2:] == ["mod.py         1", "total          1"]
