"""Self-tests of the shared fixtures in conftest.py."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import ccakit

LEAKS = '''
import os


def test_leaves_an_exited_child_unreaped():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # wait for the exit, reap nothing


def test_reaps_its_child():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
'''


def test_a_test_that_leaves_a_child_unreaped_fails(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_leaks.py").write_text(LEAKS)
    env = {**os.environ, "PYTHONPATH": str(Path(ccakit.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "."],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "2 passed, 1 error" in run.stdout, run.stdout  # the leak fails at teardown
    assert "ERROR test_leaks.py::test_leaves_an_exited_child_unreaped" in run.stdout
    assert "the test left child process" in run.stdout
