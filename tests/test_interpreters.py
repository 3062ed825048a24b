"""The golden corpus on every Python that ``requires-python`` admits.

Each of ``python3.10`` to ``python3.13`` on PATH runs the whole corpus in one
child, through ``cli.main`` as ``tests/test_golden.py`` runs it, and must print
every report byte for byte. A pyenv shim that does not serve a version by
default is asked again with ``PYENV_VERSION`` set to the newest installed
``3.X.*``. One that is not on PATH, or still does not start (a version that is
not installed), is skipped and named as not checked.
"""

import json
import os
import re
import shutil
import subprocess

import pytest

from test_golden import CASES, FAILING, ROOT, _expected

# the child reads the cases as JSON on stdin, says it started, then prints each
# case's exit status, stdout and stderr as one JSON object
CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
cases = json.load(sys.stdin)
print("started", flush=True)
from hyperlab import cli
results = {}
for name, argv in cases.items():
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    results[name] = [status, out.getvalue(), err.getvalue()]
print(json.dumps(results))
"""


def _run_corpus(python: str, env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([python, "-c", CHILD], input=json.dumps(CASES), cwd=ROOT, env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)


def _newest_pyenv_version(version: str) -> str | None:
    """The newest ``version.N`` that ``pyenv versions --bare`` lists, or None."""
    pyenv = shutil.which("pyenv")
    if pyenv is None:
        return None
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True,
                            timeout=60).stdout.split()
    patches = [int(m.group(1)) for name in listed
               if (m := re.fullmatch(re.escape(version) + r"\.(\d+)", name))]
    return f"{version}.{max(patches)}" if patches else None


@pytest.mark.parametrize("version", ["3.10", "3.11", "3.12", "3.13"])
def test_the_corpus_is_byte_identical_under(version):
    python = shutil.which(f"python{version}")
    if python is None:
        pytest.skip(f"python{version} is not on PATH: not checked")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = _run_corpus(python, env)
    if not done.stdout.startswith("started\n"):
        installed = _newest_pyenv_version(version)
        if installed is not None:
            done = _run_corpus(python, dict(env, PYENV_VERSION=installed))
    started, _, results = done.stdout.partition("\n")
    if started != "started":
        pytest.skip(f"python{version} does not start: not checked "
                    f"({done.stderr.strip().splitlines()[:1]})")
    assert done.returncode == 0, done.stderr
    differ = [name for name, (status, out, err) in json.loads(results).items()
              if (status, out.encode("utf-8"), err.encode("utf-8"))
              != (1 if name in FAILING else 0, _expected(name, "out"), _expected(name, "err"))]
    assert not differ, f"python{version} prints other bytes for {differ}"
