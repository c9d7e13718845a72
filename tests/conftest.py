"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtharness


def _module_env():
    """The environment in which a fresh interpreter imports the same
    package as the tests, installed or not."""
    package_root = str(Path(mtharness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return env


@pytest.fixture
def run_module():
    """Runs ``python -m mtharness ARGS`` in a fresh interpreter that imports
    the same package as the tests, installed or not. A child that hangs
    past ``timeout`` seconds raises ``subprocess.TimeoutExpired``, which
    names the command. Modules named in ``block`` cannot be imported in
    the child: a ``None`` entry in ``sys.modules`` makes their import raise
    ``ImportError``. A ``launcher`` such as ``["taskset", "-c", "0"]``
    starts the interpreter."""
    env = _module_env()

    def run(args, cwd, timeout=60, block=(), launcher=()):
        launch = ["-m", "mtharness"]
        if block:
            launch = ["-c", f"import sys; sys.modules.update(dict.fromkeys({sorted(block)!r}));"
                            " from mtharness.cli import main; sys.exit(main())"]
        return subprocess.run(
            [*launcher, sys.executable, *launch, *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
        )

    return run


@pytest.fixture
def start_module():
    """Starts ``python -m mtharness ARGS`` as ``run_module`` does, but returns
    the running ``Popen`` at once; the fixture kills and reaps any process
    still running when the test ends."""
    env = _module_env()
    started = []

    def start(args, cwd):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mtharness", *args],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        started.append(proc)
        return proc

    yield start
    for proc in started:
        if proc.poll() is None:
            proc.kill()
        proc.communicate()
