"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mtharness


@pytest.fixture
def run_module():
    """Runs ``python -m mtharness ARGS`` in a fresh interpreter that imports
    the same package as the tests, installed or not. A child that hangs
    past ``timeout`` seconds raises ``subprocess.TimeoutExpired``, which
    names the command. Modules named in ``block`` cannot be imported in
    the child: a ``None`` entry in ``sys.modules`` makes their import raise
    ``ImportError``."""
    package_root = str(Path(mtharness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))

    def run(args, cwd, timeout=60, block=()):
        launch = ["-m", "mtharness"]
        if block:
            launch = ["-c", f"import sys; sys.modules.update(dict.fromkeys({sorted(block)!r}));"
                            " from mtharness.cli import main; sys.exit(main())"]
        return subprocess.run(
            [sys.executable, *launch, *args],
            cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout,
        )

    return run
