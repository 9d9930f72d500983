"""Every `nucforce` submodule imports on its own, and so do the
benchmark workloads.

The package `__init__` imports nothing, so no module-load order hides an
import cycle: each submodule is imported first in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SUBMODULES = sorted(path.stem for path in (SRC / "nucforce").glob("*.py") if path.stem != "__init__")


def _loaded_after(module: str) -> set[str]:
    """The `nucforce` modules loaded by importing `module` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (f"import sys, {module}\n"
             "print(' '.join(sorted(m for m in sys.modules if m.startswith('nucforce'))))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_in_a_fresh_interpreter(name):
    assert f"nucforce.{name}" in _loaded_after(f"nucforce.{name}")


def test_the_machine_half_does_not_load_the_lattice_half():
    assert _loaded_after("nucforce.realizability") == {"nucforce", "nucforce.formula", "nucforce.realizability"}


def test_the_benchmark_workloads_import_every_name_they_use():
    # a renamed or deleted name fails here, not only in a benchmark run;
    # no bytecode is written under perfbench/
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{ROOT / 'perfbench'}", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", "import workloads"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
