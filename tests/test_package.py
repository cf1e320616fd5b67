"""Package surface: every module's `__all__` names only what it defines, and
what importing the package sets."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import topicsum

MODULES = sorted(info.name for info in pkgutil.iter_modules(topicsum.__path__))


def test_every_module_is_found():
    assert {"autodiff", "cli", "generator"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"topicsum.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"duplicate names in topicsum.{name}.__all__"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"topicsum.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("user_value", [None, "7"])
def test_import_sets_the_openblas_spin_default_and_keeps_a_user_value(user_value):
    """A fresh `import topicsum` sets OPENBLAS_THREAD_TIMEOUT before numpy
    loads OpenBLAS, unless the variable is already set."""
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_THREAD_TIMEOUT"}
    if user_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_value
    src = str(Path(topicsum.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", "import os, sys, topicsum; "
                               "print(os.environ['OPENBLAS_THREAD_TIMEOUT'], 'numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout.split()
    assert out == [user_value or "20", "True"]
