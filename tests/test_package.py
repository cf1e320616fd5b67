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


def fresh_python(code: str, env: dict[str, str]) -> list[str]:
    """The words `code` prints in a new interpreter that imports this
    checkout's `topicsum`."""
    src = str(Path(topicsum.__file__).resolve().parent.parent)
    env = {**env, "PYTHONPATH": os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True, timeout=60).stdout.split()


@pytest.mark.parametrize("user_value", [None, "7"])
def test_import_sets_the_openblas_spin_default_and_keeps_a_user_value(user_value):
    """A fresh `import topicsum` sets OPENBLAS_THREAD_TIMEOUT before numpy
    loads OpenBLAS, unless the variable is already set."""
    env = {name: value for name, value in os.environ.items()
           if name != "OPENBLAS_THREAD_TIMEOUT"}
    if user_value is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = user_value
    out = fresh_python("import os, sys, topicsum; "
                       "print(os.environ['OPENBLAS_THREAD_TIMEOUT'], 'numpy' in sys.modules)", env)
    assert out == [user_value or "20", "True"]


def test_import_loads_no_openssl():
    """`import topicsum` and its CLI load neither `secrets` nor `hashlib`,
    which bring OpenSSL's few megabytes into every process."""
    out = fresh_python("import sys, topicsum, topicsum.cli; "
                       "print(*sorted({'secrets', 'hashlib', '_hashlib'} & set(sys.modules)))",
                       dict(os.environ))
    assert out == []
