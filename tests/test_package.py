"""Package surface: every module's `__all__` names only what it defines."""

import importlib
import pkgutil

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
