"""The package's public names are the union of its library modules' ``__all__``."""

import importlib
from collections import Counter

import pytest

import neuronprune

LIBRARY_MODULES = ["cutoff", "data", "model_io", "network", "pruning", "saliency", "training"]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_every_module_export_is_bound_on_the_package(name):
    module = importlib.import_module(f"neuronprune.{name}")
    for attr in module.__all__:
        assert getattr(neuronprune, attr) is getattr(module, attr), attr


def test_no_name_is_exported_by_two_modules():
    owners = Counter(
        attr
        for name in LIBRARY_MODULES
        for attr in importlib.import_module(f"neuronprune.{name}").__all__
    )
    assert [attr for attr, count in owners.items() if count > 1] == []


def test_package_all_has_no_duplicates():
    assert len(neuronprune.__all__) == len(set(neuronprune.__all__))
