"""The package's public names."""

import importlib

import pytest

SUBMODULES = ("bernoulli", "checks", "cli", "oracle", "polynomials", "sequences", "series")


@pytest.mark.parametrize("module_name", ("pdbell", *(f"pdbell.{m}" for m in SUBMODULES)))
def test_every_exported_name_resolves(module_name):
    # pdbell.bernoulli is the function, so submodules are imported by full name.
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
