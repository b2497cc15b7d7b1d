"""Every exported name resolves.

A function deleted from a module but left in its ``__all__`` (or in a
lazy ``_EXPORTS`` map such as :mod:`repro.runtime`'s) only fails at a
user's ``from repro.x import y``; this walks every ``repro`` module so it
fails tier-1 instead.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")  # importing one runs its CLI
)


def test_walk_found_the_packages():
    for layer in ("circuit", "sim", "data", "train", "runtime", "serve", "lint"):
        assert f"repro.{layer}" in MODULES


@pytest.mark.parametrize("name", ["repro"] + MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    exported = set(getattr(module, "__all__", ())) | set(
        getattr(module, "_EXPORTS", ())
    )
    missing = sorted(n for n in exported if not hasattr(module, n))
    assert not missing, f"{name} exports names it does not define: {missing}"
