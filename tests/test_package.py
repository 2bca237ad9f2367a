"""The package root: every public name of every module is importable from it."""

from __future__ import annotations

import importlib
import pkgutil

import funnelmpc


def test_public_names_are_exported_from_the_root():
    missing = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(funnelmpc.__path__)
        for name in getattr(importlib.import_module(f"funnelmpc.{info.name}"), "__all__", ())
        if not hasattr(funnelmpc, name)
    ]
    assert missing == []
