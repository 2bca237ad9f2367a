"""The package root: every public name of every module is importable from it,
and the README's library example runs as printed."""

from __future__ import annotations

import importlib
import pathlib
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


def test_readme_library_example_passes(capsys):
    # the README's Library section runs as printed and keeps its guarantees
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    library = readme.read_text().split("## Library", 1)[1]
    block = library.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].passed
    assert capsys.readouterr().out.startswith("True ")
