"""Every backticked ``repro.…`` path in the maintained docs exists.

A path resolves as its longest importable module prefix, then one
attribute (or dataclass field) per remaining dotted part.  A trailing
``.*`` names the module itself, and a call such as ``f(table)`` names
``f``.  ``PAPER.md`` is the paper's input copy and ``bench/README.md``
belongs to the benchmark, so neither is checked here.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
        *sorted((ROOT / "docs").glob("*.md"))]
PATH = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")


def doc_paths():
    found = {}
    for doc in DOCS:
        for path in PATH.findall(doc.read_text()):
            found.setdefault(path, doc.name)
    return sorted(found.items())


def resolve(path: str):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        break
    for name in parts[i:]:
        if hasattr(obj, name):
            obj = getattr(obj, name)
        elif dataclasses.is_dataclass(obj) and name in {
            f.name for f in dataclasses.fields(obj)
        }:
            obj = None
        else:
            raise AttributeError(f"{'.'.join(parts[:i])} has no {name!r}")
        i += 1
    return obj


def test_docs_name_paths():
    assert len(doc_paths()) > 40


@pytest.mark.parametrize("path,doc", doc_paths())
def test_documented_path_exists(path, doc):
    try:
        resolve(path)
    except (AttributeError, ModuleNotFoundError) as exc:
        pytest.fail(f"{doc} names `{path}`, which does not exist: {exc}")
