"""Every library name the benchmark traces still resolves.

``benchmark/tracing.py`` wraps the functions listed in its ``TARGETS`` by
module and attribute name; a rename or deletion in the library would only
show up when a traced benchmark run fails.
"""

import importlib
from pathlib import Path

BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARK_DIR))
    tracing = importlib.import_module("tracing")
    assert ("regions", "RegionAtlas.region_containing", None) in tracing.TARGETS
    for module, attr, _ in tracing.TARGETS:
        obj = importlib.import_module(f"wordcones.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module}.{attr}"
