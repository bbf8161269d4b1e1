"""The traced benchmark patches library names by attribute; they must exist.

`perfbench/tracer.py` replaces functions and `BitMatrix` methods at the
names their callers look up.  Deleting or renaming one of them breaks every
traced benchmark run, so this test installs and uninstalls the tracer and
checks that it found every name and put every original object back.
"""

import importlib.util
import inspect
from pathlib import Path

import trimat as tm
from trimat import bitmat, cli, detector, framework, graph, randgen, reduction
from trimat import four_russians as fr

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
OWNERS = (bitmat, bitmat.BitMatrix, cli, detector, framework, graph, randgen, reduction, fr)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_existing_names_and_restores_them():
    before = [dict(vars(owner)) for owner in OWNERS]
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        patched = {
            (owner.__name__, name)
            for owner, names in zip(OWNERS, before)
            for name, value in vars(owner).items()
            if names.get(name) is not value
        }
    finally:
        tracer.uninstall()
    assert {("BitMatrix", "block"), ("BitMatrix", "complement")} <= patched
    assert ("trimat.reduction", "detect") in patched
    for owner, names in zip(OWNERS, before):
        after = vars(owner)
        assert set(after) == set(names), owner.__name__
        for name, value in names.items():
            assert after[name] is value, f"{owner.__name__}.{name} not restored"
    # the library still works through the restored names
    assert tm.bmm_via_triangle(tm.identity(3), tm.identity(3)) == tm.identity(3)


def test_tracer_reads_stats_from_a_parameter_named_stats():
    """`wrap(fn, name, stats_at=k)` reads a RunStats at position k; a signature
    edit that moves `stats` would make the traced counters read another argument."""
    pairs = []

    class RecordingTracer(_load_tracer().Tracer):
        def wrap(self, fn, name, stats_at=None, after=None):
            if stats_at is not None:
                pairs.append((fn, stats_at))
            return super().wrap(fn, name, stats_at, after)

    tracer = RecordingTracer()
    tracer.install()
    try:
        framework.high_degree_finder(2)  # the patched factory wraps each finder it makes
    finally:
        tracer.uninstall()
    assert len(pairs) == 9
    for fn, stats_at in pairs:
        assert list(inspect.signature(fn).parameters)[stats_at] == "stats", fn.__qualname__
