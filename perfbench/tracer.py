"""In-memory span tracer for the traced benchmark run.

Spans are recorded from outside the library: ``install`` replaces trimat's public
functions at the names their callers look up (``cli.parse_graph_text``,
``framework.exhaustive_search``, ``reduction.detect``, the ``BitMatrix`` methods, ...)
with timing wrappers, and ``uninstall`` puts the originals back.  Each span keeps its
parent and the op it belongs to; counters read at the same boundaries (RunStats deltas,
PairTable sizes, parsed lines, computed word ORs) are summed per op.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.parent = array("q")
        self.op = array("q")
        self.name = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.maxima: dict[str, int] = defaultdict(int)
        self._targets = None
        self._originals = []

    def intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def open(self, name_ix: int) -> int:
        i = len(self.t0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.name.append(name_ix)
        self.t1.append(0.0)
        self.stack.append(i)
        self.t0.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = perf_counter()
        self.stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counts[self.op_id][key] += value

    def wrap(self, fn, name: str, stats_at: int | None = None, after=None):
        """Timing wrapper; `stats_at` is the position of a RunStats argument whose
        growth during the call is counted, `after(tracer, args, result)` adds counters."""
        ix = self.intern(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats = None
            if stats_at is not None:
                stats = args[stats_at] if len(args) > stats_at else kwargs.get("stats")
            before = dict(vars(stats)) if stats is not None else None
            i = tracer.open(ix)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if before is not None:
                for key, value in vars(stats).items():
                    if value != before[key]:
                        tracer.count(f"{name}.{key}", value - before[key])
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------------------

    def _build_targets(self):
        from trimat import bitmat, cli, detector, framework, graph, randgen, reduction
        from trimat import four_russians as fr

        def lines(tr, args, result):
            tr.count("graph.parse.lines", args[0].count("\n"))

        def word_ors(tr, args, result):
            a, b = args[0], args[1]
            tr.count("bitmat.multiply.word_ors", a.count() * b.words_per_row)

        def table(tr, args, result):
            tr.count("four_russians.table_entries", len(result))
            nbytes = result.entries.nbytes
            tr.count("four_russians.table_bytes", nbytes)
            tr.maxima["four_russians.table_bytes"] = max(
                tr.maxima["four_russians.table_bytes"], nbytes
            )

        def found(tr, args, result):
            tr.count("reduction.detector_calls", 1)
            tr.count("reduction.detector_found", int(result.found))

        def timed_finder_factory(make_finder):
            @functools.wraps(make_finder)
            def factory(*args, **kwargs):
                return self.wrap(make_finder(*args, **kwargs), "framework.finder", stats_at=2)

            return factory

        multiply = self.wrap(bitmat.multiply_bitpacked, "bitmat.multiply", after=word_ors)
        w = self.wrap
        return [
            (cli, "parse_graph_text", w(cli.parse_graph_text, "graph.parse", after=lines)),
            (bitmat, "parse_matrix_text", w(bitmat.parse_matrix_text, "bitmat.parse")),
            (bitmat, "format_matrix_text", w(bitmat.format_matrix_text, "bitmat.format")),
            (bitmat, "multiply_bitpacked", multiply),
            (reduction, "multiply_bitpacked", multiply),
            (bitmat.BitMatrix, "block", w(bitmat.BitMatrix.block, "bitmat.block")),
            (bitmat.BitMatrix, "complement",
             w(bitmat.BitMatrix.complement, "bitmat.complement")),
            (fr, "check_degree_condition",
             w(fr.check_degree_condition, "four_russians.degree_check")),
            (fr, "sparse_detect", w(fr.sparse_detect, "four_russians.scan", stats_at=3)),
            (fr, "build_pair_table",
             w(fr.build_pair_table, "four_russians.table_build", after=table)),
            (detector, "detect", w(detector.detect, "detector", stats_at=2)),
            (detector, "exhaustive_search",
             w(detector.exhaustive_search, "detector.leaf", stats_at=2)),
            (detector, "step4_scan", w(detector.step4_scan, "detector.step4", stats_at=4)),
            (framework, "detect_with_finder",
             w(framework.detect_with_finder, "framework", stats_at=3)),
            (framework, "exhaustive_search",
             w(framework.exhaustive_search, "framework.leaf", stats_at=2)),
            (framework, "step4_scan", w(framework.step4_scan, "framework.step4", stats_at=4)),
            (framework, "high_degree_finder", timed_finder_factory(framework.high_degree_finder)),
            (reduction, "triangle_via_bmm", w(reduction.triangle_via_bmm, "reduction.tvb")),
            (reduction, "bmm_via_triangle", w(reduction.bmm_via_triangle, "reduction.bvt")),
            (reduction, "detect", w(reduction.detect, "detector", stats_at=2, after=found)),
            (randgen, "random_bitmatrix", w(randgen.random_bitmatrix, "randgen.generate")),
            (graph, "format_graph_text", w(graph.format_graph_text, "graph.format")),
        ]

    def install(self) -> None:
        if self._targets is None:
            self._targets = self._build_targets()
        for owner, attr, wrapper in self._targets:
            self._originals.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------------------

    def durations(self) -> np.ndarray:
        return _values(self.t1, np.float64) - _values(self.t0, np.float64)

    def self_times(self) -> np.ndarray:
        """Per span: its duration minus the durations of its direct children."""
        dur = self.durations()
        parent = _values(self.parent, np.int64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return dur - covered

    def by_name(self, values: np.ndarray, ops=None) -> dict[str, float]:
        """Sum `values` per span name, over spans of the given op ids (all when None)."""
        names = _values(self.name, np.int64)
        keep = np.ones(len(values), dtype=bool)
        if ops is not None:
            keep = np.isin(_values(self.op, np.int64), list(ops))
        sums = np.bincount(names[keep], weights=values[keep], minlength=len(self.names))
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def calls(self) -> dict[str, int]:
        counts = np.bincount(_values(self.name, np.int64), minlength=len(self.names))
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def unbalanced_ops(self) -> set[int]:
        """Ops whose span self times do not add up to the duration of their one root span."""
        self_t = self.self_times()
        dur = self.durations()
        ops = _values(self.op, np.int64)
        roots = _values(self.parent, np.int64) < 0
        bad = set()
        for op_id in np.unique(ops):
            mine = ops == op_id
            root = dur[mine & roots]
            if len(root) != 1 or abs(self_t[mine].sum() - root[0]) > 1e-6:
                bad.add(int(op_id))
        return bad

    def write(self, path, op_kinds: dict[int, str]) -> None:
        """One JSON line per op, then one per span: id, parent, op, name, start, end."""
        with open(path, "w", encoding="ascii") as fh:
            for op_id, kind in op_kinds.items():
                fh.write(json.dumps({"op": op_id, "kind": kind}) + "\n")
            names = self.names
            for i in range(len(self.t0)):
                fh.write(
                    f'{{"id": {i}, "parent": {self.parent[i]}, "op": {self.op[i]}, '
                    f'"name": "{names[self.name[i]]}", "t0": {self.t0[i]!r}, '
                    f'"t1": {self.t1[i]!r}}}\n'
                )


def _values(arr: array, dtype) -> np.ndarray:
    """A numpy copy, so the array keeps no exported buffer and can still grow."""
    return np.frombuffer(arr, dtype=dtype).copy()
