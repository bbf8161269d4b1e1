#!/usr/bin/env python3
"""trimat benchmark: closed-loop, in-process CLI ops on seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload sparse-free --seed 1 --seconds 20 --trace 0

One client calls ``trimat.cli.main(argv)`` in this process, op after op: the next op
starts when the previous one returns, so parsing and formatting count but no subprocess
start-up does.  Each cycle draws a fresh instance (workloads.py) and runs one op of each
kind on it; drawing it, writing its files and computing its references is set-up, done
between cycles and outside the timed phase.  Cycles repeat until the timed ops add up
to --seconds.

--trace 0 prints the end-to-end metrics.  --trace 1 runs every op once untraced and once
with the tracer installed (tracer.py), prints per-layer metrics taken from the spans,
and writes the spans to .perfbench_out/.  Every op's output is checked against a numpy
reference; a wrong answer, a non-zero exit or an exception counts as failed.  The last
stdout line is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout, suppress
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sparse-free", "two-class", "multiply")
TAIL_BEYOND = 10  # a tail percentile needs at least this many samples above it
WARMUP_SEED_OFFSET = 0x5EED

PER_LAYER = {
    "cli.self_s": "s/cycle",
    "graph.parse.self_s": "s/cycle",
    "graph.parse.lines_per_s": "1/s",
    "graph.format.self_s": "s/cycle",
    "randgen.generate_s": "s/cycle",
    "bitmat.multiply.calls": "count/cycle",
    "bitmat.multiply.self_s": "s/cycle",
    "bitmat.multiply.word_ors": "count/cycle",
    "bitmat.multiply.word_ors_per_s": "1/s",
    "bitmat.parse.self_s": "s/cycle",
    "bitmat.format.self_s": "s/cycle",
    "bitmat.block.calls": "count/cycle",
    "bitmat.block.self_s": "s/cycle",
    "bitmat.complement.self_s": "s/cycle",
    "four_russians.degree_check.self_s": "s/cycle",
    "four_russians.table_build.self_s": "s/cycle",
    "four_russians.scan.self_s": "s/cycle",
    "four_russians.table_entries": "count/cycle",
    "four_russians.table_bytes.max": "B",
    "four_russians.table_queries": "count/cycle",
    "four_russians.queries_per_entry": "ratio",
    "detector.self_s": "s/cycle",
    "detector.recursion_nodes": "count/cycle",
    "detector.leaf.calls": "count/cycle",
    "detector.leaf.self_s": "s/cycle",
    "detector.leaf.triples_per_s": "1/s",
    "detector.triples_enumerated": "count/cycle",
    "detector.step4.calls": "count/cycle",
    "detector.step4.self_s": "s/cycle",
    "detector.pairs_charged": "count/cycle",
    "framework.self_s": "s/cycle",
    "framework.recursion_nodes": "count/cycle",
    "framework.finder.calls": "count/cycle",
    "framework.finder.self_s": "s/cycle",
    "framework.leaf.self_s": "s/cycle",
    "framework.step4.self_s": "s/cycle",
    "reduction.tvb.self_s": "s/cycle",
    "reduction.bvt.self_s": "s/cycle",
    "reduction.detector_calls": "count/cycle",
    "reduction.found_ratio": "ratio",
    "ratio.detect_over_bmm": "ratio",
    "trace.overhead_ratio": "ratio",
}


class ProgramMissing(Exception):
    """The checkout holds no trimat sources to benchmark."""


def end_to_end_units(kinds) -> dict[str, str]:
    """The gated end-to-end metrics.  Each op kind's p50 and ops_per_s are reported
    beside them but not gated: on the 2-vCPU host measured in NOTES.md they swing by up
    to a quarter between runs of the same code."""
    units = {"setup_s": "s", "peak_rss_mb": "MB"}
    for kind in kinds:
        units[f"{kind}_ms.tail"] = "ms"
    return units


def load_program(root: Path) -> float:
    """Import the checkout's own trimat from root/src; returns the seconds it took."""
    src = root / "src"
    if not (src / "trimat" / "__init__.py").is_file():
        raise ProgramMissing(f"no trimat sources under {src}")
    # One thread for numpy's BLAS, used only by the set-up references.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    start = perf_counter()
    import numpy  # noqa: F401
    import trimat
    import trimat.cli  # noqa: F401

    elapsed = perf_counter() - start
    if Path(trimat.__file__).resolve().parent != (src / "trimat").resolve():
        raise ProgramMissing(f"imported trimat from {trimat.__file__}, not from {src}")
    return elapsed


# -- one op ------------------------------------------------------------------------------


@dataclass
class Execution:
    kind: str
    cycle: int
    seconds: float
    failure: str | None
    counters: dict[str, int] = field(default_factory=dict)


def call_cli(cli, argv, tracer=None, root_ix=None):
    """Run trimat.cli.main(argv) with its output captured; returns (code, stdout, secs)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    span = tracer.open(root_ix) if tracer is not None else None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crashing op is a failed op, never the end of the run
        code = "exception " + traceback.format_exc().strip().splitlines()[-1]
    finally:
        if span is not None:
            tracer.close(span)
    return code, out.getvalue(), perf_counter() - start


def execute(cli, wl, op, inst, cycle, tracer=None, root_ix=None) -> Execution:
    if op.out is not None:
        op.out.unlink(missing_ok=True)
    code, stdout, secs = call_cli(cli, op.argv, tracer, root_ix)
    failure, counters = wl.check_op(op, inst, code, stdout)
    return Execution(op.kind, cycle, secs, failure, counters)


# -- statistics --------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples above it.

    That is the order statistic of rank N - TAIL_BEYOND.  Below about 2*TAIL_BEYOND
    samples it would fall under the median, and a tail is never reported below the
    median, so the median (p50) stands in for it there."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND
    median = statistics.median(ordered)
    if rank < 1 or ordered[rank - 1] < median:
        return median, 50.0
    return ordered[rank - 1], 100.0 * rank / n


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the run -----------------------------------------------------------------------------


class Run:
    """State of one benchmark run; `lines` is the human-readable report."""

    def __init__(self, workload, seed, seconds, trace, root, sizes):
        import workloads as wl
        from trimat import cli
        from trimat.randgen import CounterRng

        from tracer import Tracer

        self.wl, self.cli, self.rng_type = wl, cli, CounterRng
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.size = sizes[workload]
        self.toy = wl.TOY_SIZES[workload]
        self.work = root / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.out_dir = root / ".perfbench_out"
        self.tracer = Tracer() if trace else None
        if self.tracer is not None:
            self.cli_ix = self.tracer.intern("cli")
            self.setup_ix = self.tracer.intern("setup")
        self.lines: list[str] = []
        self.setup_times: list[float] = []
        self.plain: list[Execution] = []  # untraced executions
        self.traced: list[Execution] = []
        self.op_kinds: dict[int, str] = {}
        self.cycles = 0
        self.inputs = hashlib.sha256()
        self.counter_lines: list[str] = []

    def build(self, rng, size, directory, cycle, traced=True):
        start = perf_counter()
        if self.tracer is None or not traced:
            inst = self.wl.build_instance(self.workload, rng, size, directory)
        else:
            self.tracer.op_id = -(cycle + 1)
            self.tracer.install()
            span = self.tracer.open(self.setup_ix)
            try:
                inst = self.wl.build_instance(self.workload, rng, size, directory)
            finally:
                self.tracer.close(span)
                self.tracer.uninstall()
        return inst, perf_counter() - start

    def warm_up(self) -> None:
        """One untimed toy-size cycle, so lazy imports and first calls are paid here."""
        rng = self.rng_type(self.seed + WARMUP_SEED_OFFSET)
        inst, _ = self.build(rng, self.toy, self.work / "warmup", -1, traced=False)
        for op in inst.ops:
            execute(self.cli, self.wl, op, inst, -1)
        shutil.rmtree(self.work / "warmup", ignore_errors=True)

    def traced_execution(self, op, inst, cycle) -> Execution:
        tr = self.tracer
        tr.op_id = len(self.op_kinds)
        self.op_kinds[tr.op_id] = op.kind
        tr.install()
        try:
            done = execute(self.cli, self.wl, op, inst, cycle, tr, self.cli_ix)
        finally:
            tr.uninstall()
        done.counters.update(tr.counts[tr.op_id])
        return done

    def cycle(self, rng) -> None:
        cycle = self.cycles
        directory = self.work / f"cycle-{cycle}"
        inst, secs = self.build(rng, self.size, directory, cycle)
        self.setup_times.append(secs)
        for name, digest in inst.digests.items():
            self.inputs.update(f"{cycle} {name} {digest}\n".encode())
            self.lines.append(f"input cycle={cycle} {name} sha256={digest}")
        for op in inst.ops:
            if self.tracer is None:
                done = execute(self.cli, self.wl, op, inst, cycle)
                self.plain.append(done)
                self.note_counters(done)
                continue
            traced_first = cycle % 2 == 1  # alternate, so neither side always runs warm
            if traced_first:
                tdone = self.traced_execution(op, inst, cycle)
            pdone = execute(self.cli, self.wl, op, inst, cycle)
            if not traced_first:
                tdone = self.traced_execution(op, inst, cycle)
            self.cross_check(pdone, tdone)
            self.plain.append(pdone)
            self.traced.append(tdone)
            self.note_counters(tdone)
        shutil.rmtree(directory, ignore_errors=True)
        self.cycles += 1

    def cross_check(self, plain: Execution, traced: Execution) -> None:
        """Counters must repeat exactly with the tracer installed, and the tracer's own
        RunStats deltas must agree with the --stats lines the CLI printed."""
        if traced.failure is not None:
            return
        same = {k: v for k, v in traced.counters.items() if k in plain.counters}
        if plain.failure is None and same != plain.counters:
            traced.failure = f"counters differ traced {same} vs untraced {plain.counters}"
            return
        root = {"detect": "detector", "framework": "framework"}.get(traced.kind)
        if root is None:
            return
        for key in self.wl.STATS_KEYS:
            got, printed = traced.counters.get(f"{root}.{key}", 0), traced.counters[key]
            if got != printed:
                traced.failure = f"span counter {root}.{key}={got}, --stats says {printed}"
                return

    def note_counters(self, done: Execution) -> None:
        text = " ".join(f"{k}={v}" for k, v in sorted(done.counters.items()))
        self.counter_lines.append(f"counters cycle={done.cycle} {done.kind} {text}")

    def execute_all(self) -> None:
        rng = self.rng_type(self.seed)
        try:
            self.warm_up()
            while self.cycles == 0 or self.timed_seconds() < self.seconds:
                self.cycle(rng)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            with suppress(OSError):  # left in place while another run still uses it
                self.work.parent.rmdir()

    def timed_seconds(self) -> float:
        return sum(e.seconds for e in self.plain) + sum(e.seconds for e in self.traced)

    # -- reporting -----------------------------------------------------------------------

    def end_to_end(self, import_s: float) -> dict[str, tuple[float, str, str]]:
        """name -> (value, unit, note), for the gated metrics and the ungated ones."""
        ok = sum(1 for e in self.plain if e.failure is None)
        metrics = {
            "setup_s": (import_s + statistics.median(self.setup_times), "s",
                        f"import {import_s:.4f} s + median of {len(self.setup_times)} set-ups"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""),
            "ops_per_s": (ratio(ok, self.timed_seconds()), "1/s", f"{ok} ops, one client"),
        }
        for kind in self.wl.KINDS:
            ms = [1e3 * e.seconds for e in self.plain if e.kind == kind]
            value, pct = tail(ms)
            metrics[f"{kind}_ms.p50"] = (statistics.median(ms), "ms", f"n={len(ms)}")
            metrics[f"{kind}_ms.tail"] = (value, "ms", f"p{pct:.1f} of n={len(ms)}")
        return metrics

    def per_layer(self) -> dict[str, tuple[float, str, str]]:
        tr = self.tracer
        self_s = tr.by_name(tr.self_times())
        calls = tr.calls()
        total: dict[str, int] = {}
        for per_op in tr.counts.values():
            for key, value in per_op.items():
                total[key] = total.get(key, 0) + value
        c = self.cycles

        def per_cycle(x):
            return x / c

        dur = tr.durations()
        detect_ops = [i for i, k in self.op_kinds.items() if k == "detect"]
        bmm_ops = [i for i, k in self.op_kinds.items() if k == "bmm_detect"]
        traced_s = sum(e.seconds for e in self.traced)
        plain_s = sum(e.seconds for e in self.plain)
        values = {
            "randgen.generate_s": per_cycle(self_s["randgen.generate"]),
            "graph.parse.lines_per_s": ratio(total.get("graph.parse.lines", 0),
                                             self_s["graph.parse"]),
            "bitmat.multiply.word_ors": per_cycle(total.get("bitmat.multiply.word_ors", 0)),
            "bitmat.multiply.word_ors_per_s": ratio(total.get("bitmat.multiply.word_ors", 0),
                                                    self_s["bitmat.multiply"]),
            "four_russians.table_entries": per_cycle(total.get("four_russians.table_entries", 0)),
            "four_russians.table_bytes.max": float(tr.maxima["four_russians.table_bytes"]),
            "four_russians.table_queries": per_cycle(
                total.get("four_russians.scan.table_queries", 0)),
            "four_russians.queries_per_entry": ratio(
                total.get("four_russians.scan.table_queries", 0),
                total.get("four_russians.table_entries", 0)),
            "detector.leaf.triples_per_s": ratio(
                total.get("detector.leaf.triples_enumerated", 0), self_s["detector.leaf"]),
            "reduction.found_ratio": ratio(total.get("reduction.detector_found", 0),
                                           total.get("reduction.detector_calls", 0)),
            "ratio.detect_over_bmm": ratio(tr.by_name(dur, detect_ops)["detector"],
                                           tr.by_name(dur, bmm_ops)["reduction.tvb"]),
            "trace.overhead_ratio": ratio(traced_s, plain_s) - 1.0,
        }
        for name in PER_LAYER:
            if name in values:
                continue
            layer, _, stat = name.rpartition(".")
            if stat == "self_s":
                values[name] = per_cycle(self_s[layer])
            elif stat == "calls":
                values[name] = per_cycle(calls[layer])
            else:
                values[name] = per_cycle(total.get(name, 0))
        return {k: (values[k], unit, "") for k, unit in PER_LAYER.items()}

    def report(self, import_s: float) -> dict:
        if self.tracer is not None:
            for op_id in self.tracer.unbalanced_ops():
                if op_id >= 0:  # set-up spans carry negative op ids
                    done = self.traced[op_id]
                    done.failure = done.failure or "span self times do not add up to the op"
            metrics, gated = self.per_layer(), PER_LAYER
        else:
            metrics, gated = self.end_to_end(import_s), end_to_end_units(self.wl.KINDS)
        runs = self.plain + self.traced
        failures = [e for e in runs if e.failure is not None]
        lines = [f"workload={self.workload} seed={self.seed} seconds={self.seconds} "
                 f"trace={int(self.trace)} cycles={self.cycles} closed loop, one client"]
        lines += self.lines + self.counter_lines
        counters = hashlib.sha256("\n".join(self.counter_lines).encode()).hexdigest()
        lines.append(f"inputs sha256={self.inputs.hexdigest()} (all cycles)")
        lines.append(f"counters sha256={counters} (all cycles)")
        for e in failures[:20]:
            lines.append(f"FAILED cycle={e.cycle} {e.kind}: {e.failure}")
        lines.append(f"fail_ratio = {ratio(len(failures), len(runs)):.6f} "
                     f"({len(failures)} of {len(runs)} ops)")
        for name, (value, unit, note) in metrics.items():
            note = "; ".join(x for x in (note, "" if name in gated else "not gated") if x)
            lines.append(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
        self.lines = lines
        return {
            "correct": not failures,
            "attempted": len(runs),
            "failed": len(failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items() if name in gated},
        }

    def write_trace(self) -> Path:
        self.out_dir.mkdir(exist_ok=True)
        path = self.out_dir / f"trace-{self.workload}-seed{self.seed}.jsonl"
        self.tracer.write(path, self.op_kinds)
        return path


def run_workload(workload, seed, seconds, trace, root=ROOT, sizes=None, import_s=0.0):
    """Run one workload; returns (result dict, report lines)."""
    import workloads as wl

    run = Run(workload, seed, seconds, trace, root, sizes or wl.SIZES)
    run.execute_all()
    result = run.report(import_s)
    if trace:
        run.lines.append(f"spans written to {run.write_trace()}")
    return result, run.lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        import_s = load_program(ROOT)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                                 import_s=import_s)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
