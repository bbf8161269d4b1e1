"""Command-line harness: detect, multiply, verify, bench, stats-demo.

Exit codes: 0 success, 1 verification failure or an internal error,
2 usage or parse errors, 3 resource limits (a pair table over its entry
budget, or an allocation that fails with MemoryError).
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback

from . import bitmat, detector, framework, oracle, reduction
from . import four_russians as fr
from .errors import (
    FinderContractError,
    FormatError,
    InvariantError,
    TableBudgetError,
    TrimatError,
)
from .graph import (
    RunStats,
    TripartiteGraph,
    format_graph_text,
    parse_general_graph_text,
    parse_graph_text,
)
from .randgen import CounterRng, random_bitmatrix, random_tripartite

DETECT_ALGOS = ("recursive", "sparse", "framework", "bmm", "brute")
MULTIPLY_ALGOS = ("bitpacked", "via-triangle", "scalar")
VERIFY_DENSITIES = (0.02, 0.1, 0.3, 0.7, 1.0)
# the deep configuration sends every non-empty view to the finder, so the
# paper's recursion is checked and not only its exhaustive leaf
DEEP_DETECT = detector.DetectorConfig(small_threshold=1, debug_charge_check=True)
# products up to this side also run through the deep detector; larger ones
# would make it the bulk of a verify run
DEEP_MULTIPLY_MAX_SIDE = 8


class UsageError(Exception):
    """Bad flag values detected after argparse (exit code 2)."""


def _require_at_least_one(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value is not None and value < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be at least 1, got {value}")


def _split_list(text: str, convert, flag: str) -> list:
    try:
        return [convert(s) for s in text.split(",") if s]
    except ValueError:
        raise UsageError(f"{flag} needs a comma-separated list, got {text!r}") from None


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        line = len(data[: exc.start + 1].decode("ascii", "replace").splitlines())
        raise FormatError(line, f"non-ASCII byte {data[exc.start]:#04x}") from None


def _run_detect_algo(algo: str, g: TripartiteGraph, delta: int,
                     small_threshold: int | None, stats: RunStats):
    if algo == "recursive":
        cfg = detector.DetectorConfig(delta=delta, small_threshold=small_threshold)
        return detector.detect(g, cfg, stats)
    if algo == "sparse":
        return fr.sparse_detect(g, g.full_view(), delta, stats)
    if algo == "framework":
        cfg = framework.FrameworkConfig(small_volume_threshold=small_threshold)
        return framework.detect_with_finder(g, framework.high_degree_finder(delta), cfg, stats)
    if algo == "bmm":
        return reduction.triangle_via_bmm(g)
    if algo == "brute":
        return oracle.brute_triangle(g)
    raise ValueError(f"unknown algorithm {algo!r}")


def cmd_detect(args) -> int:
    _require_at_least_one(args, "delta", "small_threshold")
    text = _read(args.graph)
    g = parse_general_graph_text(text) if args.general else parse_graph_text(text)
    stats = RunStats()
    verdict = _run_detect_algo(args.algo, g, args.delta, args.small_threshold, stats)
    if verdict.found:
        a, b, c = verdict.witness
        print(f"TRIANGLE {a} {b} {c}")
    else:
        print("TRIANGLE-FREE")
    if args.stats:
        for line in stats.as_lines():
            print(line)
    return 0


def cmd_multiply(args) -> int:
    a = bitmat.parse_matrix_text(_read(args.a))
    b = bitmat.parse_matrix_text(_read(args.b))
    if a.cols != b.rows:
        raise UsageError(f"dimension mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if args.algo == "bitpacked":
        out = bitmat.multiply_bitpacked(a, b)
    elif args.algo == "scalar":
        out = oracle.multiply_scalar_oracle(a, b)
    else:
        n = reduction.product_side(a, b)
        if args.block is not None and n and not 1 <= args.block <= n:
            raise UsageError(f"block side must lie in [1, {n}], got {args.block}")
        out = reduction.bmm_via_triangle(a, b, args.block)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(bitmat.format_matrix_text(out))
    return 0


def _verify_graph_trial(rng: CounterRng, max_size: int, trial: int) -> str | None:
    """One detection cross-check; returns a failure report or None."""
    na = 1 + rng.next_below(max_size)
    nb = 1 + rng.next_below(max_size)
    nc = 1 + rng.next_below(max_size)
    density = VERIFY_DENSITIES[rng.next_below(len(VERIFY_DENSITIES))]
    g = random_tripartite(rng, na, nb, nc, density)
    expected = oracle.brute_triangle(g)
    finder = framework.high_degree_finder(2)
    deep_fw = framework.FrameworkConfig(small_volume_threshold=1, debug_verify_finder=True)
    runs = [
        ("recursive", lambda: detector.detect(g, None, RunStats())),
        ("recursive-deep", lambda: detector.detect(g, DEEP_DETECT, RunStats())),
        ("bmm", lambda: reduction.triangle_via_bmm(g)),
        ("framework", lambda: framework.detect_with_finder(g, finder, None, RunStats())),
        ("framework-deep", lambda: framework.detect_with_finder(g, finder, deep_fw, RunStats())),
    ]
    if fr.check_degree_condition(g, g.full_view(), 2) is None:
        runs.append(("sparse", lambda: fr.sparse_detect(g, g.full_view(), 2, RunStats())))
    for name, run in runs:
        try:
            verdict = run()
        except (InvariantError, FinderContractError) as exc:
            return f"trial {trial}: {name} raised {exc!r} on graph:\n{format_graph_text(g)}"
        if verdict.found != expected.found:
            return (
                f"trial {trial}: {name} said {verdict.found}, brute force said "
                f"{expected.found} on graph:\n{format_graph_text(g)}"
            )
        if verdict.found:
            a, b, c = verdict.witness
            if not (g.ab.get(a, b) and g.ac.get(a, c) and g.bc.get(b, c)):
                return (
                    f"trial {trial}: {name} returned non-triangle witness "
                    f"({a},{b},{c}) on graph:\n{format_graph_text(g)}"
                )
    return None


def _verify_multiply_trial(rng: CounterRng, max_size: int, trial: int) -> str | None:
    n = 1 + rng.next_below(max_size)
    density = VERIFY_DENSITIES[rng.next_below(len(VERIFY_DENSITIES))]
    a = random_bitmatrix(rng, n, n, density)
    b = random_bitmatrix(rng, n, n, density)
    expected = oracle.multiply_scalar_oracle(a, b)
    if bitmat.multiply_bitpacked(a, b) != expected:
        return f"trial {trial}: bitpacked product mismatch at n={n}"
    t = 1 + rng.next_below(max(1, min(n, 4)))
    runs = [("via-triangle", None)]
    if n <= DEEP_MULTIPLY_MAX_SIDE:
        runs.append(("via-triangle-deep", reduction.default_detector(DEEP_DETECT)))
    for name, handle in runs:
        try:
            got = reduction.bmm_via_triangle(a, b, t, handle)
        except (InvariantError, FinderContractError) as exc:
            return f"trial {trial}: {name} raised {exc!r} at n={n}, t={t}"
        if got != expected:
            return f"trial {trial}: {name} product mismatch at n={n}, t={t}"
    return None


def cmd_verify(args) -> int:
    _require_at_least_one(args, "trials", "max_size")
    rng = CounterRng(args.seed)
    print(f"verify seed={args.seed} trials={args.trials} max-size={args.max_size}")
    for trial in range(args.trials):
        failure = _verify_graph_trial(rng, args.max_size, trial)
        if failure is None and trial % 3 == 0:
            failure = _verify_multiply_trial(rng, max(2, args.max_size // 2), trial)
        if failure is not None:
            print("FAIL")
            print(failure)
            return 1
    print(f"OK {args.trials} trials, all detectors and multipliers agree")
    return 0


def cmd_bench(args) -> int:
    _require_at_least_one(args, "delta")
    sizes = _split_list(args.sizes, int, "--sizes")
    densities = _split_list(args.densities, float, "--densities")
    algos = [a for a in args.algos.split(",") if a]
    if any(n < 0 for n in sizes):
        raise UsageError(f"--sizes must be non-negative, got {args.sizes!r}")
    if not all(0.0 <= d <= 1.0 for d in densities):
        raise UsageError(f"--densities must lie in [0, 1], got {args.densities!r}")
    for algo in algos:
        if algo not in DETECT_ALGOS:
            raise UsageError(f"unknown algorithm {algo!r}, choose from {','.join(DETECT_ALGOS)}")
    rng = CounterRng(args.seed)
    print("algo,n,density,millis,triples_enumerated,pairs_charged,table_queries")
    for n in sizes:
        for density in densities:
            g = random_tripartite(rng, n, n, n, density)
            for algo in algos:
                stats = RunStats()
                start = time.perf_counter()
                _run_detect_algo(algo, g, args.delta, None, stats)
                millis = (time.perf_counter() - start) * 1e3
                print(
                    f"{algo},{n},{density},{millis:.3f},{stats.triples_enumerated},"
                    f"{stats.pairs_charged},{stats.table_queries}"
                )
    return 0


def cmd_stats_demo(args) -> int:
    _require_at_least_one(args, "delta")
    g = parse_graph_text(_read(args.graph))
    cfg = detector.DetectorConfig(delta=args.delta, debug_charge_check=True)
    stats = RunStats()
    try:
        verdict = detector.detect(g, cfg, stats)
    except InvariantError as exc:
        print(f"charged-pair uniqueness: VIOLATED ({exc})")
        return 1
    print("charged-pair uniqueness: OK")
    print(f"verdict: {'TRIANGLE' if verdict.found else 'TRIANGLE-FREE'}")
    for line in stats.as_lines():
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trimat", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="triangle detection on a graph file")
    d.add_argument("--graph", required=True)
    d.add_argument("--algo", choices=DETECT_ALGOS, default="recursive")
    d.add_argument("--delta", type=int, default=2)
    d.add_argument("--small-threshold", type=int, default=None)
    d.add_argument("--stats", action="store_true")
    d.add_argument("--general", action="store_true",
                   help="input is 'n' plus 'i j' edge lines; apply the 3-copy construction")
    d.set_defaults(func=cmd_detect)

    m = sub.add_parser("multiply", help="Boolean matrix product of two matrix files")
    m.add_argument("--a", required=True)
    m.add_argument("--b", required=True)
    m.add_argument("--algo", choices=MULTIPLY_ALGOS, default="bitpacked")
    m.add_argument("--block", type=int, default=None)
    m.add_argument("--out", required=True)
    m.set_defaults(func=cmd_multiply)

    v = sub.add_parser("verify", help="randomized cross-validation against the oracles")
    v.add_argument("--seed", type=int, required=True)
    v.add_argument("--trials", type=int, required=True)
    v.add_argument("--max-size", type=int, required=True)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="CSV timings on random instances")
    b.add_argument("--sizes", required=True)
    b.add_argument("--densities", required=True)
    b.add_argument("--algos", required=True)
    b.add_argument("--delta", type=int, default=2)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(func=cmd_bench)

    s = sub.add_parser("stats-demo", help="run detect with the charging ledger enabled")
    s.add_argument("--graph", required=True)
    s.add_argument("--delta", type=int, default=2)
    s.set_defaults(func=cmd_stats_demo)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TableBudgetError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    except TrimatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a bug, not bad input: never reported as a parse error
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
