"""Acceptance suite: one test per top-level criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.
"""

import time

import numpy as np
import pytest

import trimat as tm
from trimat.cli import main as cli_main
from trimat.four_russians import build_pair_table

from .conftest import assert_witness_valid, subsets_in_slot_order

DENSITIES = (0.02, 0.1, 0.3, 0.7, 1.0)


def _report(ok: bool, criterion: int, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _random_dims(rng, lo, hi):
    span = hi - lo + 1
    return tuple(lo + rng.next_below(span) for _ in range(3))


# -- criterion 1: oracle equivalence, detection ----------------------------

def test_c1_detection_matches_oracle():
    rng = tm.CounterRng(20260808)
    finder = tm.high_degree_finder(2)
    forced = tm.FrameworkConfig(small_volume_threshold=1)
    mismatches = 0
    trials = 0
    sparse_runs = 0
    for density in DENSITIES:
        for _ in range(200):
            trials += 1
            na, nb, nc = _random_dims(rng, 1, 60)
            g = tm.random_tripartite(rng, na, nb, nc, density)
            expect = tm.brute_triangle(g)
            verdicts = [
                tm.detect(g),
                tm.detect_with_finder(g, finder),
                tm.detect_with_finder(g, finder, forced),
                tm.triangle_via_bmm(g),
            ]
            if tm.check_degree_condition(g, g.full_view(), 2) is None:
                sparse_runs += 1
                verdicts.append(
                    tm.sparse_detect(g, g.full_view(), 2, tm.RunStats())
                )
            for v in verdicts:
                if v.found != expect.found:
                    mismatches += 1
                elif v.found:
                    assert_witness_valid(g, v)
    _report(
        mismatches == 0 and trials >= 1000,
        1,
        f"{trials} graphs x all detectors vs brute force, {mismatches} mismatches "
        f"({sparse_runs} satisfied the sparse precondition)",
    )


# -- criterion 2: oracle equivalence, BMM -----------------------------------

def test_c2_bmm_matches_oracle():
    rng = tm.CounterRng(31337)
    mismatches = 0
    trials = 0
    t_choices = ("1", "2", "4", "cbrt")
    caps = {"1": 14, "2": 28, "4": 64, "cbrt": 64}
    for i in range(200):
        kind = t_choices[i % 4]
        n = 1 + rng.next_below(caps[kind])
        if kind == "cbrt":
            t = tm.default_block_side(n)
        else:
            t = min(int(kind), n)
        density = DENSITIES[rng.next_below(len(DENSITIES))]
        a = tm.random_bitmatrix(rng, n, n, density)
        b = tm.random_bitmatrix(rng, n, n, density)
        expect = tm.multiply_scalar_oracle(a, b)
        trials += 1
        if tm.multiply_bitpacked(a, b) != expect:
            mismatches += 1
        if tm.bmm_via_triangle(a, b, t) != expect:
            mismatches += 1
    _report(
        mismatches == 0 and trials >= 200,
        2,
        f"{trials} matrix pairs, block sides 1/2/4/ceil(n^(1/3)), {mismatches} mismatches",
    )


# -- criteria 3 and 4 share one instrumented suite ---------------------------

@pytest.fixture(scope="module")
def charged_suite():
    rng = tm.CounterRng(424242)
    records = []
    for i in range(200):
        na, nb, nc = _random_dims(rng, 1, 50)
        density = DENSITIES[rng.next_below(len(DENSITIES))]
        g = tm.random_tripartite(rng, na, nb, nc, density)
        threshold = 2 if i % 2 else None  # alternate forced recursion / defaults
        cfg = tm.DetectorConfig(delta=2, small_threshold=threshold, debug_charge_check=True)
        stats = tm.RunStats()
        tm.detect(g, cfg, stats)  # duplicate charging raises InvariantError
        records.append(((na, nb, nc), stats))
    return records


def test_c3_charging_is_unique(charged_suite):
    charged_any = sum(1 for _, stats in charged_suite if stats.pairs_charged > 0)
    _report(
        len(charged_suite) >= 200,
        3,
        f"{len(charged_suite)} instrumented runs, 0 duplicate charges "
        f"({charged_any} charged at least one pair)",
    )


def test_c4_triples_bounded_by_root_volume(charged_suite):
    violations = sum(
        1
        for (na, nb, nc), stats in charged_suite
        if stats.triples_enumerated > na * nb * nc
    )
    _report(
        violations == 0,
        4,
        f"triples_enumerated <= |A||B||C| on all {len(charged_suite)} runs, "
        f"{violations} violations",
    )


# -- criterion 5: lookup table correctness ----------------------------------

def test_c5_pair_table_matches_exhaustive_checking():
    rng = tm.CounterRng(555)
    # entry verification is a scalar double loop per entry, quadratic in the
    # per-side subset count, so larger deltas get smaller sides
    plans = [(1, 60), (1, 60), (2, 60), (2, 60), (3, 16), (3, 14)]
    mismatches = 0
    entries = 0
    for delta, cap in plans:
        nb = 1 + rng.next_below(cap)
        nc = 1 + rng.next_below(cap)
        density = DENSITIES[rng.next_below(len(DENSITIES))]
        g = tm.random_tripartite(rng, 1, nb, nc, density)
        ib, ic = np.arange(nb), np.arange(nc)
        table = build_pair_table(g, ib, ic, delta)
        subsets_b = subsets_in_slot_order(nb, delta)
        subsets_c = subsets_in_slot_order(nc, delta)
        assert table.entries.shape == (len(subsets_b), len(subsets_c))
        for sb, ob in enumerate(subsets_b):
            for sc, oc in enumerate(subsets_c):
                entries += 1
                expect = any(g.bc.get(int(ib[u]), int(ic[w])) for u in ob for w in oc)
                if bool(table.entries[sb, sc]) != expect:
                    mismatches += 1
    _report(
        mismatches == 0,
        5,
        f"delta in {{1,2,3}}, {entries} table entries vs exhaustive subset pairs, "
        f"{mismatches} mismatches",
    )


# -- criterion 6: three-way split coverage -----------------------------------

def test_c6_three_way_split_covers_every_node():
    rng = tm.CounterRng(606)
    finder = tm.high_degree_finder(2)
    cfg = tm.FrameworkConfig(small_volume_threshold=1)
    nodes = 0
    instances = 100
    # mostly sparse instances so plenty of nodes survive to the split
    split_densities = (0.02, 0.05, 0.1, 0.3)
    for _ in range(instances):
        na, nb, nc = _random_dims(rng, 1, 30)
        density = split_densities[rng.next_below(len(split_densities))]
        g = tm.random_tripartite(rng, na, nb, nc, density)
        stats = tm.RunStats()
        # the driver recomputes |A||B||C| = sum of the four blocks at every
        # recursion node and raises InvariantError on any mismatch
        tm.detect_with_finder(g, finder, cfg, stats)
        nodes += stats.recursion_nodes
    splits = (nodes - instances) // 3  # every split adds exactly three children
    _report(
        nodes >= instances and splits > 0,
        6,
        f"coverage identity held at all {splits} split nodes "
        f"({nodes} recursion nodes, {instances} instances), 0 violations",
    )


# -- criterion 7: degree guarantee at Step 2 ---------------------------------

def test_c7_selected_vertex_violates_degree_bound():
    rng = tm.CounterRng(707)
    delta = 2
    selections = 0
    for _ in range(200):
        na, nb, nc = _random_dims(rng, 1, 50)
        g = tm.random_tripartite(rng, na, nb, nc, 0.7)
        sub = g.full_view()
        v1 = tm.check_degree_condition(g, sub, delta)
        if v1 is not None:
            selections += 1
            db = tm.degree(g, sub, v1, "B")
            dc = tm.degree(g, sub, v1, "C")
            assert db * dc * delta * delta > nb * nc
        # the recursive detector re-asserts the same inequality at every
        # selection and raises InvariantError if it ever fails
        tm.detect(g, tm.DetectorConfig(delta=delta, small_threshold=2))
    _report(
        selections > 0,
        7,
        f"degree guarantee held at every selection ({selections} root selections "
        "verified independently, recursion asserts internally)",
    )


# -- criterion 8: word-parallelism sanity -------------------------------------

def test_c8_bitpacked_multiply_is_fast():
    rng = tm.CounterRng(808)
    n = 2048
    a = tm.random_bitmatrix(rng, n, n, 0.5)
    b = tm.random_bitmatrix(rng, n, n, 0.5)

    start = time.perf_counter()
    fast = tm.multiply_bitpacked(a, b)
    fast_s = time.perf_counter() - start

    start = time.perf_counter()
    slow = tm.multiply_scalar_oracle(a, b)
    slow_s = time.perf_counter() - start

    ratio = slow_s / fast_s if fast_s > 0 else float("inf")
    _report(
        fast == slow and ratio >= 8.0,
        8,
        f"2048x2048 dense: bitpacked {fast_s:.3f}s vs scalar {slow_s:.2f}s "
        f"= {ratio:.1f}x (need >= 8x), outputs equal",
    )


# -- criterion 9: determinism of verify ---------------------------------------

def test_c9_verify_output_is_byte_identical(capsys):
    outputs = {}
    for seed in (7, 1234):
        runs = []
        for _ in range(2):
            code = cli_main(
                ["verify", "--seed", str(seed), "--trials", "40", "--max-size", "24"]
            )
            out = capsys.readouterr().out
            runs.append((code, out))
        outputs[seed] = runs
    ok = all(runs[0] == runs[1] and runs[0][0] == 0 for runs in outputs.values())
    _report(
        ok,
        9,
        "verify repeated with seeds 7 and 1234: exit 0 and byte-identical output",
    )
