"""Self-test of the benchmark at toy sizes.  Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.load_program(run.ROOT)

import workloads as wl  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def toy(workload, trace, seed=5, seconds=0.3):
    return run.run_workload(workload, seed, seconds, trace, sizes=wl.TOY_SIZES)


def counters(lines) -> dict[tuple[str, str], dict[str, str]]:
    """(cycle, kind) -> counters, from the 'counters cycle=C KIND k=v ...' report lines."""
    out = {}
    for line in lines:
        if line.startswith("counters cycle="):
            _, cycle, kind, *pairs = line.split()
            out[(cycle, kind)] = dict(p.split("=") for p in pairs)
    return out


def test_spec_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.end_to_end_units(wl.KINDS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    result, lines = toy(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    for m in spec:
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    if not trace:
        for kind in wl.KINDS:
            assert any(line.startswith(f"{kind}_ms.p50 = ") and "not gated" in line
                       for line in lines)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert any(line.startswith("fail_ratio = 0.000000 ") for line in lines)


def test_wrong_reference_answer_is_a_failure(monkeypatch):
    real = wl.reference_has_triangle
    monkeypatch.setattr(wl, "reference_has_triangle", lambda *adj: not real(*adj))
    result, lines = toy("sparse-free", False)
    assert not result["correct"]
    # Every detect, framework and bmm_detect op now disagrees; the products still match.
    assert result["failed"] == 3 * result["attempted"] // 5
    assert any(line.startswith("FAILED ") and "reference" in line for line in lines)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counters_repeat_exactly(workload):
    plain_a = counters(toy(workload, False, seed=9)[1])
    plain_b = counters(toy(workload, False, seed=9)[1])
    traced_a = counters(toy(workload, True, seed=9)[1])
    traced_b = counters(toy(workload, True, seed=9)[1])
    for x, y in ((plain_a, plain_b), (traced_a, traced_b)):
        common = x.keys() & y.keys()
        assert common and all(x[k] == y[k] for k in common)
    for key in plain_a.keys() & traced_a.keys():
        assert plain_a[key] == {k: traced_a[key][k] for k in plain_a[key]}


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 26)]) == (15.0, 60.0)
    assert run.tail([float(x) for x in range(1, 22)]) == (11.0, 100.0 * 11 / 21)
    # Fewer samples: no percentile above the median has ten beyond it.
    assert run.tail([float(x) for x in range(1, 21)]) == (10.5, 50.0)
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse-free", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
