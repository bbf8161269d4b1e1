import os
import subprocess
import sys

import pytest

import trimat as tm
from trimat import cli
from trimat.cli import main


SINGLE_TRIANGLE = "1 1 1\nAB 0 0\nAC 0 0\nBC 0 0\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_detect_single_triangle_file(tmp_path, capsys):
    path = tmp_path / "tri.graph"
    path.write_text(SINGLE_TRIANGLE)
    code, out, _ = run(capsys, ["detect", "--graph", str(path)])
    assert code == 0
    assert out == "TRIANGLE 0 0 0\n"


@pytest.mark.parametrize("algo", ["recursive", "sparse", "framework", "bmm", "brute"])
def test_detect_all_algorithms_agree(tmp_path, capsys, algo):
    rng = tm.CounterRng(193)
    g = tm.random_tripartite(rng, 15, 15, 15, 0.1)
    path = tmp_path / "g.graph"
    path.write_text(tm.format_graph_text(g))
    code, out, _ = run(capsys, ["detect", "--graph", str(path), "--algo", algo])
    assert code == 0
    expect = tm.brute_triangle(g).found
    assert out.startswith("TRIANGLE ") == expect


def test_detect_stats_lines(tmp_path, capsys):
    path = tmp_path / "tri.graph"
    path.write_text(SINGLE_TRIANGLE)
    code, out, _ = run(capsys, ["detect", "--graph", str(path), "--stats"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "TRIANGLE 0 0 0"
    keys = [line.split("=")[0] for line in lines[1:]]
    assert keys == [
        "triples_enumerated",
        "pairs_charged",
        "recursion_nodes",
        "table_queries",
        "sparse_calls",
    ]


def test_detect_general_graph(tmp_path, capsys):
    path = tmp_path / "k3.edges"
    path.write_text("3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, ["detect", "--graph", str(path), "--general"])
    assert code == 0
    assert out.startswith("TRIANGLE ")


def test_multiply_identity_writes_canonical_file(tmp_path, capsys):
    rng = tm.CounterRng(197)
    m = tm.random_bitmatrix(rng, 9, 9, 0.4)
    a = tmp_path / "a.mat"
    b = tmp_path / "b.mat"
    out_path = tmp_path / "c.mat"
    a.write_text(tm.format_matrix_text(tm.identity(9)))
    b.write_text(tm.format_matrix_text(m))
    code, _, _ = run(capsys, ["multiply", "--a", str(a), "--b", str(b), "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == tm.format_matrix_text(m)


@pytest.mark.parametrize("algo", ["bitpacked", "via-triangle", "scalar"])
def test_multiply_algorithms_agree(tmp_path, capsys, algo):
    rng = tm.CounterRng(199)
    a = tm.random_bitmatrix(rng, 10, 10, 0.3)
    b = tm.random_bitmatrix(rng, 10, 10, 0.3)
    pa, pb, po = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    pa.write_text(tm.format_matrix_text(a))
    pb.write_text(tm.format_matrix_text(b))
    argv = ["multiply", "--a", str(pa), "--b", str(pb), "--out", str(po), "--algo", algo]
    if algo == "via-triangle":
        argv += ["--block", "3"]
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert po.read_text() == tm.format_matrix_text(tm.multiply_scalar_oracle(a, b))


@pytest.mark.parametrize("block", [[], ["--block", "3"]])
def test_multiply_via_triangle_rectangular_matches_bitpacked(tmp_path, capsys, block):
    rng = tm.CounterRng(223)
    pa, pb = tmp_path / "a", tmp_path / "b"
    pa.write_text(tm.format_matrix_text(tm.random_bitmatrix(rng, 2, 3, 0.5)))
    pb.write_text(tm.format_matrix_text(tm.random_bitmatrix(rng, 3, 2, 0.5)))
    outputs = []
    for algo, extra in (("bitpacked", []), ("via-triangle", block)):
        po = tmp_path / algo
        argv = ["multiply", "--a", str(pa), "--b", str(pb), "--out", str(po), "--algo", algo]
        code, _, _ = run(capsys, argv + extra)
        assert code == 0
        outputs.append(po.read_bytes())
    assert outputs[0] == outputs[1]


def test_multiply_output_is_byte_stable(tmp_path, capsys):
    rng = tm.CounterRng(211)
    a = tm.random_bitmatrix(rng, 8, 8, 0.5)
    b = tm.random_bitmatrix(rng, 8, 8, 0.5)
    pa, pb = tmp_path / "a", tmp_path / "b"
    pa.write_text(tm.format_matrix_text(a))
    pb.write_text(tm.format_matrix_text(b))
    outputs = []
    for name in ("c1", "c2"):
        po = tmp_path / name
        run(capsys, ["multiply", "--a", str(pa), "--b", str(pb), "--out", str(po)])
        outputs.append(po.read_bytes())
    assert outputs[0] == outputs[1]


def test_verify_small_run_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--seed", "7", "--trials", "25", "--max-size", "16"])
    assert code == 0
    assert out.endswith("all detectors and multipliers agree\n")


def test_verify_documented_scale_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--seed", "7", "--trials", "200", "--max-size", "48"])
    assert code == 0
    assert out.splitlines()[-1].startswith("OK 200 trials")


def test_verify_runs_the_finder_in_every_graph_trial(capsys, monkeypatch):
    from trimat import detector, framework

    calls = {"detect": 0, "framework": 0}

    def counting(kind, make_finder):
        def factory(*args, **kwargs):
            finder = make_finder(*args, **kwargs)

            def counted(g, sub, stats):
                calls[kind] += 1
                return finder(g, sub, stats)

            return counted

        return factory

    monkeypatch.setattr(detector, "high_degree_finder",
                        counting("detect", detector.high_degree_finder))
    monkeypatch.setattr(framework, "high_degree_finder",
                        counting("framework", framework.high_degree_finder))
    trial = cli._verify_graph_trial
    per_trial = []

    def counted_trial(*args):
        before = dict(calls)
        failure = trial(*args)
        per_trial.append({k: calls[k] - before[k] for k in calls})
        return failure

    monkeypatch.setattr(cli, "_verify_graph_trial", counted_trial)
    code, _, _ = run(capsys, ["verify", "--seed", "7", "--trials", "40", "--max-size", "24"])
    assert code == 0 and len(per_trial) == 40
    assert all(c["detect"] >= 1 and c["framework"] >= 1 for c in per_trial)


def test_verify_runs_the_finder_in_multiply_trials(capsys, monkeypatch):
    from trimat import detector

    calls = {"n": 0}
    make_finder = detector.high_degree_finder

    def counting(*args, **kwargs):
        finder = make_finder(*args, **kwargs)

        def counted(g, sub, stats):
            calls["n"] += 1
            return finder(g, sub, stats)

        return counted

    monkeypatch.setattr(detector, "high_degree_finder", counting)
    monkeypatch.setattr(cli, "_verify_graph_trial", lambda *args: None)
    code, _, _ = run(capsys, ["verify", "--seed", "7", "--trials", "40", "--max-size", "24"])
    assert code == 0
    assert calls["n"] > 0


def test_verify_catches_a_faulty_finder_in_a_multiply_trial(capsys, monkeypatch):
    from trimat import detector

    def blind_finder(*args, **kwargs):
        # settles every view as triangle-free without looking at it
        return lambda g, sub, stats: detector.FinderResult(sub.ia, sub.ib, sub.ic, tm.Verdict(False))

    monkeypatch.setattr(detector, "high_degree_finder", blind_finder)
    monkeypatch.setattr(cli, "_verify_graph_trial", lambda *args: None)
    code, out, _ = run(capsys, ["verify", "--seed", "7", "--trials", "40", "--max-size", "24"])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL"
    assert "via-triangle-deep product mismatch" in lines[2]


def test_verify_catches_step4_scan_skipping_its_last_row(capsys, monkeypatch):
    from trimat import detector

    scan = detector.step4_scan
    monkeypatch.setattr(detector, "step4_scan",
                        lambda g, b1, c1, v1, stats: scan(g, b1[:-1], c1, v1, stats))
    # without the deep multiply run the random stream is unchanged, so the
    # graph trials' verdict comparison is what reports the mutant
    monkeypatch.setattr(cli, "DEEP_MULTIPLY_MAX_SIDE", 0)
    code, out, _ = run(capsys, ["verify", "--seed", "1", "--trials", "10", "--max-size", "24"])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL"
    assert lines[2].startswith("trial 9: recursive-deep said False, brute force said True")


def test_verify_deep_multiply_catches_step4_scan_skipping_its_last_row(capsys, monkeypatch):
    from trimat import detector

    scan = detector.step4_scan
    monkeypatch.setattr(detector, "step4_scan",
                        lambda g, b1, c1, v1, stats: scan(g, b1[:-1], c1, v1, stats))
    code, out, _ = run(capsys, ["verify", "--seed", "1", "--trials", "10", "--max-size", "24"])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == "FAIL"
    # multiply trial 6 (n=7) runs the recursion past its leaf and meets the
    # mutant before graph trial 9's recursive-deep check does
    assert lines[2] == "trial 6: via-triangle-deep product mismatch at n=7, t=2"


def test_verify_reports_library_errors_as_a_failed_trial(capsys, monkeypatch):
    from trimat import detector

    def broken(*args):
        raise tm.InvariantError("broken scan")

    monkeypatch.setattr(detector, "step4_scan", broken)
    code, out, err = run(capsys, ["verify", "--seed", "7", "--trials", "5", "--max-size", "24"])
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert lines[1] == "FAIL"
    assert lines[2] == "trial 0: recursive-deep raised InvariantError('broken scan') on graph:"
    g = tm.parse_graph_text("\n".join(lines[3:]) + "\n")
    assert lines[3] == f"{g.nA} {g.nB} {g.nC}"


def test_bench_emits_csv(capsys):
    code, out, _ = run(
        capsys,
        ["bench", "--sizes", "8,12", "--densities", "0.1,0.9", "--algos", "recursive,brute"],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algo,n,density,millis,triples_enumerated,pairs_charged,table_queries"
    assert len(lines) == 1 + 2 * 2 * 2
    assert lines[1].startswith("recursive,8,0.1,")


def test_stats_demo(tmp_path, capsys):
    path = tmp_path / "tri.graph"
    path.write_text(SINGLE_TRIANGLE)
    code, out, _ = run(capsys, ["stats-demo", "--graph", str(path), "--delta", "2"])
    assert code == 0
    assert out.splitlines()[0] == "charged-pair uniqueness: OK"


def test_parse_error_names_line_and_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("2 2 2\nAB 0 0\nZZ 1 1\n")
    code, _, err = run(capsys, ["detect", "--graph", str(path)])
    assert code == 2
    assert "line 3" in err


@pytest.mark.parametrize(
    "text, line", [("3\n0 1\n1 2\n0 9\n", "line 4"), ("-2\n", "line 1")]
)
def test_general_graph_error_names_line_and_exits_2(tmp_path, capsys, text, line):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    code, _, err = run(capsys, ["detect", "--graph", str(path), "--general"])
    assert code == 2
    assert line in err


@pytest.mark.parametrize(
    "command, data, line",
    [
        # headers too large to allocate: refused at the first bad line, before any allocation
        ("detect", b"10000000000 1 1\nAB 0 5\n", "line 2"),
        ("multiply", b"1 10000000000000\n0\n", "line 2"),
        ("detect", b"1 1 1\nAB 0 0\n# caf\xc3\xa9\n", "line 3"),
        ("multiply", b"1 2\n0\xff\n", "line 2"),
        # headers whose matrices numpy cannot even index: refused at the header
        ("detect", b"99999999999999999999 1 1\nAB 0 0\n", "line 1"),
        ("detect --general", b"99999999999999999999\n0 1\n", "line 1"),
    ],
)
def test_bad_input_names_line_and_exits_2(tmp_path, capsys, command, data, line):
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    if command.startswith("detect"):
        argv = command.split() + ["--graph", str(path)]
    else:
        argv = ["multiply", "--a", str(path), "--b", str(path), "--out", str(tmp_path / "c")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert line in err


def test_allocation_failure_exits_3(tmp_path, capsys, monkeypatch):
    def out_of_memory(text):
        raise MemoryError

    monkeypatch.setattr(cli, "parse_graph_text", out_of_memory)
    path = tmp_path / "tri.graph"
    path.write_text(SINGLE_TRIANGLE)
    code, out, err = run(capsys, ["detect", "--graph", str(path)])
    assert code == 3
    assert out == ""
    assert "out of memory" in err


@pytest.mark.skipif(sys.platform != "linux", reason="needs an enforced address-space limit")
@pytest.mark.parametrize("flag, data", [("", "10000000000 1 1\nAB 0 0\n"), ("--general", "10000000\n0 1\n")])
def test_indexable_header_too_large_for_memory_exits_3(tmp_path, flag, data):
    # numpy can index these matrices, but a 4 GiB address space cannot map 75 GiB or 11 TiB
    import resource

    path = tmp_path / "huge.txt"
    path.write_text(data)
    limit = 4 << 30
    done = subprocess.run(
        [sys.executable, "-m", "trimat.cli", "detect", "--graph", str(path), *flag.split()],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert done.returncode == 3, done.stderr
    assert done.stdout == ""
    assert "Unable to allocate" in done.stderr


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, ["detect", "--graph", "/nonexistent/x.graph"])
    assert code == 2
    assert "error" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["detect"])  # missing required --graph
    assert exc.value.code == 2



@pytest.mark.parametrize("algo", ["sparse", "recursive"])
def test_table_over_budget_exits_3(tmp_path, capsys, algo):
    # 60 = 27 + 27 + 6 positions per side: (2*3304 + 42)**2 > 2**25 entries at delta=3
    path = tmp_path / "g.graph"
    path.write_text(tm.format_graph_text(tm.random_tripartite(tm.CounterRng(5), 60, 60, 60, 0.01)))
    code, out, err = run(
        capsys,
        ["detect", "--graph", str(path), "--algo", algo, "--delta", "3", "--small-threshold", "8"],
    )
    assert code == 3
    assert out == ""
    assert "lookup table would need 44222500 entries" in err


def test_stats_demo_reports_budget_error_not_violation(tmp_path, capsys, monkeypatch):
    def over_budget(*args, **kwargs):
        raise tm.TableBudgetError(10, 1)

    monkeypatch.setattr(cli.detector, "detect", over_budget)
    path = tmp_path / "tri.graph"
    path.write_text(SINGLE_TRIANGLE)
    code, out, err = run(capsys, ["stats-demo", "--graph", str(path)])
    assert code == 3
    assert "VIOLATED" not in out
    assert "lookup table would need 10 entries" in err


def test_internal_value_error_exits_1_not_as_bad_input(tmp_path, capsys, monkeypatch):
    from trimat import graph

    def broken(*args):
        raise ValueError("broken bulk pass")

    monkeypatch.setattr(graph, "_canonical_lines", broken)
    path = tmp_path / "tri.graph"
    path.write_text(SINGLE_TRIANGLE)
    code, out, err = run(capsys, ["detect", "--graph", str(path)])
    assert code == 1
    assert out == ""
    assert err.splitlines()[0] == "error: internal ValueError: broken bulk pass"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["detect", "--delta", "0"], "--delta must be at least 1"),
        (["detect", "--small-threshold", "0"], "--small-threshold must be at least 1"),
        (["multiply", "--a", "A23", "--b", "A23"], "dimension mismatch: 2x3 times 2x3"),
        (["multiply", "--a", "A23", "--b", "B32", "--algo", "via-triangle", "--block", "4"],
         "block side must lie in [1, 3], got 4"),
        (["bench", "--sizes", "4,x", "--densities", "0.5", "--algos", "brute"], "--sizes"),
        (["bench", "--sizes", "4", "--densities", "1.5", "--algos", "brute"], "--densities"),
        (["bench", "--sizes", "-4", "--densities", "0.5", "--algos", "brute"], "--sizes"),
        (["multiply", "--a", "A23", "--b", "B32", "--algo", "via-triangle", "--block", "0"],
         "block side must lie in [1, 3], got 0"),
        (["verify", "--seed", "1", "--trials", "3", "--max-size", "-5"],
         "--max-size must be at least 1, got -5"),
        (["verify", "--seed", "1", "--trials", "3", "--max-size", "0"],
         "--max-size must be at least 1, got 0"),
        (["verify", "--seed", "1", "--trials", "-2", "--max-size", "4"],
         "--trials must be at least 1, got -2"),
    ],
)
def test_bad_flag_values_exit_2_before_any_output(tmp_path, capsys, argv, message):
    (tmp_path / "A23").write_text("2 3\n011\n101\n")
    (tmp_path / "B32").write_text("3 2\n01\n11\n10\n")
    (tmp_path / "g").write_text(SINGLE_TRIANGLE)
    argv = [str(tmp_path / a) if a in ("A23", "B32") else a for a in argv]
    if argv[0] == "detect":
        argv += ["--graph", str(tmp_path / "g")]
    if argv[0] == "multiply":
        argv += ["--out", str(tmp_path / "c")]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err
