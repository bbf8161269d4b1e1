"""Benchmark workloads: instance generation, input files, references and output checks.

Every cycle of a run draws a fresh instance from one ``CounterRng`` stream seeded with
the workload seed, so a seed fixes every input of a run, and no two ops of a run read
the same graph.  An instance feeds one op of each kind:

    detect        trimat detect --graph G --stats
    framework     trimat detect --graph G --algo framework --stats
    bmm_detect    trimat detect --graph G --algo bmm --stats
    multiply      trimat multiply --a A --b B --out C
    via_triangle  trimat multiply --a A --b B --algo via-triangle --out C

The references are plain numpy products of unpacked 0/1 arrays.  They share no code with
the library paths the ops run, and matrix input files are written here with numpy rather
than with the library's formatter, so a formatter bug cannot hide a parser bug.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from trimat import bitmat, graph, randgen

KINDS = ("detect", "framework", "bmm_detect", "multiply", "via_triangle")
DETECT_KINDS = ("detect", "framework", "bmm_detect")
STATS_KEYS = (
    "triples_enumerated",
    "pairs_charged",
    "recursion_nodes",
    "table_queries",
    "sparse_calls",
)
DELTA = 2  # the CLI's default --delta; sparse-free is built to satisfy its degree bound

# (graph / product side n, via-triangle side) per workload.  TOY_SIZES serve the self-test.
SIZES = {"sparse-free": (256, 32), "two-class": (256, 32), "multiply": (2048, 48)}
TOY_SIZES = {"sparse-free": (64, 16), "two-class": (48, 16), "multiply": (96, 16)}


@dataclass
class Op:
    kind: str
    argv: list[str]
    expect: object  # bool (graph has a triangle) or the expected 0/1 product array
    out: Path | None = None


@dataclass
class Instance:
    ops: list[Op]
    adjacency: tuple[np.ndarray, np.ndarray, np.ndarray]  # unpacked AB, AC, BC
    digests: dict[str, str] = field(default_factory=dict)  # input file name -> sha256


def unpacked(m: bitmat.BitMatrix) -> np.ndarray:
    words = np.ascontiguousarray(m.words2d).view(np.uint8)
    return np.unpackbits(words, axis=1, bitorder="little")[:, : m.cols]


def packed(arr: np.ndarray) -> bitmat.BitMatrix:
    rows, cols = arr.shape
    m = bitmat.BitMatrix(rows, cols)
    pad = np.zeros((rows, m.words_per_row * 64), dtype=np.uint8)
    pad[:, :cols] = arr
    m.data[:] = np.packbits(pad, axis=1, bitorder="little").view(np.uint64).ravel()
    return m


def draw(rng: randgen.CounterRng, rows: int, cols: int, density: float) -> np.ndarray:
    return unpacked(randgen.random_bitmatrix(rng, rows, cols, density))


def boolean_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """0/1 product by a float32 matmul; exact while the inner size stays below 2**24."""
    return ((a.astype(np.float32) @ b.astype(np.float32)) > 0).astype(np.uint8)


def reference_has_triangle(ab: np.ndarray, ac: np.ndarray, bc: np.ndarray) -> bool:
    return bool((boolean_product(ab, bc) & ac).any())


# -- instance families ---------------------------------------------------------------
# Each returns (AB, AC, BC) for the graph ops, the pair for multiply, and the pair for
# via_triangle, all as unpacked 0/1 arrays.


def sparse_free(rng, n: int, v: int):
    """AB=a, BC=b at density 0.01 and AC = not(a.b): triangle-free, and sparse enough
    that no A-vertex breaks the degree bound, so detect never leaves Step 1."""
    a = draw(rng, n, n, 0.01)
    b = draw(rng, n, n, 0.01)
    ac = 1 - boolean_product(a, b)
    deg_b = a.sum(axis=1, dtype=np.int64)
    deg_c = ac.sum(axis=1, dtype=np.int64)
    if np.any(deg_b * deg_c * DELTA * DELTA > n * n):
        raise RuntimeError("sparse-free instance breaks the degree bound")
    return (a, ac, b), (a, b), (a[:v, :v], b[:v, :v])


def two_class(rng, n: int, v: int):
    """Class-0 A-vertices see ~90% of B and of the lower half of C; class-1 ones see
    ~90% of the lower half of B and of C.  BC keeps only the pairs no A-vertex covers
    (upper B x upper C), so the graph is triangle-free while every vertex is dense."""
    half = n // 2
    cls = draw(rng, 1, n, 0.5)[0].astype(bool)
    ab = draw(rng, n, n, 0.9)
    ac = draw(rng, n, n, 0.9)
    ab[cls, half:] = 0
    ac[~cls, half:] = 0
    bc = draw(rng, n, n, 0.3)
    bc[boolean_product(ab.T, ac) == 1] = 0
    if not bc.any():
        raise RuntimeError("two-class instance has no B-C edge")
    via = (np.ascontiguousarray(ab[:v, n - v :]), np.ascontiguousarray(bc[n - v :, n - v :]))
    return (ab, ac, bc), (ab, bc), via


def dense_multiply(rng, n: int, v: int):
    """a at density 0.5 times b at density 0.0007 (a product about half ones), plus a
    via-triangle pair at 0.1 whose graph form (AC drawn at 0.1) has triangles."""
    a = draw(rng, n, n, 0.5)
    b = draw(rng, n, n, 0.0007)
    va = draw(rng, v, v, 0.1)
    vb = draw(rng, v, v, 0.1)
    vac = draw(rng, v, v, 0.1)
    return (va, vac, vb), (a, b), (va, vb)


FAMILIES = {"sparse-free": sparse_free, "two-class": two_class, "multiply": dense_multiply}


# -- input files -------------------------------------------------------------------


def matrix_text(arr: np.ndarray) -> bytes:
    """The 'R C' + 0/1-rows matrix format, written with numpy."""
    rows, cols = arr.shape
    body = np.full((rows, cols + 1), ord("\n"), dtype=np.uint8)
    body[:, :cols] = arr + ord("0")
    return f"{rows} {cols}\n".encode("ascii") + body.tobytes()


def read_matrix(path: Path) -> np.ndarray:
    """Parse an output matrix file; raises ValueError on any deviation from the format."""
    data = path.read_bytes()
    head, _, body = data.partition(b"\n")
    rows, cols = (int(x) for x in head.split())
    if len(body) != rows * (cols + 1):
        raise ValueError(f"{path.name}: {len(body)} body bytes for a {rows}x{cols} matrix")
    grid = np.frombuffer(body, dtype=np.uint8).reshape(rows, cols + 1)
    if np.any(grid[:, cols] != ord("\n")):
        raise ValueError(f"{path.name}: a row has the wrong length")
    bits = grid[:, :cols] - ord("0")
    if np.any(bits > 1):
        raise ValueError(f"{path.name}: a character other than 0/1")
    return bits


def _write(directory: Path, name: str, data: bytes, digests: dict[str, str]) -> str:
    path = directory / name
    path.write_bytes(data)
    digests[name] = hashlib.sha256(data).hexdigest()
    return str(path)


def build_instance(workload: str, rng, size: tuple[int, int], directory: Path) -> Instance:
    """Draw one instance, write its input files into `directory`, compute its references."""
    n, v = size
    (ab, ac, bc), (ma, mb), (va, vb) = FAMILIES[workload](rng, n, v)
    directory.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}
    g = graph.TripartiteGraph(
        ab.shape[0], ab.shape[1], ac.shape[1], ab=packed(ab), ac=packed(ac), bc=packed(bc)
    )
    gpath = _write(directory, "g.graph", graph.format_graph_text(g).encode("ascii"), digests)
    paths = {
        name: _write(directory, name, matrix_text(arr), digests)
        for name, arr in (("ma.mat", ma), ("mb.mat", mb), ("va.mat", va), ("vb.mat", vb))
    }
    found = reference_has_triangle(ab, ac, bc)
    mout, vout = directory / "mc.mat", directory / "vc.mat"
    ops = [
        Op("detect", ["detect", "--graph", gpath, "--stats"], found),
        Op("framework", ["detect", "--graph", gpath, "--algo", "framework", "--stats"], found),
        Op("bmm_detect", ["detect", "--graph", gpath, "--algo", "bmm", "--stats"], found),
        Op(
            "multiply",
            ["multiply", "--a", paths["ma.mat"], "--b", paths["mb.mat"], "--out", str(mout)],
            boolean_product(ma, mb),
            mout,
        ),
        Op(
            "via_triangle",
            ["multiply", "--a", paths["va.mat"], "--b", paths["vb.mat"],
             "--algo", "via-triangle", "--out", str(vout)],
            boolean_product(va, vb),
            vout,
        ),
    ]
    return Instance(ops, (ab, ac, bc), digests)


# -- output checks -----------------------------------------------------------------


def check_op(op: Op, inst: Instance, code, stdout: str) -> tuple[str | None, dict[str, int]]:
    """Return (failure reason or None, RunStats counters printed by a detect op)."""
    if code != 0:
        return f"exit code {code}", {}
    if op.kind not in DETECT_KINDS:
        try:
            got = read_matrix(op.out)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}", {}
        if got.shape != op.expect.shape or not np.array_equal(got, op.expect):
            return "product differs from the reference", {}
        return None, {}

    lines = stdout.splitlines()
    if not lines:
        return "no verdict line", {}
    counters = {}
    for line in lines[1:]:
        key, sep, value = line.partition("=")
        if not sep or not value.isdigit():
            return f"bad stats line {line!r}", {}
        counters[key] = int(value)
    if tuple(counters) != STATS_KEYS:
        return f"stats keys {list(counters)}", counters
    verdict = lines[0].split()
    if verdict == ["TRIANGLE-FREE"]:
        found = False
    elif len(verdict) == 4 and verdict[0] == "TRIANGLE" and all(x.isdigit() for x in verdict[1:]):
        found = True
    else:
        return f"bad verdict line {lines[0]!r}", counters
    if found != op.expect:
        return f"verdict {found}, reference {op.expect}", counters
    if found:
        a, b, c = (int(x) for x in verdict[1:])
        ab, ac, bc = inst.adjacency
        inside = a < ab.shape[0] and b < ab.shape[1] and c < ac.shape[1]
        if not (inside and ab[a, b] and ac[a, c] and bc[b, c]):
            return f"witness ({a}, {b}, {c}) is not a triangle", counters
    return None, counters
