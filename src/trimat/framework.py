"""Generic triangle detection driven by a pluggable easy-part finder.

A finder receives a view and must hand back per-part subsets A', B', C'
covering prescribed fractions of the view, together with a truthful
`Verdict` for the induced subgraph, which names a witness when it is a
triangle.  The search engine in `detector` then owes the rest: it takes the
finder's verdict for the block and recurses on three views that partition
the remaining triples, so correctness holds for any contract-satisfying
finder.  This module polices that contract and re-exports the engine's
finder interface and the built-in `high_degree_finder`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import EasyPartFinder, FinderResult, _search, exhaustive_search
from .detector import high_degree_finder, step4_scan  # noqa: F401  (re-exported)
from .errors import FinderContractError
from .graph import RunStats, SubInstance, TripartiteGraph, Verdict
from .oracle import brute_triangle

DEBUG_VERIFY_VOLUME_CAP = 200_000


@dataclass
class FrameworkConfig:
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    small_volume_threshold: int | None = None
    debug_verify_finder: bool = False

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")
        if self.small_volume_threshold is not None and self.small_volume_threshold < 1:
            raise ValueError("small_volume_threshold must be at least 1")


def _required(frac: float, size: int) -> int:
    if size == 0:
        return 0
    # The epsilon absorbs float noise in frac*size; a positive fraction of a
    # nonempty part still must demand at least one vertex or the recursion
    # would stop shrinking.
    return max(1, math.ceil(frac * size - 1e-9))


def detect_with_finder(
    g: TripartiteGraph,
    finder: EasyPartFinder,
    cfg: FrameworkConfig | None = None,
    stats: RunStats | None = None,
) -> Verdict:
    """Run the three-way recursion around an easy-part finder."""
    cfg = cfg or FrameworkConfig()
    stats = stats if stats is not None else RunStats()
    threshold = cfg.small_volume_threshold
    if threshold is None:
        threshold = max(1, math.ceil((g.nA + g.nB + g.nC) ** 2.5))

    def leaf(sub: SubInstance) -> Verdict | None:
        if sub.na * sub.nb * sub.nc < threshold:
            return exhaustive_search(g, sub, stats)
        return None

    def check(res: FinderResult, sub: SubInstance) -> None:
        _validate(res, sub, cfg)
        if cfg.debug_verify_finder:
            _verify_truthfulness(g, res)

    return _search(g, leaf, finder, stats, check)


def _validate(
    res: FinderResult, sub: SubInstance, cfg: FrameworkConfig
) -> None:
    for name, got, have in (
        ("A'", res.a_part, sub.ia),
        ("B'", res.b_part, sub.ib),
        ("C'", res.c_part, sub.ic),
    ):
        if len(got) and not np.isin(got, have, assume_unique=True).all():
            raise FinderContractError(f"finder returned {name} not a subset of the view")
    if res.fraction_exempt:
        if len(res.a_part) == 0 or len(res.b_part) == 0 or len(res.c_part) == 0:
            raise FinderContractError("exempt finder output has an empty part")
        return
    for name, frac, got, size in (
        ("|A'| >= alpha|A|", cfg.alpha, len(res.a_part), sub.na),
        ("|B'| >= beta|B|", cfg.beta, len(res.b_part), sub.nb),
        ("|C'| >= gamma|C|", cfg.gamma, len(res.c_part), sub.nc),
    ):
        need = _required(frac, size)
        if got < need:
            raise FinderContractError(
                f"finder violated {name}: got {got}, need {need} of {size}"
            )


def _verify_truthfulness(g: TripartiteGraph, res: FinderResult) -> None:
    """Debug-mode spot check of the finder's verdict against brute force."""
    if res.verdict.found:
        a, b, c = res.verdict.witness
        if not (g.ab.get(a, b) and g.ac.get(a, c) and g.bc.get(b, c)):
            raise FinderContractError(f"finder witness {res.verdict.witness} is not a triangle")
        return
    vol = len(res.a_part) * len(res.b_part) * len(res.c_part)
    if vol > DEBUG_VERIFY_VOLUME_CAP:
        return
    block = SubInstance(g, res.a_part, res.b_part, res.c_part)
    if brute_triangle(g, block).found:
        raise FinderContractError("finder called a block triangle-free that is not")
