"""Prime-divisor experiments over windows of primes.

Gamma(X) denotes the set of admissible primes dividing some term of the
sequence carried by X.  This module sweeps such sets over a window of
primes — either the first K odd primes or the odd primes below a bound —
and packages the bookkeeping the experiments need: the six-way partition of
Gamma(X**2), the cubic three-way partition of Gamma(S), and the
even/odd-part independence reports whose published reference densities are
kept in TABLE3_ROWS.

Densities come in two conventions, because "share of the first 1200 primes"
can count the window primes outside the admissible set in the denominator
("all") or drop them ("pi_t"); both are computed everywhere.

Long sweeps run on a pool of worker processes that `_pooled` starts and
stops: `divisor_flags` hands it chunks of one sweep, `table3` whole rows.
A pool worker's own sweeps run serially (see `_cpus`).
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import DegenerateParameterError, InvariantError
from .rational import format_rational, is_rational_square
from .ring import ParamPair, RationalLike, make_element, _frac
from .transforms import cubic_class, is_simple, phi
from .group import GroupElement, class_c, class_w, class_v, reduce_element
from .modp import _one_param_t, divisor_table, exclusion_modulus
from .primes import first_odd_primes, odd_primes_below

CONVENTIONS = ("pi_t", "all")

CSV_HEADER = (
    "T", "Q", "x0", "x1",
    "density_X", "density_WX", "density_intersection", "density_product",
    "window_mode", "window_size", "convention",
)

# (T, Q, x0, x1) rows with reference densities (|G_X|, |G_WX|, |G_X & G_WX|,
# product) as published for the first 1200 primes.
TABLE3_ROWS: Tuple[Tuple[int, int, int, int, Tuple[float, float, float, float]], ...] = (
    (5, 3, 17, 11, (0.356, 0.356, 0.126, 0.127)),
    (4, 11, 3, 8, (0.328, 0.334, 0.111, 0.110)),
    (3, 7, 2, 5, (0.357, 0.355, 0.123, 0.127)),
    (3, -2, 4, 15, (0.353, 0.340, 0.116, 0.120)),
    (7, 11, 3, 2, (0.340, 0.340, 0.115, 0.116)),
    (2, -5, 3, 14, (0.343, 0.339, 0.111, 0.116)),
)


@dataclass(frozen=True)
class PrimeWindow:
    """A window of odd primes: the first `size` of them, or those below `size`."""

    mode: str = "first"
    size: int = 1200

    def __post_init__(self) -> None:
        if self.mode not in ("first", "below"):
            raise ValueError("window mode must be 'first' or 'below', got %r" % self.mode)
        if self.size < 1:
            raise ValueError("window size must be positive")
        # the 10**6-th odd prime is 15 485 867: no window sieves past 16 million
        if self.size > (10**6 if self.mode == "first" else 16_000_000):
            raise ValueError("window size is capped at first:1000000 and below:16000000")

    @classmethod
    def parse(cls, text: str) -> "PrimeWindow":
        """Parse "first:K", "below:B" or a bare count "K"."""
        text = text.strip()
        if ":" in text:
            mode, _, num = text.partition(":")
            return cls(mode=mode.strip(), size=int(num))
        return cls(mode="first", size=int(text))

    def primes(self) -> List[int]:
        return list(self._sieved)

    @cached_property
    def _sieved(self) -> Tuple[int, ...]:
        # one sieve per window object, shared by every sweep made with it
        sieve = first_odd_primes if self.mode == "first" else odd_primes_below
        return tuple(sieve(self.size))

    def __reduce__(self):
        # it crosses a process boundary as mode and size: no cached primes
        return PrimeWindow, (self.mode, self.size)

    def to_dict(self) -> dict:
        return {"mode": self.mode, "size": self.size}


def window_split(t: RationalLike, window: PrimeWindow) -> Tuple[List[int], List[int]]:
    """Split the window into (admissible, excluded) primes for t.

    Window primes come from the sieve and are odd, so each needs only the
    remainder of exclusion_modulus(t).
    """
    t = _frac(t)
    modulus = exclusion_modulus(t.numerator, t.denominator)
    eligible, excluded = [], []
    for p in window._sieved:
        (eligible if modulus % p else excluded).append(p)
    return eligible, excluded


# A sweep of fewer (t, p) rows than this, one per distinct t and window
# prime, runs serially, and so does table3 over fewer than its six rows
# times the window's primes: starting a pool eats what it saves there.  On
# 2 vCPUs (whole `--format json` processes, medians of 7 interleaved pairs
# against a run pinned to one CPU) `table3 --full` took 0.37 s on its row
# pool against 0.55 s serially at first:3500, 6 x 3 500 = 21 000 rows (won
# 7 of 7), while a one-element `divisors` sweep, one row per prime, lost on
# its chunk pool at first:5000 (0.195 against 0.169 s) and first:10000
# (0.253 against 0.220 s, won 0 of 7 at each), and only from first:15000
# to first:25000 won 3 to 5 pairs of 7.
POOL_MIN_ROWS = 21000


def _cpus() -> int:
    """The CPUs a pool may use: the affinity mask's where there is one, else
    the host's; one in a daemonic process, which may not start processes."""
    if multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _pooled(func, jobs: list, workers: int) -> list:
    """[func(*job) for job in jobs] on a pool that is stopped before this returns."""
    pool = multiprocessing.Pool(workers)
    try:
        return pool.starmap(func, jobs)
    finally:
        pool.terminate()


def divisor_flags(elements: Sequence[GroupElement], primes: Sequence[int]) -> List[Tuple[bool, ...]]:
    """Per-prime divisor membership for each element, in window order.

    With at least POOL_MIN_ROWS rows (primes times distinct t) and more
    than one CPU to run on (see `_cpus`), the prime list is cut into at
    most four chunks per CPU on a pool of one worker per CPU; chunk results
    are merged in order, so the output is identical to the serial run.
    """
    cpus = _cpus()
    if cpus == 1 or len(primes) * len({x.ctx.T for x in elements}) < POOL_MIN_ROWS:
        return divisor_table(elements, primes)
    chunk = -(-len(primes) // (4 * cpus))
    jobs = [(elements, primes[i : i + chunk]) for i in range(0, len(primes), chunk)]
    return [row for part in _pooled(divisor_table, jobs, cpus) for row in part]


_SWEEP_CLASSES = "divisor sweeps take one-parameter classes"


def sweep(
    elements: Sequence[GroupElement], window: PrimeWindow,
) -> Tuple[List[int], List[int], List[Tuple[bool, ...]]]:
    """(admissible, excluded, flags): the window split for the parameter t
    of the first element, a one-parameter class, and the divisor flags of
    every element over the admissible primes."""
    eligible, excluded = window_split(_one_param_t(elements[0], _SWEEP_CLASSES), window)
    return eligible, excluded, divisor_flags(elements, eligible)


def gamma(x: GroupElement, window: PrimeWindow) -> Tuple[int, ...]:
    """The divisor set of x restricted to the window's admissible primes."""
    eligible, _, flags = sweep([x], window)
    return tuple(p for p, (hit,) in zip(eligible, flags) if hit)


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Partition:
    """A divisor set over a window, split into named cells.

    A subclass adds one last field, the covered set the cells partition;
    the document lists it between the cells and their counts.
    """

    t: Fraction
    window: PrimeWindow
    eligible_count: int
    excluded: Tuple[int, ...]
    cells: Dict[str, Tuple[int, ...]]

    def to_dict(self) -> dict:
        covered = fields(self)[-1].name
        return {
            "t": format_rational(self.t),
            "window": self.window.to_dict(),
            "eligible": self.eligible_count,
            "excluded": list(self.excluded),
            "cells": {k: list(v) for k, v in self.cells.items()},
            covered: list(getattr(self, covered)),
            "cell_counts": {k: len(v) for k, v in self.cells.items()},
        }


@dataclass(frozen=True)
class SixPartition(_Partition):
    """The six pairwise intersections partitioning Gamma(X**2).

    Keys pair up the four translates X, CX, WX, VX; each admissible window
    prime dividing X**2 lands in exactly one cell.
    """

    gamma_square: Tuple[int, ...]


_SIX_CELLS = (
    ("x_cx", 0, 1), ("x_wx", 0, 2), ("x_vx", 0, 3),
    ("wx_vx", 2, 3), ("cx_wx", 1, 2), ("cx_vx", 1, 3),
)


def _cell_of(p: int, hits: List[str], covered: bool, label: str, covered_set: str) -> Optional[str]:
    """The one cell holding p, or None: p lies in exactly one cell when it
    is in the covered set and in none otherwise."""
    if len(hits) > 1:
        raise InvariantError("%s cells overlap at p = %d: %s" % (label, p, hits))
    if bool(hits) != covered:
        raise InvariantError("%s does not match Gamma(%s) at p = %d" % (label, covered_set, p))
    return hits[0] if hits else None


def partition_six(x: GroupElement, window: PrimeWindow) -> SixPartition:
    """Partition Gamma(X**2) into the six translate intersections.

    Verifies, prime by prime, that the cells are disjoint, that they cover
    Gamma(X**2), and that the three cells avoiding X land inside the
    matching basis divisor sets (wx_vx in Gamma(C), cx_wx in Gamma(V),
    cx_vx in Gamma(W)); any violation is a genuine arithmetic failure.
    """
    t = _one_param_t(x, _SWEEP_CLASSES)
    ctx = x.ctx
    c, w, v = class_c(ctx), class_w(t), class_v(t)
    elements = [x, c * x, w * x, v * x, x * x, c, w, v]
    eligible, excluded, flags = sweep(elements, window)

    cells: Dict[str, List[int]] = {name: [] for name, _, _ in _SIX_CELLS}
    gamma_sq: List[int] = []
    guards = {"wx_vx": 5, "cx_wx": 7, "cx_vx": 6}  # C, V, W flag columns
    for p, row in zip(eligible, flags):
        if row[4]:
            gamma_sq.append(p)
        hits = [name for name, i, j in _SIX_CELLS if row[i] and row[j]]
        cell = _cell_of(p, hits, row[4], "partition", "X^2")
        if cell is not None:
            cells[cell].append(p)
            if cell in guards and not row[guards[cell]]:
                raise InvariantError("subset relation fails at p = %d for cell %s" % (p, cell))
    return SixPartition(
        t=t, window=window, eligible_count=len(eligible), excluded=tuple(excluded),
        cells={k: tuple(vv) for k, vv in cells.items()}, gamma_square=tuple(gamma_sq),
    )


@dataclass(frozen=True)
class CubicPartition(_Partition):
    """Gamma(S) split into Gamma(WS), Gamma(Y) and Gamma(WY) for cubic t."""

    gamma_s: Tuple[int, ...]


def cubic_partition(t: RationalLike, window: PrimeWindow) -> CubicPartition:
    """For cubic t, partition Gamma(S) into Gamma(WS), Gamma(Y), Gamma(WY).

    S = [2, t+f] is an order-3 class, so Gamma(S**2) = Gamma(S); the C/W/V
    translate partition collapses to three cells.  C*S falls in the class of
    Z = Y^{-1}, whose divisor set equals Gamma(Y); the partition is built
    from Y directly and cross-checked against C*S prime by prime.
    """
    t = _frac(t)
    f = cubic_class(t).f
    ctx = ParamPair.one_param(t)
    s = GroupElement.from_pair(ctx, 2, t + f)
    y = GroupElement.from_pair(ctx, 2, t + 3 * f)
    w = class_w(t)
    c = class_c(ctx)
    elements = [s, w * s, y, w * y, c * s]
    eligible, excluded, flags = sweep(elements, window)

    cells: Dict[str, List[int]] = {"ws": [], "y": [], "wy": []}
    gamma_s: List[int] = []
    for p, row in zip(eligible, flags):
        in_s, in_ws, in_y, in_wy, in_cs = row
        if in_y != in_cs:
            raise InvariantError("Gamma(CS) differs from Gamma(Y) at p = %d" % p)
        if in_s:
            gamma_s.append(p)
        hits = [name for name, flag in (("ws", in_ws), ("y", in_y), ("wy", in_wy)) if flag]
        cell = _cell_of(p, hits, in_s, "cubic partition", "S")
        if cell is not None:
            cells[cell].append(p)
    return CubicPartition(
        t=t, window=window, eligible_count=len(eligible), excluded=tuple(excluded),
        cells={k: tuple(vv) for k, vv in cells.items()}, gamma_s=tuple(gamma_s),
    )


# ---------------------------------------------------------------------------
# independence reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityReport:
    """Divisor densities of the even/odd parts of a (T, Q)-sequence.

    The sequence [x0, x1] over a simple pair (T, Q) splits into the class
    X = [Q*x0, x2] over t = T**2/Q - 2; Gamma(X) collects the primes
    dividing some even-indexed term, Gamma(WX) the odd-indexed ones.  The
    heuristic under test is the independence |G_X & G_WX| ~ |G_X|*|G_WX|.
    """

    T: int
    Q: int
    x0: int
    x1: int
    t: Fraction
    window: PrimeWindow
    total_primes: int
    eligible_count: int
    excluded: Tuple[int, ...]
    count_x: int
    count_wx: int
    count_both: int
    det_part: Fraction
    det_part_square: bool
    q_square: bool
    qdet_square: bool
    reference: Optional[Tuple[float, float, float, float]] = None
    members_x: Optional[Tuple[int, ...]] = None
    members_wx: Optional[Tuple[int, ...]] = None

    def _denominator(self, convention: str) -> int:
        if convention == "pi_t":
            return self.eligible_count
        if convention == "all":
            return self.total_primes
        raise ValueError("unknown convention %r" % convention)

    def densities(self, convention: str) -> Dict[str, float]:
        d = self._denominator(convention)
        dx, dwx = self.count_x / d, self.count_wx / d
        return {
            "x": dx,
            "wx": dwx,
            "intersection": self.count_both / d,
            "product": dx * dwx,
        }

    def csv_row(self, convention: str) -> List[str]:
        dens = self.densities(convention)
        return [
            str(self.T), str(self.Q), str(self.x0), str(self.x1),
            "%.6f" % dens["x"], "%.6f" % dens["wx"],
            "%.6f" % dens["intersection"], "%.6f" % dens["product"],
            self.window.mode, str(self.window.size), convention,
        ]

    def to_dict(self) -> dict:
        out = {
            "T": self.T, "Q": self.Q, "x": [self.x0, self.x1],
            "t": format_rational(self.t),
            "window": self.window.to_dict(),
            "total_primes": self.total_primes,
            "eligible": self.eligible_count,
            "excluded": list(self.excluded),
            "counts": {"x": self.count_x, "wx": self.count_wx, "both": self.count_both},
            "densities": {conv: self.densities(conv) for conv in CONVENTIONS},
            "qr_ceilings": {
                "det_part": format_rational(self.det_part),
                "det_part_square": self.det_part_square,
                "q_square": self.q_square,
                "qdet_square": self.qdet_square,
                "gamma_x_ceiling": None if self.det_part_square else 0.5,
                "gamma_wx_ceiling": None if self.q_square else 0.5,
                "intersection_ceiling": None if self.det_part_square or self.q_square else 0.25,
            },
        }
        if self.reference is not None:
            out["reference"] = list(self.reference)
        if self.members_x is not None:
            out["members"] = {"x": list(self.members_x), "wx": list(self.members_wx or ())}
        return out


def independence_report(
    T: int,
    Q: int,
    x0: int,
    x1: int,
    window: PrimeWindow = PrimeWindow(),
    full: bool = False,
    reference: Optional[Tuple[float, float, float, float]] = None,
) -> DensityReport:
    """Measure the independence of even- and odd-part divisor sets.

    (T, Q) must be a simple pair (reduce with simple_reduce first); [x0, x1]
    is an integer seed with nonvanishing determinant.
    """
    for name, val in (("T", T), ("Q", Q), ("x0", x0), ("x1", x1)):
        if val != int(val):
            raise DegenerateParameterError("%s must be an integer, got %r" % (name, val))
    T, Q, x0, x1 = int(T), int(Q), int(x0), int(x1)
    if not is_simple(T, Q):
        raise DegenerateParameterError(
            "(%d, %d) is not a simple pair; reduce it first (simple_reduce)" % (T, Q)
        )
    seq = make_element(ParamPair(T, Q), x0, x1)
    x = reduce_element(phi(seq))
    t = x.ctx.T
    wx = class_w(t) * x
    eligible, excluded, flags = sweep([x, wx], window)
    if not eligible:
        raise DegenerateParameterError(
            "no admissible prime in window %s:%d for t = %s" % (window.mode, window.size, t)
        )
    hits_x = [p for p, row in zip(eligible, flags) if row[0]]
    hits_wx = [p for p, row in zip(eligible, flags) if row[1]]
    both = [p for p, row in zip(eligible, flags) if row[0] and row[1]]
    det_part = seq.det
    return DensityReport(
        T=T, Q=Q, x0=x0, x1=x1, t=t, window=window,
        total_primes=len(eligible) + len(excluded),
        eligible_count=len(eligible), excluded=tuple(excluded),
        count_x=len(hits_x), count_wx=len(hits_wx), count_both=len(both),
        det_part=det_part,
        det_part_square=is_rational_square(det_part),
        q_square=is_rational_square(Fraction(Q)),
        qdet_square=is_rational_square(Fraction(Q) * det_part),
        reference=reference,
        members_x=tuple(hits_x) if full else None,
        members_wx=tuple(hits_wx) if full else None,
    )


def table3(
    window: PrimeWindow = PrimeWindow(), full: bool = False,
) -> List[DensityReport]:
    """Rerun all published independence rows over the given window; from
    POOL_MIN_ROWS rows (six times the window's primes) up, on more than one
    CPU, one pool runs the rows side by side, each worker sweeping its rows
    serially."""
    jobs = [(T, Q, x0, x1, window, full, ref) for (T, Q, x0, x1, ref) in TABLE3_ROWS]
    cpus = _cpus()
    if cpus == 1 or len(jobs) * len(window._sieved) < POOL_MIN_ROWS:
        return [independence_report(*job) for job in jobs]
    return _pooled(independence_report, jobs, min(cpus, len(jobs)))


def reference_deviation(report: DensityReport, convention: str) -> float:
    """The max deviation of the report's densities from its reference row."""
    if report.reference is None:
        raise ValueError("report has no reference densities")
    dens = report.densities(convention)
    keys = ("x", "wx", "intersection", "product")
    return max(abs(dens[k] - ref) for k, ref in zip(keys, report.reference))


def best_reference_deviation(report: DensityReport) -> Tuple[str, float]:
    """The convention minimizing the max density deviation from the reference."""
    best: Tuple[str, float] = ("", float("inf"))
    for conv in CONVENTIONS:
        dev = reference_deviation(report, conv)
        if dev < best[1]:
            best = (conv, dev)
    return best
