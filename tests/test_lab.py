"""Experiment-lab sweeps: windows, divisor sets, partitions, density reports."""

import functools
import multiprocessing
import os
import random
from fractions import Fraction

import pytest

from seqlab import lab
from seqlab.errors import DegenerateParameterError
from seqlab.ring import ParamPair
from seqlab.group import GroupElement, class_w
from seqlab.modp import divisor_table, in_admissible_set, ord_companion
from seqlab.transforms import is_simple
from seqlab.lab import (
    CONVENTIONS,
    CSV_HEADER,
    TABLE3_ROWS,
    PrimeWindow,
    best_reference_deviation,
    cubic_partition,
    divisor_flags,
    gamma,
    independence_report,
    partition_six,
    table3,
    window_split,
)

F = Fraction


def scan_gamma(t, x, primes):
    """Term-scan oracle for the divisor set: look for a literal zero term."""
    hits = []
    for p in primes:
        if not in_admissible_set(t, p):
            continue
        tp = t.numerator * pow(t.denominator, -1, p) % p
        a, b = x.a0 % p, x.a1 % p
        for _ in range(ord_companion(t, p)):
            if a == 0:
                hits.append(p)
                break
            a, b = b, (tp * b - a) % p
    return tuple(hits)


def test_window_parse():
    assert PrimeWindow.parse("first:50") == PrimeWindow("first", 50)
    assert PrimeWindow.parse("below:100") == PrimeWindow("below", 100)
    assert PrimeWindow.parse("75") == PrimeWindow("first", 75)
    with pytest.raises(ValueError):
        PrimeWindow.parse("nearest:10")
    with pytest.raises(ValueError):
        PrimeWindow("first", 0)


def test_window_primes():
    assert PrimeWindow("first", 4).primes() == [3, 5, 7, 11]
    assert PrimeWindow("below", 12).primes() == [3, 5, 7, 11]
    assert len(PrimeWindow("first", 300).primes()) == 300


def test_window_split_frozen():
    eligible, excluded = window_split(F(19, 3), PrimeWindow("first", 300))
    assert excluded == [3, 5, 13, 19]
    assert len(eligible) == 296
    assert set(eligible).isdisjoint(excluded)


def test_gamma_matches_term_scan():
    window = PrimeWindow("first", 30)
    primes = window.primes()
    for t, pair in ((F(3), (1, 4)), (F(3), (1, 3)), (F(19, 3), (2, 9))):
        x = GroupElement.from_pair(ParamPair.one_param(t), *pair)
        assert gamma(x, window) == scan_gamma(t, x, primes)


def test_gamma_frozen():
    x = GroupElement.from_pair(ParamPair.one_param(3), 1, 4)
    assert gamma(x, PrimeWindow("first", 30)) == (11, 19, 29, 31, 59, 71, 79, 101)


def _run_on_cpus(monkeypatch, cpus):
    """Let this process run on `cpus` CPUs (the host counts 8) and return
    the sizes of the pools that sweeps start from then on.  The pools are
    held till the test ends, so only an explicit stop ends their workers."""
    starts, pools = [], []
    real_pool = multiprocessing.get_context().Pool

    def counted_pool(n):
        starts.append(n)
        pools.append(real_pool(n))
        return pools[-1]

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", counted_pool)
    return starts


# At least POOL_MIN_ROWS admissible primes for each t swept below, so that
# a sweep over one t pools
POOLED = PrimeWindow("first", 21100)
_X3 = GroupElement.from_pair(ParamPair.one_param(F(3)), 1, 4)


@functools.cache
def _x3_serial_flags():
    """POOLED's admissible primes for t = 3 and _X3's serial flags over
    them, found once for every test that compares with them."""
    eligible, _ = window_split(F(3), POOLED)
    return eligible, divisor_table([_X3], eligible)


def test_parallel_flags_match_serial(monkeypatch):
    t = F(3)
    ctx = ParamPair.one_param(t)
    xs = [GroupElement.from_pair(ctx, 1, 4), GroupElement.from_pair(ctx, 2, 3)]
    eligible, _ = window_split(t, POOLED)
    assert len(eligible) >= lab.POOL_MIN_ROWS  # so the pool runs
    starts = _run_on_cpus(monkeypatch, 2)
    assert divisor_flags(xs, eligible) == divisor_table(xs, eligible)
    assert starts == [2]
    assert multiprocessing.active_children() == []


def test_one_cpu_starts_no_pool(monkeypatch):
    """The CPU count is the affinity mask's, not the host's: a process
    pinned to one CPU of eight sweeps serially at any size."""
    eligible, serial = _x3_serial_flags()
    starts = _run_on_cpus(monkeypatch, 1)
    assert divisor_flags([_X3], eligible) == serial
    assert starts == []


def test_the_pool_counts_rows_not_primes(monkeypatch):
    """One element over 5 000 primes is 5 000 (t, p) rows, too few to pool
    on two CPUs; five elements over five distinct t and the same primes
    are 25 000 rows, and pool."""
    primes, _ = window_split(F(7), PrimeWindow("first", 5003))
    assert len(primes) == 5000 and 5 * 5000 >= lab.POOL_MIN_ROWS
    xs = [GroupElement.from_pair(ParamPair.one_param(t), 1, 4) for t in (3, 4, 6, 7, 8)]
    serial = divisor_table(xs, primes)
    starts = _run_on_cpus(monkeypatch, 2)
    assert divisor_flags(xs[:1], primes) == [row[:1] for row in serial]
    assert starts == []
    assert divisor_flags(xs, primes) == serial
    assert starts == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sweep", [
    lambda w: gamma(_X3, w),
    lambda w: partition_six(_X3, w),
    lambda w: cubic_partition(F(11, 7), w),
    lambda w: independence_report(5, 3, 17, 11, w, full=True),
], ids=["gamma", "partition_six", "cubic_partition", "independence_report"])
def test_pooled_sweeps_match_serial_and_leave_no_worker(monkeypatch, sweep):
    serial_starts = _run_on_cpus(monkeypatch, 1)
    serial = sweep(POOLED)
    assert serial_starts == []
    starts = _run_on_cpus(monkeypatch, 2)
    assert sweep(POOLED) == serial
    assert starts == [2]
    assert multiprocessing.active_children() == []


def test_a_sweep_inside_a_pool_worker_runs_serially(monkeypatch):
    """A pool worker may not start processes, so a long sweep run inside
    one runs serially, though the affinity mask it inherits through fork
    offers two CPUs."""
    eligible, flags = _x3_serial_flags()
    assert len(eligible) >= lab.POOL_MIN_ROWS  # so it would pool
    serial = tuple(p for p, (hit,) in zip(eligible, flags) if hit)
    _run_on_cpus(monkeypatch, 2)
    pool = multiprocessing.get_context().Pool(1)
    try:
        assert pool.apply(gamma, (_X3, POOLED)) == serial
    finally:
        pool.terminate()


def test_table3_shares_one_pool_across_its_rows(monkeypatch):
    """Six rows, one pool start, closed before table3 returns, and the
    serial reports."""
    window = PrimeWindow("first", 3600)
    serial_starts = _run_on_cpus(monkeypatch, 1)
    serial = table3(window, full=True)
    assert serial_starts == []
    assert len(TABLE3_ROWS) * len(window.primes()) >= lab.POOL_MIN_ROWS  # so the rows pool
    starts = _run_on_cpus(monkeypatch, 2)
    assert table3(window, full=True) == serial
    assert starts == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus, expect", [(None, 1), (1, 1), (3, 3), (8, 8)])
def test_workers_are_capped_at_the_cpu_count(monkeypatch, cpus, expect):
    """Where the platform has no affinity mask, the pool has os.cpu_count()
    workers (one when it is unknown), and the chunks are sized for that
    count.  The pool here is a stand-in that runs the jobs in-process, so
    no worker process is started."""
    sizes, chunks = [], []

    class FakePool:
        def __init__(self, n):
            sizes.append(n)

        def starmap(self, func, jobs):
            chunks.extend(len(primes) for _, primes in jobs)
            return [func(*job) for job in jobs]

        def terminate(self):
            pass

    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    eligible, serial = _x3_serial_flags()
    assert divisor_flags([_X3], eligible) == serial
    if expect == 1:
        assert sizes == [] and chunks == []  # one CPU runs serially
    else:
        assert sizes == [expect]
        assert chunks[0] == -(-len(eligible) // (4 * expect)) and sum(chunks) == len(eligible)


def test_partition_six_runs_and_counts():
    x = GroupElement.from_pair(ParamPair.one_param(F(19, 3)), 1, 4)
    part = partition_six(x, PrimeWindow("first", 120))
    assert part.eligible_count == 116
    counts = {k: len(v) for k, v in part.cells.items()}
    assert counts == {"x_cx": 16, "x_wx": 16, "x_vx": 10,
                      "wx_vx": 14, "cx_wx": 14, "cx_vx": 18}
    assert sum(counts.values()) == len(part.gamma_square) == 88
    # cells really partition gamma_square
    seen = sorted(p for cell in part.cells.values() for p in cell)
    assert seen == sorted(part.gamma_square)


def test_partition_six_rejects_two_param():
    ctx = ParamPair(5, 3)
    x = GroupElement.from_pair(ctx, 1, 4)
    with pytest.raises(DegenerateParameterError):
        partition_six(x, PrimeWindow("first", 20))


def test_cubic_partition_frozen():
    part = cubic_partition(F(11, 7), PrimeWindow("first", 120))
    counts = {k: len(v) for k, v in part.cells.items()}
    assert counts == {"ws": 28, "y": 32, "wy": 27}
    assert sum(counts.values()) == len(part.gamma_s) == 87
    with pytest.raises(DegenerateParameterError):
        cubic_partition(F(6, 5), PrimeWindow("first", 20))  # circular, not cubic


def test_independence_report_frozen_counts():
    r = independence_report(5, 3, 17, 11, PrimeWindow("first", 300))
    assert (r.count_x, r.count_wx, r.count_both) == (108, 107, 36)
    assert r.total_primes == 300 and r.eligible_count == 296
    assert r.excluded == (3, 5, 13, 19)
    assert r.t == F(19, 3)
    assert r.det_part == 53 and not r.det_part_square
    assert not r.q_square and not r.qdet_square


def test_independence_report_rejects_non_simple():
    with pytest.raises(DegenerateParameterError):
        independence_report(3, 9, 1, 1)  # 3 | T and 9 | Q
    with pytest.raises(DegenerateParameterError):
        independence_report(5, 3, Fraction(1, 2), 1)


def test_densities_and_csv_row():
    r = independence_report(5, 3, 17, 11, PrimeWindow("first", 300))
    pi_t = r.densities("pi_t")
    assert pi_t["x"] == 108 / 296
    assert r.densities("all")["x"] == 108 / 300
    assert pi_t["product"] == pytest.approx(pi_t["x"] * pi_t["wx"])
    with pytest.raises(ValueError):
        r.densities("half")
    row = r.csv_row("pi_t")
    assert len(row) == len(CSV_HEADER)
    assert row[:4] == ["5", "3", "17", "11"]
    assert row[4] == "%.6f" % (108 / 296)
    assert row[8:] == ["first", "300", "pi_t"]


def test_report_dict_shape():
    r = independence_report(5, 3, 17, 11, PrimeWindow("first", 100), full=True)
    d = r.to_dict()
    assert d["counts"]["x"] == r.count_x
    assert set(d["densities"]) == set(CONVENTIONS)
    assert d["qr_ceilings"]["gamma_x_ceiling"] == 0.5
    assert d["qr_ceilings"]["intersection_ceiling"] == 0.25
    assert len(d["members"]["x"]) == r.count_x


def test_table3_reproduces_references():
    reports = table3(PrimeWindow("first", 1200))
    assert len(reports) == len(TABLE3_ROWS)
    for r in reports:
        dens = r.densities("pi_t")
        ref = r.reference
        for got, want in zip((dens["x"], dens["wx"], dens["intersection"], dens["product"]), ref):
            assert abs(got - want) < 0.01, (r.T, r.Q, got, want)


@pytest.mark.parametrize("mode, size, sieve", [("first", 200, "first_odd_primes"), ("below", 1500, "odd_primes_below")])
def test_table3_sieves_once(monkeypatch, mode, size, sieve):
    calls = []
    real = getattr(lab, sieve)
    monkeypatch.setattr(lab, sieve, lambda bound: calls.append(bound) or real(bound))
    reports = table3(PrimeWindow(mode, size))
    assert calls == [size]
    assert len({r.total_primes for r in reports}) == 1


def test_best_reference_deviation_prefers_pi_t():
    for r in table3(PrimeWindow("first", 1200)):
        conv, dev = best_reference_deviation(r)
        assert conv == "pi_t"
        assert dev < 0.0012
    with pytest.raises(ValueError):
        best_reference_deviation(independence_report(5, 3, 17, 11, PrimeWindow("first", 50)))


def test_independence_report_split_matches_closed_form(monkeypatch):
    """X is the class of [Q*x0, T*x1 - Q*x0] over t = T**2/Q - 2, and the
    determinant part is x1**2 - T*x0*x1 + Q*x0**2, on simple pairs with
    Q < 0 included."""
    seen = []

    def record(elements, primes):
        seen.append(tuple(elements))
        return [(False,) * len(elements) for _ in primes]

    monkeypatch.setattr(lab, "divisor_flags", record)
    rng = random.Random(913)
    count = 0
    for T in range(1, 10):
        for Q in range(-9, 10):
            if not Q or not is_simple(T, Q):
                continue
            t = F(T * T, Q) - 2
            if t.denominator == 1 and t.numerator in (0, 1, -1, 2, -2):
                continue
            for _ in range(3):
                x0, x1 = rng.randint(-20, 20), rng.randint(-20, 20)
                det = x1 * x1 - T * x0 * x1 + Q * x0 * x0
                if det == 0:
                    continue
                r = independence_report(T, Q, x0, x1, PrimeWindow("first", 12))
                x = GroupElement.from_pair(ParamPair.one_param(t), Q * x0, T * x1 - Q * x0)
                assert seen.pop() == (x, class_w(t) * x)
                assert r.t == t and r.det_part == det
                count += 1
    assert count > 300
