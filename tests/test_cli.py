"""Command-line interface: argument handling, formats, exit codes."""

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import seqlab
from seqlab import cli, lab
from seqlab.cli import build_parser, main
from seqlab.errors import InvariantError, SeqLabError
from seqlab.lab import CSV_HEADER, PrimeWindow

# the benchmark's call lists, loaded by path: perfbench/ is not a package
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
_spec = importlib.util.spec_from_file_location("perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_seq_text(capsys):
    code, out, _ = run(capsys, "seq", "--t", "3", "--x", "1,1", "--range", "-2..4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x_-2 = 5"
    assert lines[-1] == "x_4 = 13"


def test_seq_json_round_trip(capsys):
    code, out, _ = run(capsys, "seq", "--t", "3", "--x", "1,1",
                       "--range", "0..5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["context"] == {"t": "3"}
    assert doc["terms"] == [[0, "1"], [1, "1"], [2, "2"], [3, "5"], [4, "13"], [5, "34"]]
    assert json.loads(json.dumps(doc)) == doc


def test_seq_two_param(capsys):
    code, out, _ = run(capsys, "seq", "--T", "1", "--Q", "-1",
                       "--x", "0,1", "--range", "0..6")
    assert code == 0
    assert out.strip().splitlines()[-1] == "x_6 = 8"  # Fibonacci


def test_rational_t_argument(capsys):
    code, out, _ = run(capsys, "classify", "--t", "6/5")
    assert code == 0
    assert "circular" in out
    assert "a = 8/5" in out


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "--t", "11/7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "cubic"
    assert doc["f"] == "5/7"
    assert doc["primitive"] is True


def test_torsion_json(capsys):
    code, out, _ = run(capsys, "torsion", "--t", "6/5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["group_type"] == [2, 4]
    assert len(doc["entries"]) == 8
    orders = sorted(e["order"] for e in doc["entries"])
    assert orders == [1, 2, 2, 2, 4, 4, 4, 4]


def test_sqrt_roots_and_empty(capsys):
    code, out, _ = run(capsys, "sqrt", "--t", "3", "--x", "1,3")
    assert code == 0
    assert out.strip().splitlines() == ["[1, 4]", "[1, 2]"]
    code, out, _ = run(capsys, "sqrt", "--t", "3", "--x", "2,3")
    assert code == 0
    assert "no square roots" in out


def test_sqrt_invariant_failure_exits_1(capsys, monkeypatch):
    """Two coinciding square roots break the order-2 rule: a raise, not an
    assert, so the check holds under `python -O` too, and the CLI exits 1
    with an error line, never a traceback."""
    monkeypatch.setattr(seqlab.group, "rational_sqrt", lambda d: Fraction(0))
    code, out, err = run(capsys, "sqrt", "--t", "3", "--x", "1,4")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_laxton_eq(capsys):
    # (25, 66) is the second shift of (2, 9) at t = 3
    code, out, _ = run(capsys, "laxton-eq", "--t", "3", "--x", "2,9", "--y", "25,66")
    assert code == 0
    assert "equivalent: x = " in out
    code, out, _ = run(capsys, "laxton-eq", "--t", "3", "--x", "1,2", "--y", "1,5")
    assert code == 0
    assert "not equivalent" in out


def test_laxton_eq_finds_a_deep_shift_over_two_parameters(capsys):
    # [-27793, 59470] is [9, 8]*D**-22 over (T, Q) = (-3, 6)
    code, out, _ = run(capsys, "laxton-eq", "--T", "-3", "--Q", "6", "--x", "-27793,59470", "--y", "9,8")
    assert code == 0
    assert out == "equivalent: x = -743008370688 * D^-22 * y\n"


def test_divisors_text_and_negative_pair(capsys):
    code, out, _ = run(capsys, "divisors", "--t", "3", "--x", "-1,1", "--primes", "20")
    assert code == 0
    assert "6 of 18 admissible primes" in out
    assert "11 19 29 31 59 71" in out


def test_divisors_json(capsys):
    code, out, _ = run(capsys, "divisors", "--t", "3", "--x", "1,4",
                       "--primes", "30", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["gamma"] == [11, 19, 29, 31, 59, 71, 79, 101]
    assert doc["eligible"] == 28


def test_partition_six_text(capsys):
    code, out, _ = run(capsys, "partition", "--t", "3", "--x", "1,4", "--primes", "40")
    assert code == 0
    for cell in ("x_cx", "x_wx", "x_vx", "wx_vx", "cx_wx", "cx_vx"):
        assert cell in out


def test_partition_cubic(capsys):
    code, out, _ = run(capsys, "partition", "--t", "11/7", "--cubic",
                       "--primes", "40", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["cells"]) == {"ws", "y", "wy"}
    assert doc["cell_counts"] == {"ws": 8, "y": 10, "wy": 11}


# The two partition documents, key order included: both records render
# through one to_dict, each adding its covered set before the counts.
PARTITION_DOCUMENTS = [
    (
        ["partition", "--t", "19/3", "--x", "1,4", "--window", "first:40"],
        {
            "t": "19/3",
            "window": {"mode": "first", "size": 40},
            "eligible": 36,
            "excluded": [3, 5, 13, 19],
            "cells": {
                "x_cx": [7, 31, 67, 151, 163],
                "x_wx": [37, 73, 97, 109, 157],
                "x_vx": [79, 103, 139],
                "wx_vx": [17, 29, 53, 101, 113, 173],
                "cx_wx": [41, 137, 149],
                "cx_vx": [23, 61, 107, 131, 179],
            },
            "gamma_square": [
                7, 17, 23, 29, 31, 37, 41, 53, 61, 67, 73, 79, 97, 101,
                103, 107, 109, 113, 131, 137, 139, 149, 151, 157, 163, 173, 179,
            ],
            "cell_counts": {"x_cx": 5, "x_wx": 5, "x_vx": 3, "wx_vx": 6, "cx_wx": 3, "cx_vx": 5},
        },
    ),
    (
        ["partition", "--t", "11/7", "--cubic", "--window", "first:40"],
        {
            "t": "11/7",
            "window": {"mode": "first", "size": 40},
            "eligible": 36,
            "excluded": [3, 5, 7, 11],
            "cells": {
                "ws": [19, 29, 31, 53, 83, 109, 113, 139],
                "y": [13, 47, 61, 71, 73, 97, 107, 157, 167, 179],
                "wy": [17, 37, 41, 43, 59, 67, 79, 89, 127, 163, 173],
            },
            "gamma_s": [
                13, 17, 19, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
                79, 83, 89, 97, 107, 109, 113, 127, 139, 157, 163, 167, 173, 179,
            ],
            "cell_counts": {"ws": 8, "y": 10, "wy": 11},
        },
    ),
]


@pytest.mark.parametrize("argv, document", PARTITION_DOCUMENTS, ids=["six", "cubic"])
def test_partition_json_document(capsys, argv, document):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(document, indent=2) + "\n"


def test_table3_default_csv(capsys):
    code, out, err = run(capsys, "table3", "--primes", "200")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(CSV_HEADER)
    assert len(rows) == 7
    assert rows[1][:4] == ["5", "3", "17", "11"]
    assert all(r[-1] == "pi_t" for r in rows[1:])


def test_table3_small_window_warns(capsys):
    code, _, err = run(capsys, "table3", "--primes", "12")
    assert code == 0
    assert "deviates from the reference" in err


def test_table3_full_window_silent(capsys):
    code, out, err = run(capsys, "table3")
    assert code == 0
    assert err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert float(rows[1][4]) == pytest.approx(0.356187, abs=1e-6)


# sha256 of `table3 --window W --full --format json`, recorded from the
# ladder-only divisor kernel: every faster path must print the same bytes
TABLE3_JSON_SHA256 = {
    "first:1200": "dc6885b800942806ff974027080c8d1d1b2dbfc3729bbe28b96d20db8ccceadd",
    "below:3000": "9f966bf32ed21f8cd2fe9ca0bc08a2f7fda225cae4b669dfdabff75447671276",
    "below:30000": "4d8f6f6ae2abd9b823874c303a489c1258ea3b1662125873732135d8fa0b740e",
    # 6 x 3 731 = 22 386 rows: from POOL_MIN_ROWS up, on more than one CPU, the rows run on
    # the pool; below:30000 is 6 x 3 244 = 19 464 rows and runs serially
    "below:35000": "1adaa6ced48c35505aab31ddfba0b681d472be13c2c61fbaf4be49b008ada0fe",
}


@pytest.mark.parametrize("window", sorted(TABLE3_JSON_SHA256))
def test_table3_json_output_hash(capsys, window):
    code, out, _ = run(capsys, "table3", "--window", window, "--full", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE3_JSON_SHA256[window]


def test_parallel_below_the_pool_threshold_starts_no_pool(capsys, monkeypatch):
    """Below POOL_MIN_ROWS (t, p) rows a sweep runs serially however many
    CPUs the process may run on: no table3 of the benchmark, at most six
    rows over first:1232, reaches it."""
    argv = ("table3", "--window", "first:1200", "--full", "--format", "json")
    serial = run(capsys, *argv)

    def no_pool(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert 6 * 1232 < lab.POOL_MIN_ROWS
    assert run(capsys, *argv) == serial


def test_independence_json(capsys):
    code, out, _ = run(capsys, "independence", "--T", "5", "--Q", "3",
                       "--x", "17,11", "--primes", "300", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"] == {"x": 108, "wx": 107, "both": 36}
    assert doc["eligible"] == 296
    assert doc["excluded"] == [3, 5, 13, 19]


def test_error_exit_codes(capsys):
    # SeqLabError paths exit 2 with a message on stderr
    code, _, err = run(capsys, "divisors", "--t", "3", "--x", "0,0", "--primes", "10")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "torsion", "--t", "2")
    assert code == 2
    code, _, err = run(capsys, "divisors", "--t", "3", "--x", "1,4",
                       "--primes", "20", "--window", "first:10")
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("window", [("--primes", "1"), ("--window", "below:3")])
def test_table3_empty_window_is_a_domain_error(capsys, window):
    code, out, err = run(capsys, "table3", *window)
    assert code == 2 and out == ""
    assert err.startswith("error: no admissible prime in window")


def test_seq_at_t_zero(capsys):
    code, out, _ = run(capsys, "seq", "--t", "0", "--x", "1,2", "--range", "0..4")
    assert code == 0
    assert out.split() == ["x_0", "=", "1", "x_1", "=", "2", "x_2", "=", "-1",
                           "x_3", "=", "-2", "x_4", "=", "1"]
    code, _, err = run(capsys, "torsion", "--t", "0")
    assert code == 2 and "excluded" in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_nonpositive_prime_count_is_a_usage_error(capsys, count):
    with pytest.raises(SystemExit) as exc:
        main(["divisors", "--t", "3", "--x", "1,2", "--primes", count])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "window size must be positive" in err


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv", [
    ["divisors", "--t", "3", "--x", "1,4", "--window", "first:" + HUGE],
    ["divisors", "--t", "3", "--x", "1,4", "--window", "below:" + HUGE],
    ["table3", "--primes", HUGE],
    ["table3", "--window", "first:1000001"],
    ["partition", "--t", "3", "--x", "1,4", "--window", "below:16000001"],
])
def test_huge_window_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "capped at first:1000000 and below:16000000" in err


def test_window_caps_are_inclusive():
    """Construct the largest windows without sieving them."""
    assert PrimeWindow.parse("first:1000000").size == 10**6
    assert PrimeWindow("below", 16_000_000).size == 16_000_000
    for mode, size in (("first", 10**6 + 1), ("below", 16_000_001)):
        with pytest.raises(ValueError):
            PrimeWindow(mode, size)


def test_argparse_rejections(capsys):
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["seq", "--t", "3", "--x", "1,1", "--range", "a..b"])
    with pytest.raises(SystemExit):
        parser.parse_args(["seq", "--t", "3", "--x", "1"])
    with pytest.raises(SystemExit):
        parser.parse_args(["table3", "--convention", "maybe"])
    with pytest.raises(SystemExit):
        parser.parse_args(["no-such-command"])
    with pytest.raises(SystemExit) as exc:  # sweeps choose their worker pool themselves
        main(["divisors", "--t", "3", "--x", "1,4", "--parallel", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err


def test_seq_requires_context(capsys):
    code, _, err = run(capsys, "seq", "--x", "1,1", "--range", "0..3")
    assert code == 2
    code, _, err = run(capsys, "seq", "--t", "3", "--T", "5", "--Q", "3",
                       "--x", "1,1", "--range", "0..3")
    assert code == 2


def test_classify_huge_numerator_over_a_prime_terminates():
    """den(t) = 3 has exponent gcd 1, so no prime r can give a witness and
    the constant term, ~10**33, is never trial-divided."""
    src = os.path.dirname(os.path.dirname(seqlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "seqlab", "classify", "--t", "1" + "0" * 32 + "1/3", "--format", "json"],
        capture_output=True, text=True, timeout=20, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["primitive"] is True and doc["witnesses"] == []


P64 = str(2**64 - 59)  # a prime; trial division up to its root would not finish


DEN34 = str(10**33 + 57)  # a composite 34-digit denominator


@pytest.mark.parametrize("argv", [
    ["independence", "--T", P64, "--Q", P64, "--x", "1,2", "--window", "first:5"],
    ["classify", "--t", "1/" + P64],
    ["classify", "--t", P64],
    ["torsion", "--t", "5/" + P64],
    ["classify", "--t", "1/" + DEN34],
    ["classify", "--t", "5/" + DEN34],
    ["torsion", "--t", "1/" + DEN34],
    ["torsion", "--t", "5/" + DEN34],
])
def test_prime_cofactor_ends_trial_division(argv):
    """factorize stops once the cofactor is a prime is_prime decides exactly,
    and the witness search takes integer roots of den t instead of factoring it."""
    src = os.path.dirname(os.path.dirname(seqlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "seqlab"] + argv, capture_output=True, text=True, timeout=20, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_seq_term_past_the_int_printing_limit_is_a_domain_error(capsys, fmt):
    """x_11000 at t = 3 has about 4 600 digits; nothing is printed."""
    code, out, err = run(capsys, "seq", "--t", "3", "--x", "1,1", "--range", "11000..11000", "--format", fmt)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("span", ["0..100000", "-100000..0"])
def test_seq_span_with_an_unprintable_end_fails_at_once(capsys, span):
    """At t = 3/2 the terms pass the printing limit from n = 14 286 on (and
    below -14 286), so the request fails on its end term, before the span of
    100 001 terms is computed."""
    start = time.perf_counter()
    code, out, err = run(capsys, "seq", "--t", "3/2", "--x", "1,1", "--range", span)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err == "error: value has too many digits to print\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--t", "3"],
    ["laxton-eq", "--t", "3", "--x", "2,9", "--y", "25,66"],
])
def test_csv_is_not_defined_for_classify_and_laxton_eq(capsys, argv):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and out == ""
    assert err == "error: csv output is not defined for %s\n" % argv[0]


# small argv for each subcommand, with its csv header (None: csv not defined)
SMALL_ARGV = {
    "seq": (["seq", "--t", "3", "--x", "1,1"], ["n", "value"]),
    "classify": (["classify", "--t", "7"], None),
    "torsion": (["torsion", "--t", "6/5"], ["a0", "a1", "order"]),
    "sqrt": (["sqrt", "--t", "3", "--x", "1,3"], ["a0", "a1"]),
    "laxton-eq": (["laxton-eq", "--t", "3", "--x", "2,9", "--y", "25,66"], None),
    "divisors": (["divisors", "--t", "3", "--x", "1,4", "--primes", "20"], ["p"]),
    "partition": (["partition", "--t", "3", "--x", "1,4", "--primes", "20"], ["cell", "count", "primes"]),
    "table3": (["table3", "--primes", "20"], list(CSV_HEADER)),
    "independence": (["independence", "--T", "5", "--Q", "3", "--x", "17,11", "--primes", "20"], list(CSV_HEADER)),
}


def test_small_argv_cover_every_subcommand():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert sorted(sub.choices) == sorted(SMALL_ARGV)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", sorted(SMALL_ARGV))
def test_every_subcommand_renders_every_format(capsys, command, fmt):
    argv, header = SMALL_ARGV[command]
    args = build_parser().parse_args(argv + ["--format", fmt])
    assert isinstance(cli.subcommand(args.command)(args), cli.Output)
    assert capsys.readouterr().out == ""  # only main prints
    code, out, err = run(capsys, *argv, "--format", fmt)
    if fmt == "csv" and header is None:
        assert code == 2 and out == ""
    elif fmt == "csv":
        assert code == 0, err
        assert next(csv.reader(io.StringIO(out))) == header
    else:
        assert code == 0, err
        assert out.strip()
        if fmt == "json":
            json.loads(out)


@pytest.mark.parametrize("argv, row, message", [
    (("--t", "3", "--x", "1,4"), (True,) * 8, "partition cells overlap at p = %d: ['x_cx', 'x_wx'"),
    (("--t", "3", "--x", "1,4"), (False,) * 4 + (True,) + (False,) * 3,
     "partition does not match Gamma(X^2) at p = %d\n"),
    (("--t", "11/7", "--cubic"), (True, True, True, False, True),
     "cubic partition cells overlap at p = %d: ['ws', 'y']\n"),
    (("--t", "11/7", "--cubic"), (True, False, False, False, False),
     "cubic partition does not match Gamma(S) at p = %d\n"),
], ids=["six-overlap", "six-uncovered", "cubic-overlap", "cubic-uncovered"])
def test_partition_cell_checks_exit_1(capsys, monkeypatch, argv, row, message):
    """Both partitions check each prime's cell the same way: the first
    window prime whose flags put it in two cells, or in a cell exactly when
    it is outside the covered set, ends the call with exit 1."""
    p = lab.window_split(Fraction(argv[1]), PrimeWindow("first", 10))[0][0]
    monkeypatch.setattr(lab, "divisor_flags", lambda elements, primes: [row] * len(primes))
    code, out, err = run(capsys, "partition", *argv, "--primes", "10")
    assert code == 1 and out == ""
    assert err.startswith("error: " + message % p)


def test_only_invariant_errors_exit_1(capsys, monkeypatch):
    def broken_invariant(args):
        raise InvariantError("partition cells overlap at p = 7")

    monkeypatch.setattr(cli, "cmd_classify", broken_invariant)
    code, out, err = run(capsys, "classify", "--t", "3")
    assert code == 1 and out == ""
    assert err == "error: partition cells overlap at p = 7\n"

    def bug(args):
        return 1 // 0

    monkeypatch.setattr(cli, "cmd_classify", bug)
    with pytest.raises(ZeroDivisionError):
        main(["classify", "--t", "3"])


def _parser_corpus():
    """Over 600 argv: every small argv in every format, argparse rejections,
    domain errors and varied parameters for each subcommand."""
    corpus = [argv + ["--format", fmt] for argv, _ in SMALL_ARGV.values()
              for fmt in ("text", "json", "csv", "xml")]
    corpus += [
        [], ["--help"], ["-h"], ["no-such-command"], ["classify", "--help"], ["table3", "-h"],
        ["seq", "--t", "3"], ["seq", "--t", "3", "--x", "1"], ["seq", "--t", "3", "--x", "1,2,3"],
        ["seq", "--t", "3", "--x", "a,b"], ["seq", "--t", "3", "--x", "1,1", "--range", "a..b"],
        ["seq", "--t", "3", "--x", "1,1", "--range", "5..2"], ["seq", "--t", "3", "--x", "1,1", "--range", "7"],
        ["classify"], ["classify", "--t"], ["classify", "--t", "1/0"], ["classify", "--t", "x"],
        ["classify", "--t", "3", "--T", "5"], ["torsion", "--t", "nan"], ["sqrt", "--t", "3"],
        ["laxton-eq", "--t", "3", "--x", "1,2"], ["divisors", "--t", "3"],
        ["divisors", "--t", "3", "--x", "1,4", "--primes", "0"],
        ["divisors", "--t", "3", "--x", "1,4", "--window", "mid:5"],
        ["divisors", "--t", "3", "--x", "1,4", "--window", "first:" + HUGE],
        ["partition", "--t", "3", "--x", "1,4", "--window", "below:x"],
        ["table3", "--convention", "maybe"], ["table3", "--primes", "-3"],
        ["table3", "--parallel", "x"], ["independence", "--T", "5", "--x", "17,11"],
        ["independence", "--T", "5", "--Q", "3"], ["classify", "--t", "3", "--format", "yaml"],
        ["classify", "--t", "3", "extra"], ["seq", "--t", "3", "--x", "1,1", "--bogus"],
    ]
    corpus += [
        ["torsion", "--t", "2"], ["torsion", "--t", "0"], ["classify", "--t", "-1"],
        ["classify", "--t", "4/2"], ["seq", "--x", "1,1"], ["seq", "--T", "5", "--x", "1,1"],
        ["seq", "--t", "3", "--T", "5", "--Q", "3", "--x", "1,1"],
        ["sqrt", "--t", "3", "--x", "0,0"], ["sqrt", "--t", "2", "--x", "1,3"],
        ["laxton-eq", "--t", "3", "--x", "1,1", "--y", "0,0"],
        ["divisors", "--t", "3", "--x", "0,0", "--primes", "10"],
        ["divisors", "--t", "3", "--x", "1,4", "--primes", "20", "--window", "first:10"],
        ["partition", "--t", "3", "--primes", "10"], ["partition", "--t", "3", "--cubic", "--primes", "10"],
        ["table3", "--primes", "1"], ["table3", "--window", "below:3"],
        ["independence", "--T", "5/2", "--Q", "3", "--x", "17,11", "--primes", "5"],
        ["independence", "--T", "6", "--Q", "4", "--x", "1,1", "--primes", "5"],
        ["independence", "--T", "5", "--Q", "3", "--x", "1/2,1", "--primes", "5"],
        ["seq", "--t", "3", "--x", "1,1", "--range", "11000..11000"],
        ["classify", "--t", "3", "--format", "csv"], ["laxton-eq", "--t", "3", "--x", "2,9", "--y", "25,66",
                                                      "--format", "csv"],
    ]
    ts = sorted({str(Fraction(n, d)) for d in (1, 2, 3, 4, 5, 9) for n in range(-24, 25)})
    fmts = ("text", "json")
    for i, t in enumerate(ts):
        corpus.append(["classify", "--t", t, "--format", fmts[i % 2]])
        corpus.append(["torsion", "--t", t, "--format", ("text", "json", "csv")[i % 3]])
    for i, (a, b) in enumerate([(a, b) for a in range(-4, 5) for b in range(-4, 5)]):
        t = ("3", "7/2", "-5", "6/5")[i % 4]
        pair = "%d,%d" % (a, b)
        corpus.append(["sqrt", "--t", t, "--x", pair, "--format", fmts[i % 2]])
        corpus.append(["laxton-eq", "--t", t, "--x", pair, "--y", "%d,%d" % (b, a + b), "--format", fmts[i % 2]])
        corpus.append(["seq", "--t", t, "--x", pair, "--range", "%d..%d" % (a, a + 4)])
    for i, size in enumerate(range(1, 25)):
        corpus.append(["divisors", "--t", ("3", "19/3")[i % 2], "--x", "1,4", "--primes", str(size)])
        corpus.append(["partition", "--t", "-6/5", "--cubic", "--window", "below:%d" % (8 * size)])
        corpus.append(["independence", "--T", "5", "--Q", "3", "--x", "17,11", "--window",
                       "first:%d" % size, "--convention", ("pi_t", "all")[i % 2]])
    return corpus


def _run_captured(argv, entry=main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = entry(argv)
        except SystemExit as exc:  # argparse rejections and --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reference_main(argv):
    """`main` as it was before one-pass parsing and writing, kept as the
    reference: a fresh parser's full parse_args, and json.dumps with indent=2."""
    args = build_parser().parse_args(argv)
    try:
        out = cli.subcommand(args.command)(args)
        if args.format == "json":
            text = json.dumps(out.payload, indent=2) + "\n"
        elif args.format == "text":
            text = "".join(line + "\n" for line in out.lines)
        elif out.table is None:
            raise SeqLabError("csv output is not defined for %s" % args.command)
        else:
            buf = io.StringIO()
            csv.writer(buf).writerows([out.table[0], *out.table[1]])
            text = buf.getvalue()
        sys.stdout.write(text)
        return 0
    except SeqLabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvariantError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


# argv whose parse depends on how the top-level parser hands a command its
# arguments: a leading or trailing --, a lone -, --flag=value, an
# abbreviated flag, leftover positionals and unknown flags
EDGE_ARGV = [
    ["--", "seq", "--t", "3", "--x", "1,1"],
    ["seq", "-", "--t", "3", "--x", "1,1"],
    ["seq", "--t=3", "--x=1,1", "--format=json"],
    ["seq", "--ra", "0..3", "--t", "3", "--x", "-1,1"],
    ["seq", "--t", "3", "--x", "1,1", "--", "x"],
    ["seq", "--t", "3", "--x", "1,1", "--", "--range", "0..2"],
    ["classify", "--t", "3", "a", "b"],
    ["sqrt", "a", "--t", "3", "--x", "1,3"],
    ["divisors", "--t", "3", "--x", "1,4", "--primes", "5", "--parallel", "2"],
    ["table3", "--primes", "5", "--format", "json", "-q"],
    ["seq", "--he"], ["-h", "seq"], ["--format", "json"], ["seq"], ["SEQ", "--t", "3"],
]


def test_main_matches_the_reference_main(monkeypatch):
    """Over the parser corpus and the edge argv, `main`, on its one shared
    parser, gives the reference main's exit code, stdout and stderr, byte
    for byte; the reference builds a fresh parser per call."""
    corpus = _parser_corpus() + EDGE_ARGV
    assert len(corpus) >= 600
    reference = [_run_captured(argv, _reference_main) for argv in corpus]
    builds = []

    def counted_build():
        builds.append(1)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted_build)
    shared = [_run_captured(argv) for argv in corpus]
    assert len(builds) == 1
    for argv, a, b in zip(corpus, shared, reference):
        assert a == b, argv
    codes = {code for code, _, _ in reference}
    assert codes == {0, 2}


def test_independence_huge_prime_T(capsys):
    """is_simple factors gcd(T, Q), not a 20-digit prime T."""
    code, out, err = run(capsys, "independence", "--T", "18446744073709551557", "--Q", "3",
                         "--x", "1,2", "--window", "first:20", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["T"] == 18446744073709551557


# ---------------------------------------------------------------------------
# the json writer against json.dumps(v, indent=2)
# ---------------------------------------------------------------------------


def _written(value):
    pieces = []
    cli._write_json(value, pieces)
    return "".join(pieces)


_JSON_STR = st.one_of(st.text(), st.sampled_from([
    "", '"', "\\", 'a "quoted" \\ path', "\x00\x1f\x7f\n\t\r", "caf\u00e9 \u20ac \U0001f600", "\ud800",
]))
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), _JSON_STR,
    st.integers(), st.integers(-10**4000, 10**4000),
    st.floats(), st.sampled_from([-0.0, 1e-7, 1e16, float("nan"), float("inf"), float("-inf")]),
)
_JSON_TREE = st.recursive(_JSON_SCALAR, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(_JSON_STR, children, max_size=5),
    # arrays of one leaf type: ints, strs, and bools, which are ints to isinstance
    st.lists(st.integers(), max_size=5), st.lists(_JSON_STR, max_size=5), st.lists(st.booleans(), max_size=5),
), max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(_JSON_TREE)
def test_json_writer_matches_json_dumps(value):
    assert _written(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    Fraction(1, 3), {1, 2}, {1: "a"}, {"a": [1, {(1, 2): 3}]}, [b"bytes"], {"a": object()},
])
def test_json_writer_rejects_what_json_cannot_spell(value):
    with pytest.raises(TypeError):
        _written(value)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before Python 3.11")
@pytest.mark.parametrize("value", [10**4300, [-(10**4300)], {"n": [1, 10**4300]}],
                         ids=["int", "array", "nested"])
def test_json_writer_keeps_the_int_digit_limit(value):
    with pytest.raises(ValueError):
        json.dumps(value, indent=2)
    with pytest.raises(ValueError):
        _written(value)


# ---------------------------------------------------------------------------
# the benchmark's outputs
# ---------------------------------------------------------------------------


def test_benchmark_call_lists_reproduce_the_golden_hashes():
    """The seed-1 call list of every benchmark workload, run through `main`,
    gives the hash perfbench/golden.json records: sha256 over the
    concatenated hex sha256 of each call's "<exit code>\\0<stdout>"."""
    with open(os.path.join(PERFBENCH, "golden.json")) as fh:
        golden = json.load(fh)
    assert sorted(golden["sha256"]) == sorted(workloads.WORKLOADS)
    for name, expected in golden["sha256"].items():
        digests = []
        for call in workloads.generate(name, golden["seed"]):
            code, out, _ = _run_captured(call["argv"])
            digests.append(hashlib.sha256(("%s\0%s" % (code, out)).encode()).hexdigest())
        assert hashlib.sha256("".join(digests).encode()).hexdigest() == expected, name


# ---------------------------------------------------------------------------
# the sweep grammar under fuzzing
# ---------------------------------------------------------------------------

_SMALL = st.integers(-40, 40).map(str)
_HUGE_INT = st.one_of(st.integers(-10**40, 10**40), st.integers(-10**999, 10**999)).map(str)
_RATIONAL = st.tuples(st.integers(-10**40, 10**40), st.integers(1, 10**40)).map("{0[0]}/{0[1]}".format)
# circular t = 2(v^2 - u^2)/(v^2 + u^2) and cubic t = 2(v^2 - 3u^2)/(v^2 + 3u^2)
_CYCLOTOMIC = st.tuples(st.sampled_from([1, 3]), st.integers(1, 50), st.integers(1, 50)).map(
    lambda k: "%d/%d" % (2 * (k[2] ** 2 - k[0] * k[1] ** 2), k[2] ** 2 + k[0] * k[1] ** 2))
_SPECIAL = st.sampled_from([
    "0", "1", "-2", "5/2", "11/7", "-22/13", "-6/5", "19/3", "1/0", "0/5", "3/-4",
    "1.5", "-2.5e-30", "1e40", "1e999", "1e999999999", "-1e-5000", "1" + "0" * 1000,
    "", " ", "x", "1/", "/3", "1/2/3", "--", "nan", "inf", "3,4",
])
_VALUE = st.one_of(_SMALL, _HUGE_INT, _RATIONAL, _CYCLOTOMIC, _SPECIAL)
# --Q draws no huge integer that --T could share: a prime common to both and
# above primes.EXACT_BELOW would have is_simple factor it by trial division;
# P64, below that bound, is in both pools
_Q_VALUE = st.one_of(_SMALL, _SPECIAL, _RATIONAL.filter(lambda q: Fraction(q).denominator > 1), st.just(P64))
_PAIR = st.one_of(
    st.tuples(_SMALL, _SMALL).map(",".join),
    st.tuples(_VALUE, _VALUE).map(",".join),
    st.sampled_from(["0,0", "1,2", "2,1", "1,1", "-1,1", "1", "1,2,3", ",", "a,b"]),
)
_WINDOW = st.one_of(
    st.tuples(st.just("--window"), st.integers(1, 300).map("first:{}".format)),
    st.tuples(st.just("--window"), st.integers(1, 2000).map("below:{}".format)),
    st.tuples(st.just("--primes"), st.integers(1, 300).map(str)),
    st.tuples(st.sampled_from(["--window", "--primes"]), st.sampled_from([
        "0", "-3", "first:0", "below:-3", "first:" + "9" * 25, "below:" + "9" * 25, "9" * 25,
        "first:", "mid:5", "below:x", "first:1:2", "",
    ])),
)


def _optional(name, values):
    return st.one_of(st.none(), st.tuples(st.just(name), values))


def _assemble(draw, command, parts):
    argv = command.split()
    for part in parts:
        value = draw(part)
        if isinstance(value, tuple):
            argv += list(value)
        elif value is not None:
            argv.append(value)
    return argv


@st.composite
def sweep_argv(draw):
    command = draw(st.sampled_from(["divisors", "partition", "partition --cubic", "independence", "table3"]))
    parts = [
        st.one_of(st.none(), _WINDOW),
        _optional("--format", st.sampled_from(["text", "json", "csv", "xml"])),
    ]
    if command in ("independence", "table3"):
        parts += [st.sampled_from([None, "--full"]), _optional("--convention", st.sampled_from(["pi_t", "all"]))]
    if command == "independence":
        parts += [
            st.tuples(st.just("--T"), st.one_of(_SMALL, _HUGE_INT, _VALUE, st.just(P64))),
            st.tuples(st.just("--Q"), st.one_of(_SMALL, _Q_VALUE)),
            st.tuples(st.just("--x"), _PAIR),
        ]
    elif command == "partition --cubic":
        parts += [st.tuples(st.just("--t"), _VALUE), _optional("--x", _PAIR)]
    elif command != "table3":
        parts += [st.tuples(st.just("--t"), _VALUE), st.tuples(st.just("--x"), _PAIR)]
    return _assemble(draw, command, parts)


@st.composite
def group_argv(draw):
    """sqrt and laxton-eq over --t, or --T with --Q, or a context that is
    missing a part or given twice."""
    command = draw(st.sampled_from(["sqrt", "laxton-eq"]))
    parts = [
        st.one_of(
            st.tuples(st.just("--t"), _VALUE),
            st.tuples(st.just("--T"), _VALUE, st.just("--Q"), _Q_VALUE),
            st.lists(st.sampled_from([("--t", "3"), ("--T", "5"), ("--Q", "3")]), max_size=3).map(
                lambda flags: sum(flags, ())),
        ),
        st.tuples(st.just("--x"), _PAIR),
        _optional("--format", st.sampled_from(["text", "json", "csv", "xml"])),
    ]
    if command == "laxton-eq":
        parts.append(st.tuples(st.just("--y"), _PAIR))
    return _assemble(draw, command, parts)


def _check_exit_contract(argv, codes):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejections
            code = exc.code
    elapsed = time.perf_counter() - start
    assert code in codes, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert (code != 0) == err.getvalue().startswith(("error:", "usage:")), (argv, err.getvalue())
    assert elapsed < 10, (argv, elapsed)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(sweep_argv())
def test_sweep_grammar_fuzz(argv):
    _check_exit_contract(argv, (0, 2))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(group_argv())
def test_group_grammar_fuzz(argv):
    _check_exit_contract(argv, (0, 1, 2))
