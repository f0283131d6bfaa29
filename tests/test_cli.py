"""Command-line interface: argument handling, formats, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys

import pytest

import seqlab
from seqlab.cli import build_parser, main
from seqlab.lab import CSV_HEADER, PrimeWindow


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


def test_laxton_eq(capsys):
    # (25, 66) is the second shift of (2, 9) at t = 3
    code, out, _ = run(capsys, "laxton-eq", "--t", "3", "--x", "2,9", "--y", "25,66")
    assert code == 0
    assert "equivalent: x = " in out
    code, out, _ = run(capsys, "laxton-eq", "--t", "3", "--x", "1,2", "--y", "1,5")
    assert code == 0
    assert "not equivalent" in out


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


def test_argparse_rejections():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["seq", "--t", "3", "--x", "1,1", "--range", "a..b"])
    with pytest.raises(SystemExit):
        parser.parse_args(["seq", "--t", "3", "--x", "1"])
    with pytest.raises(SystemExit):
        parser.parse_args(["table3", "--convention", "maybe"])
    with pytest.raises(SystemExit):
        parser.parse_args(["no-such-command"])


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
