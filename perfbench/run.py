"""seqlab benchmark: drive the real CLI on a seeded workload and report.

    python3 perfbench/run.py --workload table3 --seed 1 --seconds 35 --trace 0

Run from anywhere; seqlab is imported from `src/` next to this directory.
For `--seconds` the benchmark runs rounds one after another (a closed
loop with one client).  Each round is a fresh interpreter (child.py) that
imports seqlab, builds the parser, then makes a cold pass and an identical
warm pass over the workload's calls.  Set-up is also timed in a few
interpreters that do nothing else.  Times are reported at reference
speed: each latency is scaled by a fixed kernel timed just before and after
the call (child.kernel_s), so that the machine's own swings in speed cancel.

With `--trace 1` the rounds alternate between untraced ones and traced
ones that make only the cold pass; the per-layer metrics come from the
traced rounds (spans.py), the tracing overhead from comparing the two.

Outputs are checked outside the timed passes: every pass must reproduce
the first cold pass byte for byte, the seed golden.json names must
reproduce the hash recorded there, and oracle.py checks the first cold pass
against literal definitions.  Each refuted or failed call counts in
`failed`.

Standard output: a readable report, a `perfbench-record` line with every
number and the machine facts (what compare.py reads), and last the result
line `{"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 1
SETUP_SPAWNS = 5  # set-up-only interpreters per run, besides one per round
MIN_ROUNDS = 3  # even when that overruns --seconds, up to HARD_LIMIT_S
MIN_TRACE_ROUNDS = 2  # of each kind, untraced and traced, with --trace 1
HARD_LIMIT_S = 160  # no round starts after this; the contract allows 180
# child.kernel_s() on the reference machine at full speed; timings are
# reported as if the machine ran at that speed (see at_reference_speed)
KERNEL_REF_S = 0.0002
RECORD_PREFIX = "perfbench-record "

# name -> unit; the end-to-end metrics in BENCHMARK.json, in order
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
# reported with them, but not gated: zero on a healthy run (fail_ratio) or
# undefined on algebra (divisor_tests_per_s)
REPORTED = {"divisor_tests_per_s": "1/s", "fail_ratio": "ratio"}
# elements tested per admissible prime, by call kind
ELEMENTS_PER_PRIME = {"divisors": 1, "partition": 8, "cubic": 5, "table3": 2}


class RoundFailed(Exception):
    pass


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode: str, request: Optional[dict], timeout: float) -> dict:
    """Run child.py once; returns its result, with its set-up time added."""
    payload = json.dumps(request) if request is not None else ""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), mode],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=child_env(), cwd=str(ROOT), text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(payload, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RoundFailed("round exceeded %.0f s" % timeout)
    finally:
        if proc.poll() is None:
            # kills the round and any pool workers it started
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RoundFailed("child exited %d: %s" % (proc.returncode, err.strip()[-1500:]))
    try:
        result = json.loads(out)
    except ValueError:
        raise RoundFailed("child printed no result: %s" % err.strip()[-1500:])
    result["setup_s"] = result["ready"] - t0
    return result


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(args: argparse.Namespace, argvs: List[List[str]]) -> dict:
    parallel = {argv[argv.index("--parallel") + 1] for argv in argvs if "--parallel" in argv}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "parallel": sorted(parallel) or None,  # the --parallel values the calls pass
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def at_reference_speed(seconds: float, kernel: float) -> float:
    """A time scaled to the speed at which the reference kernel takes KERNEL_REF_S."""
    return seconds * KERNEL_REF_S / kernel


def latencies(ps: dict, reference_speed: bool = True) -> List[float]:
    """A pass's call latencies, each scaled by the kernel timed around it."""
    if not reference_speed:
        return ps["latency"]
    k = ps["kernel_s"]
    return [at_reference_speed(t, (k[i] + k[i + 1]) / 2) for i, t in enumerate(ps["latency"])]


def per_call_medians(rounds: List[dict], pass_index: int, reference_speed: bool = True) -> List[float]:
    """Each call's median latency over the rounds.

    Per-call medians shed the rounds a burst of machine noise slowed down,
    which a median of whole-pass totals does only when most of a pass is hit.
    """
    columns = zip(*(latencies(r["passes"][pass_index], reference_speed) for r in rounds))
    return [statistics.median(col) for col in columns]


def tail(values: List[float]) -> Tuple[float, float]:
    """(value, percentile): the highest nearest-rank percentile with at least
    ten samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    i = n - 11 if n > 10 else n - 1
    return ordered[i], 100.0 * (i + 1) / n


def divisor_tests(calls: List[dict], outputs: List[str], refuted: Dict[int, str]) -> int:
    """(element, admissible prime) tests the sweep calls made, from their outputs.

    Failed and refuted calls count none: their output may not even parse.
    """
    total = 0
    for i, (spec, text) in enumerate(zip(calls, outputs)):
        per_prime = ELEMENTS_PER_PRIME.get(spec["kind"])
        if per_prime is None or i in refuted:
            continue
        out = json.loads(text)
        rows = out["rows"] if spec["kind"] == "table3" else [out]
        total += sum(per_prime * row["eligible"] for row in rows)
    return total


def end_to_end(calls, setups, rounds, outputs, refuted, attempted, failed) -> Tuple[dict, dict]:
    """End-to-end metrics, at reference speed; details and raw wall times."""
    cold = per_call_medians(rounds, 0)
    warm = per_call_medians(rounds, 1)
    cold_s = sum(cold)
    tail_s, pct = tail(cold)
    tests = divisor_tests(calls, outputs, refuted)
    raw_cold = per_call_medians(rounds, 0, reference_speed=False)
    metrics = {
        "setup_s": statistics.median(at_reference_speed(r["setup_s"], r["kernel_s"]) for r in setups),
        "cold_s": cold_s,
        "warm_s": sum(warm),
        "call_p50_ms": 1000 * statistics.median(cold),
        "call_tail_ms": 1000 * tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        "divisor_tests_per_s": tests / cold_s if tests else None,
        "fail_ratio": failed / attempted,
    }
    detail = {
        "tail_percentile": pct, "calls_per_pass": len(cold), "rounds": len(rounds),
        "setup_samples": len(setups), "divisor_tests": tests,
        "wall": {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "cold_s": sum(raw_cold),
            "warm_s": sum(per_call_medians(rounds, 1, reference_speed=False)),
            "call_p50_ms": 1000 * statistics.median(raw_cold),
            "call_tail_ms": 1000 * tail(raw_cold)[0],
        },
        "kernel_s_median": statistics.median(k for r in rounds for ps in r["passes"] for k in ps["kernel_s"]),
        "cold_pass_totals_s": [sum(r["passes"][0]["latency"]) for r in rounds],
        "warm_pass_totals_s": [sum(r["passes"][1]["latency"]) for r in rounds],
    }
    return metrics, detail


def per_layer(rounds: List[dict], traced: List[dict]) -> dict:
    """Per-layer metrics: medians over the traced rounds, plus the overhead."""
    each = [spans.per_layer_metrics(r["spans"]) for r in traced]
    metrics = {name: statistics.median(m[name] for m in each) for name in each[0]}
    metrics["trace.cold_s"] = sum(per_call_medians(traced, 0))
    metrics["trace.overhead_s"] = metrics["trace.cold_s"] - sum(per_call_medians(rounds, 0))
    return metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run_rounds(args, argvs: List[str], setups: List[dict], start: float) -> Tuple[List[dict], List[dict], List[str]]:
    """Closed loop of rounds for --seconds; returns untraced, traced, and
    why a round failed, if one did (it ends the loop)."""
    rounds: List[dict] = []
    traced: List[dict] = []
    problems: List[str] = []
    loop_start = time.monotonic()
    while True:
        n = len(rounds) + len(traced)
        trace_turn = bool(args.trace) and n % 2 == 1
        request = {"calls": argvs, "passes": 1 if trace_turn else 2,
                   "trace": trace_turn, "keep_outputs": n == 0}
        try:
            result = spawn("run", request, HARD_LIMIT_S + 15 - (time.monotonic() - start))
        except RoundFailed as exc:
            problems.append(str(exc))
            break
        setups.append(result)
        (traced if trace_turn else rounds).append(result)
        now = time.monotonic()
        per_round = (now - loop_start) / (n + 1)
        if args.trace:
            enough = min(len(rounds), len(traced)) >= MIN_TRACE_ROUNDS
        else:
            enough = len(rounds) >= MIN_ROUNDS
        if enough and now + per_round > loop_start + args.seconds:
            break
        if now + per_round > start + HARD_LIMIT_S:  # fewer rounds rather than a late result
            break
    return rounds, traced, problems


def golden_hash(workload: str, seed: int) -> Optional[str]:
    """The recorded output hash of `workload` at `seed`, if golden.json has one."""
    try:
        golden = json.loads(GOLDEN.read_text())
    except (OSError, ValueError):
        return None
    return golden["sha256"].get(workload) if golden.get("seed") == seed else None


def run(args: argparse.Namespace) -> int:
    start = time.monotonic()
    calls = workloads.generate(args.workload, args.seed)
    argvs = [c["argv"] for c in calls]
    facts = machine_facts(args, argvs)

    setups: List[dict] = []
    try:
        for _ in range(SETUP_SPAWNS):
            setups.append(spawn("setup", None, 60))
    except RoundFailed as exc:
        print("perfbench: seqlab does not start: %s" % exc, file=sys.stderr)
        return 1

    rounds, traced, problems = run_rounds(args, argvs, setups, start)
    if not rounds or (args.trace and not traced):
        print("perfbench: no %sround completed: %s" % ("traced " if rounds else "", "; ".join(problems)),
              file=sys.stderr)
        return 1

    # correctness, outside the timed passes
    first = rounds[0]["passes"][0]
    outputs = first["outputs"]
    reference = first["digests"]
    output_hash = hashlib.sha256("".join(reference).encode()).hexdigest()
    refuted = {i: "exit %s: %s" % (code, first["errors"].get(str(i), "").strip()[-300:])
               for i, code in enumerate(first["codes"]) if code != 0}
    for i, why in oracle.check_calls(calls, outputs, args.seed).items():
        refuted.setdefault(i, why)
    attempted = failed = 0
    for result in rounds + traced:
        for ps in result["passes"]:
            for i, (code, digest) in enumerate(zip(ps["codes"], ps["digests"])):
                attempted += 1
                if code != 0 or digest != reference[i] or i in refuted:
                    failed += 1
    if problems:  # a round that did not finish: its calls count as failed
        attempted += len(argvs)
        failed += len(argvs)
    golden = golden_hash(args.workload, args.seed)
    if golden is not None and golden != output_hash:
        problems.append("output hash %s differs from golden %s" % (output_hash, golden))
        failed = attempted

    metrics, detail = end_to_end(calls, setups, rounds, outputs, refuted, attempted, failed)
    layers = per_layer(rounds, traced) if args.trace else None
    if refuted:
        detail["refuted"] = {str(i): "%s: %s" % (" ".join(argvs[i]), why) for i, why in sorted(refuted.items())[:10]}
    if traced:
        detail["missing_sites"] = traced[0]["missing_sites"]
        detail["spans_per_traced_round"] = traced[0]["span_count"]
    detail["output_sha256"] = output_hash
    detail["golden_sha256"] = golden
    detail["problems"] = problems
    detail["wall_s"] = time.monotonic() - start

    report(args, facts, metrics, detail, layers, attempted, failed)
    record = {"facts": facts, "metrics": metrics, "per_layer": layers, "detail": detail,
              "attempted": attempted, "failed": failed}
    print(RECORD_PREFIX + json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(metrics, layers, attempted, failed, failed == 0 and not problems)))
    return 0


def result_line(metrics: dict, layers: Optional[dict], attempted: int, failed: int, correct: bool) -> dict:
    """The last line: every per-layer metric of a traced run, else every end-to-end one."""
    if layers is not None:
        chosen = {k: (v, spans.unit(k)) for k, v in layers.items()}
    else:
        chosen = {k: (metrics[k], unit) for k, unit in END_TO_END.items()}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in chosen.items()},
    }


def report(args, facts, metrics, detail, layers, attempted, failed) -> None:
    print("perfbench %s  seed %d  %d rounds of %d calls  (nproc %s, python %s, load %.2f)"
          % (args.workload, args.seed, detail["rounds"], detail["calls_per_pass"],
             facts["nproc"], facts["python"], facts["loadavg_start"][0]))
    units = dict(END_TO_END, **REPORTED)
    for name, unit in units.items():
        value = metrics[name]
        text = "n/a (no divisor tests)" if value is None else "%.6g %s" % (value, unit)
        if name == "call_tail_ms":
            text += "  (p%.1f of %d calls, each the median of %d rounds)" % (
                detail["tail_percentile"], detail["calls_per_pass"], detail["rounds"])
        if name == "fail_ratio":
            text += "  (%d of %d calls)" % (failed, attempted)
        print("  %-22s %s" % (name, text))
    for name, value in sorted((layers or {}).items()):
        print("  %-30s %.6g %s" % (name, value, spans.unit(name)))
    for why in list(detail.get("refuted", {}).values()) + detail["problems"]:
        print("  FAILED: %s" % why)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    # a terminated run unwinds through spawn(), which kills the round it waits on
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "seqlab" / "cli.py").is_file():
        print("perfbench: no seqlab source at %s" % SRC, file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
