"""One benchmark round, in a fresh interpreter.

Started by run.py with the call list on stdin and `src/` on PYTHONPATH.
It imports seqlab and builds the CLI parser (the end of set-up), then runs
the calls through `seqlab.cli.main` one after another: a cold pass and,
unless told otherwise, an identical warm pass.  It prints one JSON object:
when set-up ended, per-pass latencies, reference-kernel times (after
set-up, and before, between and after the calls of each pass), exit codes
and output digests, peak RSS, and, when tracing, the span summary of the
cold pass.

    python3 perfbench/child.py setup       # set-up only
    python3 perfbench/child.py run < request.json
"""

import time

from seqlab import cli

cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

SEVEN_THIRDS = Fraction(7, 3)


def kernel_s():
    """Seconds a fixed bit of Fraction and modular arithmetic takes, best of three.

    It is the benchmark's own code, never seqlab's, so its time tracks how
    fast the machine runs Python at that moment, and nothing else.
    """
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        a, b = Fraction(0), Fraction(1)
        for _ in range(8):
            a, b = b, SEVEN_THIRDS * b - a
        x, y = 0, 1
        for _ in range(1500):
            x, y = y, (5 * y - x) % 20011
        best = min(best, clock() - t0)
    return best


def run_pass(calls, keep_outputs):
    """Run the calls in turn; the kernel is timed before, between and after them."""
    latency, codes, digests, outputs, errors = [], [], [], [], {}
    kernel = [kernel_s()]
    clock = time.perf_counter
    for i, argv in enumerate(calls):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed call, not a crash of the round
                code = "raised"
                errors[i] = traceback.format_exc(limit=4)
            t1 = clock()
        kernel.append(kernel_s())
        text = out.getvalue()
        latency.append(t1 - t0)
        codes.append(code)
        digests.append(hashlib.sha256(("%s\0%s" % (code, text)).encode()).hexdigest())
        if keep_outputs:
            outputs.append(text)
        if code != 0 and i not in errors:
            errors[i] = err.getvalue()[-2000:]
    return {"latency": latency, "kernel_s": kernel, "codes": codes, "digests": digests,
            "outputs": outputs if keep_outputs else None, "errors": errors}


def main():
    result = {"ready": READY, "kernel_s": kernel_s()}
    if sys.argv[1:] == ["run"]:
        request = json.load(sys.stdin)
        tracer = None
        if request.get("trace"):
            from spans import Tracer

            tracer = Tracer().install()
        passes = [run_pass(request["calls"], request.get("keep_outputs", False))]
        if tracer is not None:
            tracer.uninstall()
            result["spans"] = tracer.summary()
            result["span_count"] = len(tracer.start)
            result["missing_sites"] = tracer.missing
        for _ in range(request.get("passes", 2) - 1):
            passes.append(run_pass(request["calls"], False))
        result["passes"] = passes
    elif sys.argv[1:] != ["setup"]:
        sys.exit("usage: child.py setup|run")
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result["peak_rss_mb"] = kb / 1024.0
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
