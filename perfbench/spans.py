"""Span recording around the layer boundaries of seqlab, from outside it.

A `Tracer` replaces functions at the names the calling modules bind (for
example `seqlab.lab.is_divisor`, the name `lab` calls, besides
`seqlab.modp.is_divisor`) with wrappers that record one span per call:
name, start, end and the span open when it began (its parent).  The
`cli` span around each `seqlab.cli.main` call is the root, so spans of one
call share its index as their request identifier.

Spans stay in memory, in flat arrays, until `summary()` folds them into
per-name totals.  Self time is a span's duration minus the durations of its
direct children.  A binding site missing from the program (a function
renamed or removed by a later change) is skipped and listed in `missing`.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from typing import Callable, Dict, List, Tuple

# span name -> binding sites "module:attribute"; the layer is the prefix
# before the first dot
SITES: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("cli", ("seqlab.cli:main",)),
    ("primes.primes_below", ("seqlab.primes:primes_below",)),
    ("primes.odd_primes_below", ("seqlab.primes:odd_primes_below", "seqlab.lab:odd_primes_below")),
    ("primes.first_odd_primes", ("seqlab.primes:first_odd_primes", "seqlab.lab:first_odd_primes")),
    ("primes.is_prime", ("seqlab.primes:is_prime",)),
    ("lab.window_split", ("seqlab.lab:window_split",)),
    ("lab.flags", ("seqlab.lab:divisor_flags",)),
    ("lab.check", ("seqlab.lab:partition_six", "seqlab.lab:cubic_partition")),
    ("lab.sweep", ("seqlab.lab:gamma", "seqlab.lab:independence_report", "seqlab.lab:table3")),
    ("modp.admissible", ("seqlab.lab:in_admissible_set", "seqlab.modp:in_admissible_set")),
    ("modp.context", ("seqlab.modp:modp_context",)),
    ("modp.divisor", ("seqlab.lab:is_divisor", "seqlab.modp:is_divisor")),
    ("ring.mul", ("seqlab.ring:RingElement.__mul__",)),
    ("ring.term", ("seqlab.ring:RingElement.term", "seqlab.ring:RingElement.terms", "seqlab.ring:u_pair")),
    ("ring.chebyshev", ("seqlab.ring:chebyshev_c", "seqlab.ring:chebyshev_u",
                        "seqlab.group:chebyshev_c", "seqlab.group:chebyshev_u")),
    ("transforms.classify", ("seqlab.transforms:classify_cyclotomic", "seqlab.cli:classify_cyclotomic",
                             "seqlab.group:classify_cyclotomic", "seqlab.laxton:classify_cyclotomic",
                             "seqlab.lab:classify_cyclotomic")),
    ("group.from_pair", ("seqlab.group:GroupElement.from_pair",)),
    ("group.mul", ("seqlab.group:GroupElement.__mul__",)),
    ("group.pow", ("seqlab.group:GroupElement.__pow__",)),
    ("group.primitivity", ("seqlab.group:primitivity", "seqlab.cli:primitivity", "seqlab.laxton:primitivity")),
    ("group.decomposition", ("seqlab.group:maximal_decomposition", "seqlab.cli:maximal_decomposition",
                             "seqlab.laxton:maximal_decomposition")),
    ("group.sqrt", ("seqlab.group:group_sqrt", "seqlab.cli:group_sqrt")),
    ("group.torsion", ("seqlab.group:torsion_l", "seqlab.laxton:torsion_l")),
    ("laxton.eq", ("seqlab.laxton:laxton_eq", "seqlab.cli:laxton_eq")),
    ("laxton.canonical", ("seqlab.laxton:canonical_coset_rep",)),
    ("laxton.torsion", ("seqlab.laxton:laxton_torsion", "seqlab.cli:laxton_torsion")),
    ("laxton.d_power", ("seqlab.laxton:d_power_class",)),
)

# spans whose wrapper also counts calls repeating an earlier argument key
KEYED = {"modp.context": lambda args, kwargs: (args[0], args[1])}


class Tracer:
    """Installs span-recording wrappers; `uninstall` puts the originals back."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.seen: Dict[str, set] = {}
        self.repeats: Dict[str, int] = {}
        self.installed: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        key = KEYED.get(name)
        if key is not None:
            seen = self.seen.setdefault(name, set())
            self.repeats[name] = 0

        def traced(*args, **kwargs):
            if key is not None:
                k = key(args, kwargs)
                if k in seen:
                    self.repeats[name] += 1
                else:
                    seen.add(k)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def install(self) -> "Tracer":
        for name, sites in SITES:
            wrappers: Dict[int, object] = {}
            for site in sites:
                module_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(site)
                    continue
                if isinstance(raw, classmethod):
                    fn = raw.__func__
                    new = wrappers.get(id(fn)) or classmethod(self.wrap(name, fn))
                else:
                    fn = raw
                    new = wrappers.get(id(fn)) or self.wrap(name, fn)
                wrappers[id(fn)] = new
                self.installed.append((owner, attr, raw))
                setattr(owner, attr, new)
        # pool workers forked while tracing run untraced; their spans would
        # never reach this process
        os.register_at_fork(after_in_child=self.uninstall)
        return self

    def uninstall(self) -> None:
        while self.installed:
            owner, attr, raw = self.installed.pop()
            setattr(owner, attr, raw)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, self_s, wall_s (outermost spans only), repeats."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0, "wall_s": 0.0} for name in self.names
        }
        name_of, names = self.name_of, self.names
        for i in range(n):
            name = names[name_of[i]]
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            p = parent[i]
            if p < 0 or names[name_of[p]] != name:
                rec["wall_s"] += dur[i]
        for name, count in self.repeats.items():
            out[name]["repeats"] = count
        return out


def unit(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if metric.endswith(".calls") or metric.endswith(".steps_per_call"):
        return "count"
    if metric.endswith(".us_per_call"):
        return "us"
    if metric.endswith("_ratio"):
        return "ratio"
    return "s"


# per-layer metrics, "<span or layer>.<field>": the field summed over the
# spans of that name or under it ("modp.self_s" covers every modp span)
PER_LAYER = (
    "cli.self_s",
    "primes.calls", "primes.self_s", "primes.is_prime.calls",
    "lab.self_s", "lab.window_split.calls", "lab.window_split.self_s",
    "lab.flags.self_s", "lab.flags.wall_s", "lab.check.self_s",
    "modp.self_s", "modp.admissible.calls", "modp.admissible.self_s",
    "modp.context.calls", "modp.context.self_s", "modp.context.reuse_ratio",
    "modp.divisor.calls", "modp.divisor.self_s", "modp.divisor.us_per_call",
    "ring.self_s", "ring.mul.calls", "ring.mul.self_s", "ring.term.calls", "ring.term.self_s",
    "ring.chebyshev.self_s",
    "transforms.self_s", "transforms.classify.calls", "transforms.classify.self_s",
    "group.self_s", "group.from_pair.calls", "group.from_pair.self_s", "group.mul.calls",
    "group.mul.self_s", "group.pow.calls", "group.primitivity.calls", "group.primitivity.self_s",
    "laxton.self_s", "laxton.eq.calls", "laxton.eq.self_s", "laxton.eq.steps_per_call",
    "laxton.canonical.self_s", "laxton.torsion.self_s",
)


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# the metrics that are not one field of one span
DERIVED = {
    # repeated (t, p) keys over calls
    "modp.context.reuse_ratio": lambda get: ratio(get("modp.context", "repeats"), get("modp.context", "calls")),
    # inclusive time per divisor test
    "modp.divisor.us_per_call": lambda get: 1e6 * ratio(get("modp.divisor", "wall_s"), get("modp.divisor", "calls")),
    # search work per answer: d_power_class calls per laxton_eq call
    "laxton.eq.steps_per_call": lambda get: ratio(get("laxton.d_power", "calls"), get("laxton.eq", "calls")),
}


def per_layer_metrics(spans: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """PER_LAYER, from `Tracer.summary()`; a name with no spans reads 0."""

    def get(span: str, field: str) -> float:
        return sum(rec.get(field, 0) for name, rec in spans.items()
                   if name == span or name.startswith(span + "."))

    out = {}
    for metric in PER_LAYER:
        if metric in DERIVED:
            out[metric] = DERIVED[metric](get)
        else:
            span, _, field = metric.rpartition(".")
            out[metric] = get(span, field)
    return out
