"""The package surface: what `seqlab` exports, and where its modules import."""

import ast
import multiprocessing
import os
import pickle
import types

import seqlab
from seqlab import lab

SRC = os.path.dirname(seqlab.__file__)


def test_all_is_unique_and_resolves():
    assert len(seqlab.__all__) == len(set(seqlab.__all__))
    for name in seqlab.__all__:
        assert hasattr(seqlab, name), name


def test_all_equals_the_public_names_bound():
    bound = {
        name for name, value in vars(seqlab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(seqlab.__all__) == bound


def test_no_import_inside_a_function():
    found = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [
                    "%s:%d" % (fname, node.lineno) for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_only_primes_reads_its_table():
    """The sieve table is read through primes.is_prime and primes.factorize
    alone: no other module names `_table`, as an attribute or an import."""
    found = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py") or fname == "primes.py":
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in ast.walk(tree):
            names = (
                [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            found += ["%s:%d" % (fname, node.lineno) for name in names if name == "_table"]
    assert found == []


def test_no_unused_import():
    """Every name a module imports is used in it; only __init__ re-exports."""
    found = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py") or fname == "__init__.py":
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                found += ["%s:%s" % (fname, name) for name in names if name not in used]
    assert found == []


def test_one_pool_start():
    """Every worker pool starts in one place: src/ calls multiprocessing.Pool
    once, in lab, under any spelling of the call."""
    found = []
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                found += ["%s:%d" % (fname, node.lineno)] if name == "Pool" else []
    assert len(found) == 1 and found[0].startswith("lab.py:"), found


def test_a_window_pickles_as_its_mode_and_size():
    window = lab.PrimeWindow("below", 5000)
    primes = window.primes()
    copy = pickle.loads(pickle.dumps(window))
    assert copy == window
    assert "_sieved" not in vars(copy)
    assert copy.primes() == primes


def test_pooled_table3_reports_carry_no_window_primes(monkeypatch):
    """The rows run on a pool, and the reports sent back hold their window
    as its mode and size, not a copy of its primes."""
    window = lab.PrimeWindow("first", lab.POOL_MIN_ROWS // len(lab.TABLE3_ROWS))
    starts, real_pool = [], multiprocessing.get_context().Pool
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "Pool", lambda n: starts.append(n) or real_pool(n))
    reports = lab.table3(window)
    assert starts == [2]
    for rep in reports:
        assert rep.window == window
        assert "_sieved" not in vars(rep.window)
