"""The package surface: what `seqlab` exports, and where its modules import."""

import ast
import os
import types

import seqlab

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
