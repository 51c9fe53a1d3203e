"""The package raises its own errors: every `raise` in its source names a
`ShortsightError` subclass, which the CLI reports with exit 2, outside a few
named sites that raise a builtin type their callers expect."""

import ast
from pathlib import Path

import shortsight
from shortsight import errors

# (module, function, raised type) of each raise of another type: the
# label-keyed builders refuse unknown labels with ValueError, the lookups
# raise KeyError or IndexError, the exact coercions refuse a float or an
# unknown type with TypeError, and the CLI's flag readers raise argparse's
# own error, which argparse turns into a usage error.
ALLOWED = {
    ("mdp", "build_mdp", "ValueError"),
    ("mdp", "make_stationary", "ValueError"),
    ("mdp", "make_nonstationary", "ValueError"),
    ("mdp", "TabularMDP.index", "KeyError"),
    ("mdp", "TabularMDP.action_index", "KeyError"),
    ("observation", "SegmentDistribution.table", "KeyError"),
    ("offline", "EmpiricalSegmentStats.counts", "KeyError"),
    ("mdp", "policy_at_index", "IndexError"),
    ("mdp", "rational", "TypeError"),
    ("serialize", "_scalar", "TypeError"),
    ("cli", "_rational_arg", "argparse.ArgumentTypeError"),
    ("cli", "_integer_arg", "argparse.ArgumentTypeError"),
}

OWN = {name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.ShortsightError)}


def raised(source: str) -> list[tuple[str | None, int, str]]:
    """(qualified name of the enclosing function, line, raised type) for each
    `raise` in `source` that names what it raises; the name is None at
    module level, and a bare re-raise is skipped."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                found.append((scope, child.lineno, ast.unparse(exc)))
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_the_scan_names_each_raise_and_its_function():
    source = (
        "raise SystemExit\n"
        "def f(x):\n"
        "    raise ValueError(x) from None\n"
        "class C:\n"
        "    def g(self):\n"
        "        try:\n"
        "            pass\n"
        "        except KeyError:\n"
        "            raise\n"
        "        def h():\n"
        "            raise argparse.ArgumentTypeError('no')\n"
    )
    assert raised(source) == [
        (None, 1, "SystemExit"),
        ("f", 3, "ValueError"),
        ("C.g.h", 11, "argparse.ArgumentTypeError"),
    ]


def test_the_package_raises_its_own_errors_outside_named_sites():
    found, allowed = [], set()
    for path in sorted(Path(shortsight.__file__).parent.glob("*.py")):
        for scope, line, kind in raised(path.read_text(encoding="utf-8")):
            if kind in OWN:
                continue
            if (path.stem, scope, kind) in ALLOWED:
                allowed.add((path.stem, scope, kind))
            else:
                found.append(f"{path.name}:{line} ({scope}): raises {kind}")
    assert found == []
    assert allowed == ALLOWED  # every allowed site still raises
