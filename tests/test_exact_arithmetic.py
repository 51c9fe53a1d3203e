"""The package's arithmetic is exact: no float literal, `float(...)` call or
true division appears in its source, outside two named functions."""

import ast
from pathlib import Path

import shortsight

# The sampler's float thresholds (`offline._cdf`), and halving a Fraction sum
# (`offline.tv_distance`).
EXEMPT = {("offline", "_cdf"), ("offline", "tv_distance")}


def inexact(source: str) -> list[tuple[str | None, int, str]]:
    """(top-level name, line, what) for each float literal, `float(...)`
    call and true division in `source`; the name is None at module level."""
    found = []
    for stmt in ast.parse(source).body:
        name = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append((name, node.lineno, f"float literal {node.value!r}"))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append((name, node.lineno, "float(...) call"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append((name, node.lineno, "true division"))
    return found


def test_the_scan_sees_each_inexact_form():
    source = "X = 1 / 3\n\ndef f(x):\n    x /= 2\n    return float(x) + 0.5\n"
    assert sorted(inexact(source), key=lambda found: found[1:]) == [
        (None, 1, "true division"),
        ("f", 4, "true division"),
        ("f", 5, "float literal 0.5"),
        ("f", 5, "float(...) call"),
    ]
    assert inexact("def f(x):\n    return x // 2 + 1\n") == []


def test_no_float_enters_the_package_outside_its_exempt_functions():
    found, exempt = [], set()
    for path in sorted(Path(shortsight.__file__).parent.glob("*.py")):
        for name, line, what in inexact(path.read_text(encoding="utf-8")):
            if (path.stem, name) in EXEMPT:
                exempt.add((path.stem, name))
            else:
                found.append(f"{path.name}:{line} ({name}): {what}")
    assert found == []
    assert exempt == EXEMPT  # every exemption is still needed
