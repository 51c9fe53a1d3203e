"""The engine's class walk serves the checkers only: every use of
`_Engine.walk` in the package's source is in `sufficiency.py`, as a call or
a `functools.partial` that passes a cap. A single policy takes its own
forward pass (`observation._walk_policy`), not a walk of a class of one."""

import ast
import inspect
from pathlib import Path

import shortsight
from shortsight.observation import _Engine


def walk_uses(source: str) -> list[tuple[int, list[ast.expr] | None]]:
    """(line, positional arguments) of each `.walk` attribute in `source`:
    the arguments of the call it is the callee of, or those after it in a
    `partial(...)` call; None for a use of another kind."""
    tree, bound = ast.parse(source), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "walk":
                bound[id(node.func)] = node.args
            if isinstance(node.func, ast.Name) and node.func.id == "partial" and node.args:
                bound[id(node.args[0])] = node.args[1:]
    return [
        (node.lineno, bound.get(id(node)))
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "walk"
    ]


def capped(args: list[ast.expr] | None) -> bool:
    """Whether positional arguments (stationary, cap, ...) pass a cap."""
    return args is not None and len(args) >= 2 and not (isinstance(args[1], ast.Constant) and args[1].value is None)


def test_the_scan_reads_calls_and_partials():
    source = (
        "engine.walk(True, cap)\n"
        "walk = partial(engine.walk, stationary, cap)\n"
        "engine.walk(stationary, None, cap)\n"
        "engine.walk(stationary)\n"
        "hooks = [engine.walk]\n"
    )
    uses = walk_uses(source)
    assert [line for line, _ in uses] == [1, 2, 3, 4, 5]
    assert [capped(args) for _, args in uses] == [True, True, False, False, False]


def test_the_class_walk_is_called_only_by_the_checkers_with_a_cap():
    found, seen = [], set()
    for path in sorted(Path(shortsight.__file__).parent.glob("*.py")):
        for line, args in walk_uses(path.read_text(encoding="utf-8")):
            seen.add(path.name)
            if path.name != "sufficiency.py" or not capped(args):
                found.append(f"{path.name}:{line}")
    assert found == []
    assert seen == {"sufficiency.py"}
    assert inspect.signature(_Engine.walk).parameters["cap"].default is inspect.Parameter.empty
