"""Rules that every module under ``src/`` keeps, read off its syntax tree."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules():
    for path in sorted((ROOT / "src").rglob("*.py")):
        yield path.relative_to(ROOT), ast.parse(path.read_text(encoding="utf-8"))


def test_no_assert_statements():
    # python -O strips asserts, so no check of the program may be one
    found = [
        f"{path}:{node.lineno}"
        for path, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_function_calls_itself():
    # formulas of any depth must not reach the interpreter's recursion
    # limit, so no function calls itself: by name, or as a method through
    # self or cls (a method calling a module function of the same name is
    # no hit)
    found = []
    for path, tree in _modules():
        methods = {
            id(f)
            for c in ast.walk(tree)
            if isinstance(c, ast.ClassDef)
            for f in c.body
            if isinstance(f, DEFS)
        }
        for func in (f for f in ast.walk(tree) if isinstance(f, DEFS)):
            for call in (c for c in ast.walk(func) if isinstance(c, ast.Call)):
                target = call.func
                if id(func) in methods:
                    hit = (
                        isinstance(target, ast.Attribute)
                        and target.attr == func.name
                        and isinstance(target.value, ast.Name)
                        and target.value.id in ("self", "cls")
                    )
                else:
                    hit = isinstance(target, ast.Name) and target.id == func.name
                if hit:
                    found.append(f"{path}:{call.lineno}: {func.name} calls itself")
    assert found == []


def test_integer_arithmetic_only():
    # every number the package computes is an int: a float rounds a forged
    # sum into balance, and a rational has an exact integer form over a
    # common denominator
    found = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] in ("fractions", "decimal") for m in modules):
                found.append(f"{path}:{node.lineno}: imports {', '.join(modules)}")
            elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
                found.append(f"{path}:{node.lineno}: constant {node.value!r}")
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path}:{node.lineno}: true division")
    assert found == []
