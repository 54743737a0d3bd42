"""Constrained feature-extraction expression language.

Proposed features are numeric expressions over observation fields,
never code. The language supports field access, number literals,
threshold indicators (comparisons), and bounded arithmetic (+ - * /,
min, max, clamp, abs). One recursive pass over the expression's Python
``ast`` checks each node against a strict whitelist and builds, from the
checked nodes alone, the tree of one Python function of the namespace,
compiled once. In that function a field name is only a string key read
through ``_number``, a literal only a float constant (so ``1e999`` stays
infinite), ``/`` is ``_divide``, a comparison is ``1.0 if ... else 0.0``,
and its globals hold its helpers and no builtins, so evaluation is
deterministic and side-effect free.

Missing fields never produce errors: a field that is missing or not a
number reads as 0.0. Division by zero evaluates to 0.0.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import numpy as np

Namespace = Dict[str, Any]
Fn = Callable[[Namespace], float]

# name -> (min args, max args or None, the function a call of that name runs)
_FUNCS = {
    "min": (2, None, min),
    "max": (2, None, max),
    "clamp": (3, 3, lambda value, low, high: min(max(value, low), high)),
    "abs": (1, 1, abs),
}

# Field values read as numbers: Python's and numpy's scalars, the Python
# float first (observations hold floats). numpy's str_ is a str, never one.
NUMBER_TYPES = (float, int, np.floating, np.integer, np.bool_)

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)
_CMPOPS = (ast.Gt, ast.GtE, ast.Lt, ast.LtE, ast.Eq, ast.NotEq)


def _number(ns: Namespace, name: str) -> float:
    """The field ``name`` as a float; missing and text read 0.0."""
    value = ns.get(name)
    if type(value) is float:  # observations hold floats
        return value
    return float(value) if isinstance(value, NUMBER_TYPES) else 0.0


def _divide(left: float, right: float) -> float:
    return 0.0 if right == 0.0 else left / right


# Everything a compiled expression can name besides its namespace ``ns``.
_GLOBALS = {"__builtins__": {}, "_number": _number, "_divide": _divide,
            **{name: function for name, (_, _, function) in _FUNCS.items()}}


class DslError(ValueError):
    """Expression rejected by the parser or validator."""


@dataclass(frozen=True)
class CompiledExpr:
    source: str
    fn: Fn = field(repr=False, compare=False)

    def __call__(self, namespace: Namespace) -> float:
        return self.fn(namespace)


def parse_expr(source: str) -> CompiledExpr:
    """Parse and compile one expression; raises DslError on anything
    outside the whitelisted grammar."""
    if not isinstance(source, str) or not source.strip():
        raise DslError("empty expression")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise DslError(f"syntax error in {source!r}: {exc.msg}") from exc
    args = ast.arguments(posonlyargs=[], args=[ast.arg("ns")], kwonlyargs=[], kw_defaults=[], defaults=[])
    function = ast.Expression(ast.Lambda(args, _compile(tree.body, source)))
    fn = eval(compile(ast.fix_missing_locations(function), "<dsl>", "eval"), _GLOBALS)
    return CompiledExpr(source=source, fn=fn)


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _compile(node: ast.AST, source: str) -> ast.expr:
    """Check one node (children left to right) and build its part of the
    compiled function from what was checked."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise DslError(f"{source!r}: literal {node.value!r} is not a number")
        return ast.Constant(float(node.value))
    if isinstance(node, ast.Name):
        return _call("_number", ast.Name("ns", ast.Load()), ast.Constant(node.id))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, source)
        return operand if isinstance(node.op, ast.UAdd) else ast.UnaryOp(ast.USub(), operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        left, right = _compile(node.left, source), _compile(node.right, source)
        return _call("_divide", left, right) if isinstance(node.op, ast.Div) else ast.BinOp(left, type(node.op)(), right)
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or not isinstance(node.ops[0], _CMPOPS):
            raise DslError(f"{source!r}: only single two-sided comparisons are allowed")
        test = ast.Compare(_compile(node.left, source), [type(node.ops[0])()], [_compile(node.comparators[0], source)])
        return ast.IfExp(test, ast.Constant(1.0), ast.Constant(0.0))
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name):
            raise DslError(f"{source!r}: only plain function calls are allowed")
        if node.keywords:
            raise DslError(f"{source!r}: keyword arguments are not allowed")
        name = node.func.id
        if name not in _FUNCS:
            raise DslError(f"{source!r}: unknown function {name!r}")
        lo, hi, _ = _FUNCS[name]
        if len(node.args) < lo or (hi is not None and len(node.args) > hi):
            raise DslError(f"{source!r}: {name} takes {lo}{'' if hi == lo else '+'} arguments")
        return _call(name, *(_compile(a, source) for a in node.args))
    raise DslError(f"{source!r}: node {type(node).__name__} is not part of the feature language")
