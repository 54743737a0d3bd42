"""Constrained feature-extraction expression language.

Proposed features are expressions over observation fields, never code.
The language supports numeric field access, keyword/regex counting and
length over text fields, threshold indicators (comparisons), and bounded
arithmetic. One recursive pass over the expression's Python ``ast``
checks each node against a strict whitelist and compiles it to a
closure, so evaluation is deterministic and side-effect free.

Missing fields never produce errors: numeric access defaults to 0.0 and
text access to the empty string. Division by zero evaluates to 0.0.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

import numpy as np

Namespace = Dict[str, Any]
Fn = Callable[[Namespace], float]

# name -> (min args, max args or None, value from the argument values, passed positionally)
_NUMERIC_FUNCS = {
    "min": (2, None, min),
    "max": (2, None, max),
    "clamp": (3, 3, lambda value, low, high: min(max(value, low), high)),
    "abs": (1, 1, abs),
}
_TEXT_FUNCS = {"keyword_count": 2, "regex_count": 2, "length": 1}

# Field values read as numbers: Python's and numpy's scalars, the Python
# float first (observations hold floats). numpy's str_ is a str, never one.
NUMBER_TYPES = (float, int, np.floating, np.integer, np.bool_)

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: lambda left, right: 0.0 if right == 0.0 else left / right}
_CMPOPS = {ast.Gt: operator.gt, ast.GtE: operator.ge, ast.Lt: operator.lt,
           ast.LtE: operator.le, ast.Eq: operator.eq, ast.NotEq: operator.ne}


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
    return CompiledExpr(source=source, fn=_compile(tree.body, source))


def _compile(node: ast.AST, source: str) -> Fn:
    """Check one node (children left to right) and return its evaluator."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise DslError(f"{source!r}: literal {node.value!r} outside a text function")
        value = float(node.value)
        return lambda ns: value
    if isinstance(node, ast.Name):
        name = node.id

        def read(ns: Namespace) -> float:
            value = ns.get(name)  # missing, text and other non-numbers read 0.0
            return float(value) if isinstance(value, NUMBER_TYPES) else 0.0

        return read
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, source)
        return operand if isinstance(node.op, ast.UAdd) else lambda ns: -operand(ns)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        binop = _BINOPS[type(node.op)]
        left, right = _compile(node.left, source), _compile(node.right, source)
        return lambda ns: binop(left(ns), right(ns))
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or type(node.ops[0]) not in _CMPOPS:
            raise DslError(f"{source!r}: only single two-sided comparisons are allowed")
        cmpop = _CMPOPS[type(node.ops[0])]
        left, right = _compile(node.left, source), _compile(node.comparators[0], source)
        return lambda ns: float(cmpop(left(ns), right(ns)))
    if isinstance(node, ast.Call):
        return _compile_call(node, source)
    raise DslError(f"{source!r}: node {type(node).__name__} is not part of the feature language")


def _compile_call(node: ast.Call, source: str) -> Fn:
    if not isinstance(node.func, ast.Name):
        raise DslError(f"{source!r}: only plain function calls are allowed")
    if node.keywords:
        raise DslError(f"{source!r}: keyword arguments are not allowed")
    name = node.func.id
    args = node.args
    if name in _NUMERIC_FUNCS:
        lo, hi, apply = _NUMERIC_FUNCS[name]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise DslError(f"{source!r}: {name} takes {lo}{'' if hi == lo else '+'} arguments")
        # Up to three arguments are passed directly, with no list per call.
        fns = [_compile(a, source) for a in args]
        if len(fns) == 1:
            (first,) = fns
            return lambda ns: apply(first(ns))
        if len(fns) == 2:
            first, second = fns
            return lambda ns: apply(first(ns), second(ns))
        if len(fns) == 3:
            first, second, third = fns
            return lambda ns: apply(first(ns), second(ns), third(ns))
        return lambda ns: apply([f(ns) for f in fns])  # min or max of four or more
    if name in _TEXT_FUNCS:
        n_expected = _TEXT_FUNCS[name]
        if len(args) != n_expected:
            raise DslError(f"{source!r}: {name} takes exactly {n_expected} arguments")
        text = _compile_text(args[0], name, source)
        if name == "length":
            return lambda ns: float(len(text(ns)))
        pat = args[1]
        if not (isinstance(pat, ast.Constant) and isinstance(pat.value, str)):
            raise DslError(f"{source!r}: {name} pattern must be a string literal")
        if name == "keyword_count":
            keyword = pat.value.lower()
            if not keyword:
                return lambda ns: 0.0
            return lambda ns: float(text(ns).lower().count(keyword))
        try:
            regex = re.compile(pat.value)
        except re.error as exc:
            raise DslError(f"{source!r}: bad regex {pat.value!r}: {exc}") from exc
        return lambda ns: float(len(regex.findall(text(ns))))
    raise DslError(f"{source!r}: unknown function {name!r}")


def _compile_text(node: ast.AST, func: str, source: str) -> Callable[[Namespace], str]:
    """A text function's first argument: a string literal or a field read as text."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        text = node.value
        return lambda ns: text
    if not isinstance(node, ast.Name):
        raise DslError(f"{source!r}: {func} expects a field name or string literal")
    name = node.id

    def read(ns: Namespace) -> str:
        value = ns.get(name)
        return "" if value is None else str(value)

    return read
