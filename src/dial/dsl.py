"""Constrained feature-extraction expression language.

Proposed features are numeric expressions over observation fields,
never code. The language supports field access, number literals,
threshold indicators (comparisons), and bounded arithmetic (+ - * /,
min, max, clamp, abs). One recursive pass over the expression's Python
``ast`` checks each node against a strict whitelist and compiles it to a
closure, so evaluation is deterministic and side-effect free. A number
literal operand of an operator or of a one- or two-argument function
is held by that node's closure, not called per row, and a node whose
operands are all literals is folded when it is compiled: the same IEEE
operation on the same floats, so the same bits.

Missing fields never produce errors: a field that is missing or not a
number reads as 0.0. Division by zero evaluates to 0.0.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Union

import numpy as np

Namespace = Dict[str, Any]
Fn = Callable[[Namespace], float]
Operand = Union[float, Fn]  # a compiled node: a literal's value, or an evaluator

# name -> (min args, max args or None, value from the argument values, passed positionally)
_FUNCS = {
    "min": (2, None, min),
    "max": (2, None, max),
    "clamp": (3, 3, lambda value, low, high: min(max(value, low), high)),
    "abs": (1, 1, abs),
}

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
    return CompiledExpr(source=source, fn=_evaluator(_compile(tree.body, source)))


def _evaluator(operand: Operand) -> Fn:
    """A compiled operand as an evaluator: a literal becomes a constant one."""
    if callable(operand):
        return operand
    return lambda ns: operand


def _apply(op: Callable[[float, float], float], left: Operand, right: Operand) -> Operand:
    """``op`` over two compiled operands; a literal is held here, and two fold."""
    if callable(left):
        if callable(right):
            return lambda ns: op(left(ns), right(ns))
        return lambda ns: op(left(ns), right)
    if callable(right):
        return lambda ns: op(left, right(ns))
    return op(left, right)


def _compare(cmpop: Callable[[float, float], bool], left: Operand, right: Operand) -> Operand:
    """1.0 where ``cmpop`` holds over two compiled operands, else 0.0; a
    literal is held here, and two fold."""
    if callable(left):
        if callable(right):
            return lambda ns: 1.0 if cmpop(left(ns), right(ns)) else 0.0
        return lambda ns: 1.0 if cmpop(left(ns), right) else 0.0
    if callable(right):
        return lambda ns: 1.0 if cmpop(left, right(ns)) else 0.0
    return 1.0 if cmpop(left, right) else 0.0


def _compile(node: ast.AST, source: str) -> Operand:
    """Check one node (children left to right) and compile it: a number
    literal, or an operator or call over literals alone, to its value,
    anything else to its evaluator."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise DslError(f"{source!r}: literal {node.value!r} is not a number")
        return float(node.value)
    if isinstance(node, ast.Name):
        name = node.id

        def read(ns: Namespace) -> float:
            value = ns.get(name)
            if type(value) is float:  # observations hold floats
                return value
            return float(value) if isinstance(value, NUMBER_TYPES) else 0.0  # missing and text read 0.0

        return read
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, source)
        if isinstance(node.op, ast.UAdd):
            return operand
        return (lambda ns: -operand(ns)) if callable(operand) else -operand
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _apply(_BINOPS[type(node.op)], _compile(node.left, source), _compile(node.right, source))
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or type(node.ops[0]) not in _CMPOPS:
            raise DslError(f"{source!r}: only single two-sided comparisons are allowed")
        return _compare(_CMPOPS[type(node.ops[0])], _compile(node.left, source), _compile(node.comparators[0], source))
    if isinstance(node, ast.Call):
        return _compile_call(node, source)
    raise DslError(f"{source!r}: node {type(node).__name__} is not part of the feature language")


def _compile_call(node: ast.Call, source: str) -> Operand:
    if not isinstance(node.func, ast.Name):
        raise DslError(f"{source!r}: only plain function calls are allowed")
    if node.keywords:
        raise DslError(f"{source!r}: keyword arguments are not allowed")
    name = node.func.id
    if name not in _FUNCS:
        raise DslError(f"{source!r}: unknown function {name!r}")
    lo, hi, apply = _FUNCS[name]
    if len(node.args) < lo or (hi is not None and len(node.args) > hi):
        raise DslError(f"{source!r}: {name} takes {lo}{'' if hi == lo else '+'} arguments")
    operands = [_compile(a, source) for a in node.args]
    if not any(map(callable, operands)):  # all literals: fold
        return apply(*operands)
    if len(operands) == 1:
        (first,) = operands
        return lambda ns: apply(first(ns))
    if len(operands) == 2:
        return _apply(apply, *operands)
    # Three arguments are passed directly, with no list per call.
    fns = [_evaluator(operand) for operand in operands]
    if len(fns) == 3:
        first, second, third = fns
        return lambda ns: apply(first(ns), second(ns), third(ns))
    return lambda ns: apply([f(ns) for f in fns])  # min or max of four or more
