"""Constrained feature-extraction expression language.

Proposed features are numeric expressions over observation fields,
never code. The language supports field access, number literals,
threshold indicators (comparisons), and bounded arithmetic (+ - * /,
min, max, clamp, abs). One recursive pass over each expression's Python
``ast`` checks each node against a strict whitelist and builds, from the
checked nodes alone, one Python function of the namespace for a whole
list of expressions, compiled once, that returns the tuple of their
values. In it each name read is a local bound once, at the top: a bound
name (a universal feature) from its keys, a field name from itself as a
string key, by one rule: ``ns.get`` of the first key, of each next key
while the value is None, then ``_number`` of the keys unless the value is
a float. So a float costs one dict get and one type test, and any other
value (missing, int, bool, numpy scalar or text) reads as ``_number``, the
one definition of what a field reads as, reads it. A literal is only a
float constant (so ``1e999`` stays infinite; a bool or an int past float
range is refused), ``/`` is ``_divide``, a comparison is ``1.0 if ...
else 0.0``, and its globals hold its helpers, ``type`` and ``float`` and
no other builtins, so evaluation is deterministic and side-effect free.
``check_expr`` runs the pass alone, compiling nothing.

Missing fields never produce errors: a field that is missing or not a
number reads as 0.0. Division by zero evaluates to 0.0.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

Namespace = Dict[str, Any]
Fn = Callable[[Namespace], Any]

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


def finite_number(value: Any) -> bool:
    """The one rule for a number dial takes in: an int or float (a bool is neither)
    that is finite: not NaN (which fails every comparison), infinite or past float range."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _number(ns: Namespace, *keys: str) -> float:
    """The first of ``keys`` that ``ns`` holds as a number, as a float;
    a key that is missing or holds text is passed over, and none reads 0.0."""
    for key in keys:
        value = ns.get(key)
        if type(value) is float:  # observations hold floats
            return value
        if isinstance(value, NUMBER_TYPES):
            return float(value)
    return 0.0


def _divide(left: float, right: float) -> float:
    return 0.0 if right == 0.0 else left / right


# Everything a compiled function can name besides ``ns`` and its locals.
_GLOBALS = {"__builtins__": {}, "type": type, "float": float, "_number": _number, "_divide": _divide,
            **{name: function for name, (_, _, function) in _FUNCS.items()}}


class DslError(ValueError):
    """Expression rejected by the parser or validator."""


@dataclass(frozen=True)
class CompiledExpr:
    source: str
    fn: Fn = field(repr=False, compare=False)

    def __call__(self, namespace: Namespace) -> Any:
        return self.fn(namespace)


def parse_row(sources: Sequence[str], bound: Mapping[str, Tuple[str, ...]]) -> CompiledExpr:
    """Parse and compile expressions into one function that returns the
    tuple of their values. Each name they read is bound once, at its top,
    to a local by ``_bind``: a name of ``bound`` from its keys, any other
    name (a field) from itself. Raises DslError on anything outside the
    grammar."""
    local: Dict[str, str] = {}  # each name read -> its local, in first-read order
    values = [_check(source, local) for source in sources]
    body = [statement for name, var in local.items() for statement in _bind(var, bound.get(name, (name,)))]
    body.append(ast.Return(ast.Tuple(values, ast.Load())))
    args = ast.arguments(posonlyargs=[], args=[ast.arg("ns")], kwonlyargs=[], kw_defaults=[], defaults=[])
    module = ast.Module([ast.FunctionDef("f", args, body, [], None, None)], [])
    scope: Namespace = {}
    exec(compile(ast.fix_missing_locations(module), "<dsl>", "exec"), _GLOBALS, scope)
    return CompiledExpr(source=", ".join(sources), fn=scope["f"])


def check_expr(source: str) -> None:
    """Raise DslError if ``source`` is outside the grammar; compiles nothing."""
    _check(source, {})


def _check(source: str, local: Dict[str, str]) -> ast.expr:
    """Parse one expression and run ``_compile`` over it."""
    if not isinstance(source, str) or not source.strip():
        raise DslError("empty expression")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise DslError(f"syntax error in {source!r}: {exc.msg}") from exc
    return _compile(tree.body, source, local)


def _bind(var: str, keys: Tuple[str, ...]) -> List[ast.stmt]:
    """``var = ns.get(k1)``, ``if var is None: var = ns.get(k)`` for each
    further key, then ``if type(var) is not float: var = _number(ns,
    *keys)``: a float costs one dict get and one type test, and any other
    value reads as ``_number`` reads it. Each key enters as its ``repr``,
    a string constant."""
    lines = [f"{var} = ns.get({keys[0]!r})", *(f"if {var} is None: {var} = ns.get({key!r})" for key in keys[1:]),
             f"if type({var}) is not float: {var} = _number(ns, {', '.join(map(repr, keys))})"]
    return ast.parse("\n".join(lines)).body


def _call(name: str, *args: ast.expr) -> ast.Call:
    return ast.Call(ast.Name(name, ast.Load()), list(args), [])


def _compile(node: ast.AST, source: str, local: Dict[str, str]) -> ast.expr:
    """Check one node (children left to right) and build its part of the
    compiled function from what was checked; a name reads the local that
    ``local`` maps it to, entered there on its first read (a field name
    never becomes a Python name)."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise DslError(f"{source!r}: literal {node.value!r} is not a number")
        try:
            return ast.Constant(float(node.value))
        except OverflowError:  # an int past float range
            raise DslError(f"{source!r}: literal {node.value!r} is past float range") from None
    if isinstance(node, ast.Name):
        return ast.Name(local.setdefault(node.id, f"_{len(local)}"), ast.Load())
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        operand = _compile(node.operand, source, local)
        return operand if isinstance(node.op, ast.UAdd) else ast.UnaryOp(ast.USub(), operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
        left, right = _compile(node.left, source, local), _compile(node.right, source, local)
        return _call("_divide", left, right) if isinstance(node.op, ast.Div) else ast.BinOp(left, type(node.op)(), right)
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1 or not isinstance(node.ops[0], _CMPOPS):
            raise DslError(f"{source!r}: only single two-sided comparisons are allowed")
        left, right = _compile(node.left, source, local), _compile(node.comparators[0], source, local)
        return ast.IfExp(ast.Compare(left, [type(node.ops[0])()], [right]), ast.Constant(1.0), ast.Constant(0.0))
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
        return _call(name, *(_compile(a, source, local) for a in node.args))
    raise DslError(f"{source!r}: node {type(node).__name__} is not part of the feature language")
