"""Small arithmetic expression grammar for user-supplied potentials.

Grammar: the variable x, numeric constants, + - * / ^, and the calls
exp, log, sinh, cosh, max.  '^' means power.  Parsed through the ast module
with a strict node whitelist, so no other names or calls can execute.  A
parsed expression takes a float64 array and is evaluated elementwise with
numpy, its constants float64 too.
"""

from __future__ import annotations

import ast
import functools
import math
from typing import Callable

import numpy as np


_ALLOWED_CALLS = {"exp": np.exp, "log": np.log, "sinh": np.sinh, "cosh": np.cosh,
                  "max": lambda *args: functools.reduce(np.maximum, args)}
_ALLOWED_NAMES = {"x", "pi", "e"}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_ALLOWED_UNARY = (ast.USub, ast.UAdd)


class ExpressionError(ValueError):
    pass


def _validate(node: ast.AST, src: str) -> None:
    if isinstance(node, ast.Expression):
        _validate(node.body, src)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _ALLOWED_BINOPS):
            raise ExpressionError(f"operator not allowed in {src!r}")
        _validate(node.left, src)
        _validate(node.right, src)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, _ALLOWED_UNARY):
            raise ExpressionError(f"unary operator not allowed in {src!r}")
        _validate(node.operand, src)
    elif isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
            raise ExpressionError(f"only {sorted(_ALLOWED_CALLS)} may be called in {src!r}")
        if node.keywords:
            raise ExpressionError(f"keyword arguments not allowed in {src!r}")
        name, n = node.func.id, len(node.args)
        if (n < 2) if name == "max" else (n != 1):
            want = "two or more arguments" if name == "max" else "one argument"
            raise ExpressionError(f"{name} takes {want}, got {n} in {src!r}")
        for arg in node.args:
            _validate(arg, src)
    elif isinstance(node, ast.Name):
        if node.id not in _ALLOWED_NAMES:
            raise ExpressionError(f"unknown name {node.id!r} in {src!r}")
    elif isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExpressionError(f"only numeric constants allowed in {src!r}")
    else:
        raise ExpressionError(f"syntax not allowed in {src!r}: {type(node).__name__}")


class _Float64Constants(ast.NodeTransformer):
    """Each numeric constant as float64(constant), so that all arithmetic is
    numpy's, under one errstate."""

    def visit_Constant(self, node):
        return ast.Call(ast.Name("float64", ast.Load()), [node], [])


def parse_expression(src: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile an expression in x to a function of a float64 array (0-d
    included), evaluated elementwise with numpy.

    An overflow saturates to the signed infinity (exp(x) at x = 1e3 is inf,
    sinh(x) at -1e3 is -inf), so bounded combinations like 1/(1+exp(x))
    stay evaluable everywhere.  A division by zero or a value that is not a
    real number (a pole, log or a fractional power of a negative, inf - inf)
    raises an ExpressionError naming the first x of the array, in its order,
    where that happens, and so does a src that is not a string.
    """
    if not isinstance(src, str):
        raise ExpressionError(f"an expression must be a string, got {src!r}")
    text = src.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {src!r}: {exc.msg}") from None
    _validate(tree, src)
    # compiled once as `lambda x: <expression>` whose only globals are the
    # allowed calls, float64 and the constants
    lam = ast.parse("lambda x: 0", mode="eval")
    lam.body.body = _Float64Constants().visit(tree.body)
    code = compile(ast.fix_missing_locations(lam), "<potential-expression>", "eval")
    g = eval(code, dict(_ALLOWED_CALLS, float64=np.float64, pi=np.float64(math.pi),
                        e=np.float64(math.e), __builtins__={}))

    def values(x):
        # on a 1-d array, so every operation is a ufunc loop, whose bits do
        # not depend on an element's neighbours
        out = np.empty(x.shape)
        with np.errstate(divide="raise", invalid="raise", over="ignore", under="ignore"):
            out[...] = g(x)  # broadcast, for an expression without x
        return out

    def f(x):
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        try:
            return values(flat).reshape(x.shape)
        except FloatingPointError:
            pass
        # re-evaluated element by element, the first offending x names the error
        for i, v in enumerate(flat.tolist()):
            try:
                values(flat[i:i + 1])
            except FloatingPointError as exc:
                raise ExpressionError(f"{src!r} is not a real number at x = {v:g} ({exc})") \
                    from None
        raise ExpressionError(f"{src!r} is not a real number")

    # probe once so structural mistakes surface at parse time; a pole or a
    # domain error is legitimate at single points
    try:
        f(np.zeros(1))
    except ExpressionError:
        pass
    return f
