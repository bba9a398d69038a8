"""Small arithmetic expression grammar for user-supplied potentials.

Grammar: the variable x, numeric constants, + - * / ^, and the calls
exp, log, sinh, cosh, max.  '^' means power.  Parsed through the ast module
with a strict node whitelist, so no other names or calls can execute.  A
parsed expression takes a float (math) or a float64 array (numpy).
"""

from __future__ import annotations

import ast
import functools
import math
from typing import Callable

import numpy as np

def _saturating(fn, odd: bool = False):
    # expressions must stay total on the line: intermediate float overflow
    # saturates to the correct signed infinity instead of raising, so bounded
    # combinations like 1/(1+exp(x)) stay evaluable everywhere
    def wrapped(v):
        try:
            return fn(v)
        except OverflowError:
            return math.copysign(math.inf, v) if odd else math.inf
    return wrapped


_ALLOWED_CALLS = {"exp": _saturating(math.exp), "log": math.log,
                  "sinh": _saturating(math.sinh, odd=True),
                  "cosh": _saturating(math.cosh), "max": max}
# the same calls on float64 arrays; numpy saturates overflow to the signed inf
_ARRAY_CALLS = {"exp": np.exp, "log": np.log, "sinh": np.sinh, "cosh": np.cosh,
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


def parse_expression(src: str) -> Callable[[float], float]:
    """Compile an expression in x to a function of a float or a float64 array.

    On a float it is evaluated with math; on an array, elementwise with
    numpy, to an ulp or two of the float calls.  When numpy flags a division
    by zero, an overflow or an invalid operation anywhere in the array, or
    the result is not real, the whole array is evaluated float by float, so
    a pole, a complex value or a domain error raises the same
    ExpressionError naming x as the float call, and an overflow saturates
    to the same signed infinity.
    """
    text = src.replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {src!r}: {exc.msg}") from None
    _validate(tree, src)
    # compiled once as `lambda x: <expression>` whose only globals are the
    # allowed calls and constants, for floats and again for arrays
    lam = ast.parse("lambda x: 0", mode="eval")
    lam.body.body = tree.body
    code = compile(ast.fix_missing_locations(lam), "<potential-expression>", "eval")
    consts = dict(pi=math.pi, e=math.e, __builtins__={})
    g = eval(code, dict(_ALLOWED_CALLS, **consts))
    g_array = eval(code, dict(_ARRAY_CALLS, **consts))

    def f(x):
        if isinstance(x, np.ndarray):
            return on_array(x)
        # a pole, a complex power or a domain error is an error in the
        # expression at x, not in the program: an ExpressionError
        try:
            return float(g(float(x)))
        except ZeroDivisionError:
            raise ExpressionError(f"{src!r} divides by zero at x = {x:g}") from None
        except TypeError:  # float() or a call given a complex intermediate
            raise ExpressionError(f"{src!r} is not a real number at x = {x:g}") from None
        except ValueError:  # math's domain error, e.g. log of a negative
            raise ExpressionError(f"{src!r} is outside its domain at x = {x:g}") from None

    def on_array(x):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
                out = np.asarray(g_array(x))
        except ArithmeticError:  # numpy's FloatingPointError, or Python's own
            out = None
        if out is None or out.dtype.kind not in "fiu":
            return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape)
        return np.broadcast_to(out, x.shape).astype(float)

    # probe once so structural mistakes surface at parse time; domain errors
    # (log of a negative, a pole, etc.) are legitimate at single points
    try:
        f(0.0)
    except (ValueError, OverflowError):
        pass
    return f
