"""Tiny expression language for potential coefficient functions.

Grammar (left-associative + - * /, right-associative ^, unary minus binds
tighter than ^):

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-'? primary
    primary := number | var | func '(' expr ')' | '(' expr ')'

Functions: sin cos tan sinh cosh tanh exp log sqrt.  Numbers are decimals
with an optional exponent.  Each expression has exactly one free variable,
declared at parse time.  Parse errors carry a 1-based byte offset and the
set of tokens that would have been accepted.  At most 100 groups, function
arguments and exponents may be open at once, and at most 100 operations may
nest; a deeper source raises ValueError.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomain, ParseError

__all__ = ["Expression", "parse_expression", "eval_rows", "FUNCTIONS"]

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "sinh": math.sinh,
    "cosh": math.cosh,
    "tanh": math.tanh,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'number' | 'name' | 'op' | 'end'
    text: str
    offset: int  # 1-based byte offset


def _tokenize(src: str) -> list[_Tok]:
    toks, pos = [], 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            at = pos + (len(src[pos:]) - len(stripped)) + 1
            raise ParseError(at, ("number", "name", "operator"), repr(stripped[0]))
        for kind in ("number", "name", "op"):
            if m.group(kind) is not None:
                toks.append(_Tok(kind, m.group(kind), m.start(kind) + 1))
                break
        pos = m.end()
    toks.append(_Tok("end", "", len(src) + 1))
    return toks


# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class _Num:
    value: float


@dataclass(frozen=True)
class _Var:
    """The free variable, whose name the Expression holds."""


@dataclass(frozen=True)
class _Neg:
    arg: object


@dataclass(frozen=True)
class _BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class _Call:
    func: str
    arg: object


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}

_MAX_DEPTH = 100  # six parser frames per level at most: far inside Python's recursion limit


def _depth(node) -> int:
    """How many operations an AST nests, counted level by level without recursion."""
    depth, level = 0, [node]
    while level := [c for n in level for c in vars(n).values() if not isinstance(c, (str, float))]:
        depth += 1
    return depth


class Expression:
    """Parsed expression with a single declared free variable, compiled once
    into a closure (see `_compile`)."""

    def __init__(self, ast, variable: str, source: str):
        self.ast = ast
        self.variable = variable
        self.source = source
        self._scalar, self._reads = _compile(ast)

    def __call__(self, value: float) -> float:
        return self.eval(value)

    def eval(self, value: float) -> float:
        try:
            out = self._scalar(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomain(f"cannot evaluate {self.source!r} at {self.variable}={value}: {exc}") from exc
        if not math.isfinite(out):
            raise EvalDomain(f"{self.source!r} is not finite at {self.variable}={value}")
        return out

    def rows(self, xs) -> np.ndarray:
        """The values at the items of a float64 array, with `eval`'s bits, as
        an array of its shape: NaN where `eval` raises."""
        xs = np.asarray(xs, float)
        items = xs.ravel().tolist() if self._reads else [0.0]
        try:
            out = np.fromiter(map(self._scalar, items), float, len(items))
        except (ValueError, ZeroDivisionError, OverflowError):  # mark each item that raises
            out = np.array([self._or_nan(x) for x in items], float)
        out[~np.isfinite(out)] = np.nan
        return out.reshape(xs.shape) if self._reads else np.full(xs.shape, out[0])

    def _or_nan(self, x: float) -> float:
        try:
            return self._scalar(x)
        except (ValueError, ZeroDivisionError, OverflowError):
            return math.nan

    def pretty(self) -> str:
        return _pretty_prec(self.ast, self.variable)[0]

    def __repr__(self):
        return f"Expression({self.pretty()!r}, variable={self.variable!r})"


def eval_rows(exprs, xs) -> np.ndarray:
    """`[[e.eval(x) for x in xs] for e in exprs]` as a (len(exprs), len(xs))
    array of their row forms; where a row marks an item, the scalar `eval` of
    each expression at the first such item raises the loop `for x in xs: for
    e in exprs`'s first error."""
    xs = np.asarray(xs, float)
    out = np.array([e.rows(xs) for e in exprs]).reshape(len(exprs), len(xs))
    marked = np.flatnonzero(np.isnan(out).any(axis=0))
    if marked.size:  # at the first, as a Python float: numpy's would divide 0/0 to NaN
        for e in exprs:
            e.eval(xs[marked[0]].item())
    return out


# -- compilation ---------------------------------------------------------------

_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": math.pow,
}


def _compile(node):
    """(evaluator, reads) of an AST: a closure of the variable's value that
    visits the nodes children first, left to right, and whether the AST reads
    its variable."""
    if isinstance(node, _Num):
        value = node.value
        return (lambda x: value), False
    if isinstance(node, _Var):
        return (lambda x: x), True
    if isinstance(node, _Neg):
        arg, reads = _compile(node.arg)
        return (lambda x: -arg(x)), reads
    if isinstance(node, _Call):
        fn = FUNCTIONS[node.func]
        arg, reads = _compile(node.arg)
        return (lambda x: fn(arg(x))), reads
    op = _OPS[node.op]
    (left, left_reads), (right, right_reads) = _compile(node.left), _compile(node.right)
    return (lambda x: op(left(x), right(x))), left_reads or right_reads


def _pretty_prec(node, variable: str) -> tuple[str, int]:
    """Render with the node's effective precedence (atoms 9, unary minus 3),
    the variable printed as `variable`."""
    if isinstance(node, _Num):
        return f"{node.value:g}", 9
    if isinstance(node, _Var):
        return variable, 9
    if isinstance(node, _Call):
        return f"{node.func}({_pretty_prec(node.arg, variable)[0]})", 9
    if isinstance(node, _Neg):
        inner, ip = _pretty_prec(node.arg, variable)
        if ip < 9:
            inner = f"({inner})"
        return f"-{inner}", 3
    prec = _PREC[node.op]
    left, lp = _pretty_prec(node.left, variable)
    right, rp = _pretty_prec(node.right, variable)
    if lp < prec or (lp == prec and node.op == "^"):
        left = f"({left})"
    if rp < prec or (rp == prec and node.op != "^"):
        right = f"({right})"
    joined = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    return joined, prec


class _Parser:
    def __init__(self, src: str, variable: str):
        self.src = src
        self.toks = _tokenize(src)
        self.i = 0
        self.variable = variable
        self.depth = 0  # groups, function arguments and exponents open

    def too_deep(self) -> ValueError:
        shown = self.src if len(self.src) <= 40 else self.src[:40] + "..."
        return ValueError(f"expression {shown!r} nests deeper than {_MAX_DEPTH} levels")

    def nested(self, parse):
        """`parse()` one level deeper: a group, a function argument or an exponent."""
        if self.depth == _MAX_DEPTH:
            raise self.too_deep()
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def take(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, expected) -> None:
        t = self.peek()
        found = repr(t.text) if t.kind != "end" else "end of input"
        raise ParseError(t.offset, expected, found)

    def expect_op(self, op: str) -> None:
        t = self.peek()
        if t.kind == "op" and t.text == op:
            self.take()
        else:
            self.fail((f"'{op}'",))

    def parse(self):
        node = self.expr()
        if self.peek().kind != "end":
            self.fail(("operator", "end of input"))
        if _depth(node) > _MAX_DEPTH:
            raise self.too_deep()
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.take().text
            node = _BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.take().text
            node = _BinOp(op, node, self.factor())
        return node

    def factor(self):
        base = self.unary()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.take()
            return _BinOp("^", base, self.nested(self.factor))
        return base

    def unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.take()
            return _Neg(self.primary())
        return self.primary()

    def primary(self):
        t = self.peek()
        if t.kind == "number":
            self.take()
            return _Num(float(t.text))
        if t.kind == "name":
            self.take()
            if t.text in FUNCTIONS:
                self.expect_op("(")
                arg = self.nested(self.expr)
                self.expect_op(")")
                return _Call(t.text, arg)
            if t.text == self.variable:
                return _Var()
            raise ParseError(
                t.offset, (f"variable '{self.variable}'", "function name"), repr(t.text)
            )
        if t.kind == "op" and t.text == "(":
            self.take()
            node = self.nested(self.expr)
            self.expect_op(")")
            return node
        self.fail(("number", "name", "'('", "'-'"))


def parse_expression(src: str, variable: str) -> Expression:
    """Parse `src` with the given free variable name ('s' or 't'); a source
    nested past `_MAX_DEPTH` levels raises ValueError naming it."""
    return Expression(_Parser(src, variable).parse(), variable, src)


def combine(op: str, a: Expression, b: Expression) -> Expression:
    """AST-level binary combination of two expressions in the same variable."""
    if a.variable != b.variable:
        raise ValueError("cannot combine expressions in different variables")
    return Expression(_BinOp(op, a.ast, b.ast), a.variable, f"({a.source}) {op} ({b.source})")


def const_times(c: float, a: Expression) -> Expression:
    return Expression(_BinOp("*", _Num(float(c)), a.ast), a.variable, f"{c:g} * ({a.source})")


def rename_variable(e: Expression, new: str) -> Expression:
    """Same expression with its free variable renamed; its source is the pretty form."""
    return Expression(e.ast, new, _pretty_prec(e.ast, new)[0])
