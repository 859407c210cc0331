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
set of tokens that would have been accepted.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import EvalDomain, ParseError

__all__ = ["Expression", "parse_expression", "FUNCTIONS"]

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
    name: str


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


class Expression:
    """Parsed expression with a single declared free variable."""

    def __init__(self, ast, variable: str, source: str):
        self.ast = ast
        self.variable = variable
        self.source = source

    def __call__(self, value: float) -> float:
        return self.eval(value)

    def eval(self, value: float) -> float:
        try:
            out = _eval(self.ast, value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise EvalDomain(f"cannot evaluate {self.source!r} at {self.variable}={value}: {exc}") from exc
        if not math.isfinite(out):
            raise EvalDomain(f"{self.source!r} is not finite at {self.variable}={value}")
        return out

    def pretty(self) -> str:
        return _pretty_prec(self.ast)[0]

    def __repr__(self):
        return f"Expression({self.pretty()!r}, variable={self.variable!r})"


def _eval(node, x: float) -> float:
    if isinstance(node, _Num):
        return node.value
    if isinstance(node, _Var):
        return x
    if isinstance(node, _Neg):
        return -_eval(node.arg, x)
    if isinstance(node, _Call):
        return FUNCTIONS[node.func](_eval(node.arg, x))
    a, b = _eval(node.left, x), _eval(node.right, x)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return math.pow(a, b)


def _pretty_prec(node) -> tuple[str, int]:
    """Render with the node's effective precedence (atoms 9, unary minus 3)."""
    if isinstance(node, _Num):
        return f"{node.value:g}", 9
    if isinstance(node, _Var):
        return node.name, 9
    if isinstance(node, _Call):
        return f"{node.func}({_pretty_prec(node.arg)[0]})", 9
    if isinstance(node, _Neg):
        inner, ip = _pretty_prec(node.arg)
        if ip < 9:
            inner = f"({inner})"
        return f"-{inner}", 3
    prec = _PREC[node.op]
    left, lp = _pretty_prec(node.left)
    right, rp = _pretty_prec(node.right)
    if lp < prec or (lp == prec and node.op == "^"):
        left = f"({left})"
    if rp < prec or (rp == prec and node.op != "^"):
        right = f"({right})"
    joined = f"{left} {node.op} {right}" if node.op in "+-" else f"{left}{node.op}{right}"
    return joined, prec


class _Parser:
    def __init__(self, toks: list[_Tok], variable: str):
        self.toks = toks
        self.i = 0
        self.variable = variable

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
            return _BinOp("^", base, self.factor())
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
                arg = self.expr()
                self.expect_op(")")
                return _Call(t.text, arg)
            if t.text == self.variable:
                return _Var(t.text)
            raise ParseError(
                t.offset, (f"variable '{self.variable}'", "function name"), repr(t.text)
            )
        if t.kind == "op" and t.text == "(":
            self.take()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail(("number", "name", "'('", "'-'"))


def parse_expression(src: str, variable: str) -> Expression:
    """Parse `src` with the given free variable name ('s' or 't')."""
    toks = _tokenize(src)
    return Expression(_Parser(toks, variable).parse(), variable, src)


def combine(op: str, a: Expression, b: Expression) -> Expression:
    """AST-level binary combination of two expressions in the same variable."""
    if a.variable != b.variable:
        raise ValueError("cannot combine expressions in different variables")
    return Expression(_BinOp(op, a.ast, b.ast), a.variable, f"({a.source}) {op} ({b.source})")


def const_times(c: float, a: Expression) -> Expression:
    return Expression(_BinOp("*", _Num(float(c)), a.ast), a.variable, f"{c:g} * ({a.source})")


def rename_variable(e: Expression, new: str) -> Expression:
    """Same expression with its free variable renamed."""

    def walk(node):
        if isinstance(node, _Var):
            return _Var(new)
        if isinstance(node, _Neg):
            return _Neg(walk(node.arg))
        if isinstance(node, _BinOp):
            return _BinOp(node.op, walk(node.left), walk(node.right))
        if isinstance(node, _Call):
            return _Call(node.func, walk(node.arg))
        return node

    out = Expression(walk(e.ast), new, e.source)
    return Expression(out.ast, new, out.pretty())
