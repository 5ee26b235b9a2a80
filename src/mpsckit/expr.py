"""Scalar expressions: parsing, evaluation, symbolic differentiation.

The grammar (documented in the README) is deliberately small: +, -, *, /,
integer powers and the elementary functions sin/cos/exp/log/sqrt.  Integer
exponents keep every parsable expression twice continuously differentiable
on its domain, which the rest of the toolkit assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EvalDomainError, ParseError

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


@dataclass(frozen=True)
class Expr:
    # source byte offset; excluded from structural equality and hashing
    offset: int = field(default=-1, compare=False, kw_only=True)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # one of + - * /
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(text):
    """Return (kind, value, offset) triples; kinds: num, ident, op."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            toks.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"bad numeric literal {lit!r}", offset=i)
            toks.append(("num", lit, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", offset=i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text, var_names):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.vars = {name: k for k, name in enumerate(var_names)}
        if len(self.vars) != len(var_names):
            raise ParseError("duplicate variable names", offset=0)

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", offset=off)
        return self.take()

    def parse(self):
        e = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", offset=off)
        return e

    def expr(self):
        e = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = Bin(val, e, rhs, offset=off)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                e = Bin(val, e, rhs, offset=off)
            else:
                return e

    def factor(self):
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.take()
            inner = self.factor()
            # canonical form: a negated literal is a negative constant, so
            # printing and reparsing agree on the tree shape
            if isinstance(inner, Const):
                return Const(-inner.value, offset=off)
            return Neg(inner, offset=off)
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.take()
            exp = self._integer()
            return Pow(base, exp, offset=off)
        return base

    def _integer(self):
        sign = 1
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.take()
            sign = -1
            kind, val, off = self.peek()
        if kind != "num":
            raise ParseError("expected integer exponent", offset=off)
        self.take()
        if any(c in val for c in ".eE"):
            raise ParseError(f"non-integer exponent {val!r}", offset=off)
        return sign * int(val)

    def atom(self):
        kind, val, off = self.take()
        if kind == "num":
            return Const(float(val), offset=off)
        if kind == "ident":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "(":
                if val not in FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", offset=off)
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg, offset=off)
            if val not in self.vars:
                raise ParseError(f"unknown identifier {val!r}", offset=off)
            return Var(self.vars[val], offset=off)
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {val!r}", offset=off)


def parse_expr(text: str, var_names) -> Expr:
    """Parse `text` over the ordered variable list into an AST (no folding)."""
    return _Parser(text, tuple(var_names)).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}
_NEG_PREC = 3
_POW_PREC = 4
_ATOM_PREC = 5


def _prec(e):
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _NEG_PREC
    if isinstance(e, Pow):
        return _POW_PREC
    if isinstance(e, Const) and e.value < 0:
        return _NEG_PREC
    return _ATOM_PREC


def to_text(e: Expr, var_names) -> str:
    """Render the AST; parse(to_text(e)) is structurally identical to e."""

    def fmt_const(v):
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)

    def go(e):
        if isinstance(e, Const):
            return fmt_const(e.value)
        if isinstance(e, Var):
            return var_names[e.index]
        if isinstance(e, Neg):
            inner = go(e.arg)
            # ^ binds tighter than unary minus, so -x^2 needs no parens,
            # but -(x+1) does
            if _prec(e.arg) < _NEG_PREC:
                inner = f"({inner})"
            return f"-{inner}"
        if isinstance(e, Call):
            return f"{e.fn}({go(e.arg)})"
        if isinstance(e, Pow):
            base = go(e.base)
            if not (isinstance(e.base, Call) or isinstance(e.base, Var)
                    or (isinstance(e.base, Const) and e.base.value >= 0)):
                base = f"({base})"
            return f"{base}^{e.exponent}"
        if isinstance(e, Bin):
            lhs, rhs = go(e.lhs), go(e.rhs)
            p = _PREC[e.op]
            if _prec(e.lhs) < p:
                lhs = f"({lhs})"
            # left-assoc: the right child needs parens at equal precedence
            # for - and /, and a leading unary minus must be wrapped so the
            # rendered text re-tokenizes the same way
            rp = _prec(e.rhs)
            if rp < p or (rp == p and e.op in "-/"):
                rhs = f"({rhs})"
            return f"{lhs} {e.op} {rhs}" if e.op in "+-" else f"{lhs}{e.op}{rhs}"
        raise TypeError(f"not an Expr: {e!r}")

    return go(e)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _check_domain(ok, what, offset):
    if not np.all(ok):
        raise EvalDomainError(what, offset=offset)


def _eval(e, X):
    """Evaluate over a point batch X of shape (N, n)."""
    if isinstance(e, Const):
        return np.full(X.shape[0], e.value)
    if isinstance(e, Var):
        return X[:, e.index]
    if isinstance(e, Neg):
        return -_eval(e.arg, X)
    if isinstance(e, Bin):
        a = _eval(e.lhs, X)
        b = _eval(e.rhs, X)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        _check_domain(b != 0.0, "division by zero", e.offset)
        return a / b
    if isinstance(e, Pow):
        base = _eval(e.base, X)
        if e.exponent < 0:
            _check_domain(base != 0.0, "zero base with negative exponent", e.offset)
        with np.errstate(over="ignore"):
            return base ** float(e.exponent)
    if isinstance(e, Call):
        a = _eval(e.arg, X)
        if e.fn == "sin":
            return np.sin(a)
        if e.fn == "cos":
            return np.cos(a)
        if e.fn == "exp":
            with np.errstate(over="ignore"):
                return np.exp(a)
        if e.fn == "log":
            _check_domain(a > 0.0, "log of a nonpositive value", e.offset)
            return np.log(a)
        if e.fn == "sqrt":
            _check_domain(a >= 0.0, "sqrt of a negative value", e.offset)
            return np.sqrt(a)
    raise TypeError(f"not an Expr: {e!r}")


def evaluate(e: Expr, x):
    """Evaluate at a single point (1-d x) or a batch (2-d x, one row each)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("evaluation point must be finite")
    single = x.ndim == 1
    X = x[None, :] if single else x
    out = _eval(e, X)
    if not np.all(np.isfinite(out)):
        raise EvalDomainError("evaluation overflowed to a non-finite value", offset=e.offset)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# symbolic differentiation (light constant folding only)
# ---------------------------------------------------------------------------

def _is_const(e, v=None):
    return isinstance(e, Const) and (v is None or e.value == v)


def _add(a, b, offset):
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value + b.value)
    return Bin("+", a, b, offset=offset)


def _sub(a, b, offset):
    if _is_const(b, 0.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value - b.value)
    if _is_const(a, 0.0):
        return _neg(b, offset)
    return Bin("-", a, b, offset=offset)


def _mul(a, b, offset):
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return Const(0.0)
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(a) and _is_const(b):
        return Const(a.value * b.value)
    return Bin("*", a, b, offset=offset)


def _div(a, b, offset):
    if _is_const(a, 0.0):
        return Const(0.0)
    if _is_const(b, 1.0):
        return a
    return Bin("/", a, b, offset=offset)


def _neg(a, offset):
    if _is_const(a):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a, offset=offset)


def _pow(base, k, offset):
    if k == 0:
        return Const(1.0)
    if k == 1:
        return base
    return Pow(base, k, offset=offset)


def diff(e: Expr, var: int) -> Expr:
    """Exact partial derivative of e with respect to variable `var`.

    Every node built here carries the source offset of the node it
    differentiates, so a domain error in a derivative points into the source.
    """
    o = e.offset
    if isinstance(e, Const):
        return Const(0.0)
    if isinstance(e, Var):
        return Const(1.0 if e.index == var else 0.0)
    if isinstance(e, Neg):
        return _neg(diff(e.arg, var), o)
    if isinstance(e, Bin):
        da, db = diff(e.lhs, var), diff(e.rhs, var)
        if e.op == "+":
            return _add(da, db, o)
        if e.op == "-":
            return _sub(da, db, o)
        if e.op == "*":
            return _add(_mul(da, e.rhs, o), _mul(e.lhs, db, o), o)
        num = _sub(_mul(da, e.rhs, o), _mul(e.lhs, db, o), o)
        return _div(num, Pow(e.rhs, 2, offset=o), o)
    if isinstance(e, Pow):
        inner = _mul(Const(float(e.exponent)), _pow(e.base, e.exponent - 1, o), o)
        return _mul(inner, diff(e.base, var), o)
    if isinstance(e, Call):
        da = diff(e.arg, var)
        if e.fn == "sin":
            return _mul(Call("cos", e.arg, offset=o), da, o)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", e.arg, offset=o), da, o), o)
        if e.fn == "exp":
            return _mul(Call("exp", e.arg, offset=o), da, o)
        if e.fn == "log":
            return _div(da, e.arg, o)
        if e.fn == "sqrt":
            return _div(da, _mul(Const(2.0), Call("sqrt", e.arg, offset=o), o), o)
    raise TypeError(f"not an Expr: {e!r}")
