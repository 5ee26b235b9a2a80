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
                if float(lit) == float("inf"):  # digits only: never negative or NaN
                    raise ValueError
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
            # left-assoc: the right child needs parens at equal precedence,
            # for + and * too, or it re-parses as the left child of its parent
            if _prec(e.rhs) <= p:
                rhs = f"({rhs})"
            return f"{lhs} {e.op} {rhs}" if e.op in "+-" else f"{lhs}{e.op}{rhs}"
        raise TypeError(f"not an Expr: {e!r}")

    return go(e)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

# (message, condition that must hold on the operand) of each checked operation
_DOMAIN = {"/": ("division by zero", "{} != 0.0"),
           "pow": ("zero base with negative exponent", "{} != 0.0"),
           "log": ("log of a nonpositive value", "{} > 0.0"),
           "sqrt": ("sqrt of a negative value", "{} >= 0.0")}


def _overflow(out, offsets):
    """Overflow error of the first column of out with a non-finite value, or None."""
    bad = np.flatnonzero(~np.isfinite(out).all(axis=0))
    return EvalDomainError("evaluation overflowed to a non-finite value",
                           offset=offsets[bad[0]]) if bad.size else None


def compile_kernel(exprs):
    """Straight-line code for a list of trees: kernel(X) returns their values
    over the rows of X as the columns of an (N, K) array.

    Every node applies the numpy operation of a node-by-node walk of the tree to the
    same operand types (constants as np.full arrays, or as float literals where an
    output column or an array's +, -, * reads them; powers as `base ** float(k)`), so
    the values are the walk's to the bit; the constant output columns are stored by
    one broadcast of a row built at compile time, ahead of the first tree.  The first
    error is the one a walk of tree after tree meets: a non-finite X, then the domain
    checks in walk order (a failed one first reports the first non-finite output of
    the trees already computed), then the outputs' one finiteness check.  A node is computed once per operation
    and operand names plus its domain check's offset, so equal subtrees whose
    checked nodes sit at other offsets stay apart.
    """
    code, names, offsets = [], {}, []  # offsets of the trees computed so far

    def bind(value, check=None):
        """Name of the code `value`; check = (kind, operand, offset) runs first."""
        if (value, check) not in names:
            if check:
                what, ok = _DOMAIN[check[0]]
                code.append(f"if not ({ok.format(check[1])}).all(): raise _overflow("
                            f"out[:, :{len(offsets)}], offsets) or EvalDomainError("
                            f"{what!r}, offset={check[2]})")
            names[value, check] = f"t{len(names)}"
            code.append(f"{names[value, check]} = {value}")
        return names[value, check]

    def emit(e, literal=False):
        if isinstance(e, Const):
            return f"({e.value!r})" if literal else bind(f"np.full(N, {e.value!r})")
        if isinstance(e, Var):
            return bind(f"X[:, {e.index}]")
        if isinstance(e, Neg):
            return bind(f"-{emit(e.arg)}")
        if isinstance(e, Bin):  # at most one literal, so the result is an array
            lit = e.op != "/"
            a, b = emit(e.lhs, lit and not isinstance(e.rhs, Const)), emit(e.rhs, lit)
            return bind(f"{a} {e.op} {b}", ("/", b, e.offset) if e.op == "/" else None)
        if isinstance(e, Pow):
            a = emit(e.base)
            return bind(f"{a} ** {float(e.exponent)!r}",
                        ("pow", a, e.offset) if e.exponent < 0 else None)
        if isinstance(e, Call):
            a = emit(e.arg)
            return bind(f"np.{e.fn}({a})", (e.fn, a, e.offset) if e.fn in _DOMAIN else None)
        raise TypeError(f"not an Expr: {e!r}")

    # the constant columns' values, -0.0 kept; the computed columns overwrite theirs
    row = np.array([e.value if isinstance(e, Const) else 0.0 for e in exprs])
    for e in exprs:
        if not isinstance(e, Const):
            code.append(f"out[:, {len(offsets)}] = {emit(e, True)}")
        offsets.append(e.offset)
    if any(isinstance(e, Const) for e in exprs):
        code.insert(0, "out[...] = _row")
    if exprs:
        code.insert(0, "if not np.isfinite(X).all(): "
                       "raise EvalDomainError('evaluation point must be finite')")
        code.append("if not np.isfinite(out).all(): raise _overflow(out, offsets)")
    src = "\n    ".join(["def kernel(X):", "N = X.shape[0]",
                         f"out = np.empty((N, {len(exprs)}))"] + code + ["return out"])
    env = {"np": np, "EvalDomainError": EvalDomainError, "inf": np.inf, "nan": np.nan,
           "_overflow": _overflow, "offsets": tuple(offsets), "_row": row}
    exec(compile(src, "<mpsckit kernel>", "exec"), env)
    return env["kernel"]


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
