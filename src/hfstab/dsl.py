"""Expression language for user-supplied dispersion relations.

Custom models provide their dispersion branches omega(k), and phase-speed
symbols c^2(k), as small arithmetic expressions in the wavenumber ``k`` and
named parameters.  The grammar uses standard precedence, with ``^`` binding
tightest and associating to the right::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Numbers are ASCII decimal with an optional exponent.  There is no implicit
multiplication: write ``g*k``, not ``g k``.  ``pi`` is a built-in constant;
neither it nor ``k`` can name a parameter.
Evaluation is real-valued IEEE double arithmetic with numpy, on a float or
an ndarray of wavenumbers at once; ``sign(0) = 0``.

A ``ParseError`` is a ``models.ModelError`` and an ``EvalError`` a
``models.NumericalError``.  ``models.model_from_config``, the package's
one importer of this module, turns an ``EvalError`` raised while it builds
a model into a ``models.ModelError``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .models import ModelError, NumericalError, Symbol, _symbol

__all__ = [
    "Lit", "Var", "Neg", "Bin", "Call", "Expr",
    "ParseError", "EvalError",
    "parse", "compile_symbol", "FUNCTION_NAMES",
]


# --------------------------------------------------------------------------
# AST

@dataclass(frozen=True)
class Lit:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Lit, Var, Neg, Bin, Call]

FUNCTION_NAMES = ("sqrt", "tanh", "sign", "abs", "sin", "cos", "exp")


# --------------------------------------------------------------------------
# Errors

class ParseError(ModelError):
    """Malformed expression text.

    Attributes
    ----------
    offset : int
        Byte offset of the offending token in the input.
    expected : str
        Description of what the parser was looking for.
    excerpt : str
        Source excerpt around the offset.
    """

    def __init__(self, offset: int, expected: str, source: str):
        self.offset = offset
        self.expected = expected
        lo = max(0, offset - 12)
        self.excerpt = source[lo:offset + 12]
        super().__init__(
            f"parse error at offset {offset}: expected {expected} "
            f"(near {self.excerpt!r})"
        )


class EvalError(NumericalError):
    """An expression that cannot be evaluated at some wavenumber."""


# --------------------------------------------------------------------------
# Lexer

_OPS = set("+-*/^()")
_DIGITS = set("0123456789")   # str.isdigit also accepts "²", float() not


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples. Kinds: num, name, op, end."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and text[i + 1:i + 2] in _DIGITS):
            j = i
            while j < n and (text[j] in _DIGITS or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            lexeme = text[i:j]
            if lexeme.count(".") > 1:
                raise ParseError(i, "a well-formed number", text)
            toks.append(("num", lexeme, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(i, "a token", text)
    toks.append(("end", "", n))
    return toks


# --------------------------------------------------------------------------
# Parser (recursive descent)

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.names = []   # (name, offset) of each variable, in source order

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, lexeme, off = self.peek()
        if kind != "op" or lexeme != op:
            raise ParseError(off, f"'{op}'", self.text)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, _, off = self.peek()
        if kind != "end":
            raise ParseError(off, "end of input", self.text)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, lexeme, _ = self.peek()
            if kind == "op" and lexeme in "+-":
                self.advance()
                node = Bin(lexeme, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, lexeme, _ = self.peek()
            if kind == "op" and lexeme in "*/":
                self.advance()
                node = Bin(lexeme, node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        kind, lexeme, _ = self.peek()
        if kind == "op" and lexeme == "-":
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, lexeme, _ = self.peek()
        if kind == "op" and lexeme == "^":
            self.advance()
            return Bin("^", base, self.unary())
        return base

    def atom(self) -> Expr:
        kind, lexeme, off = self.advance()
        if kind == "num":
            return Lit(float(lexeme))
        if kind == "name":
            nxt_kind, nxt_lex, _ = self.peek()
            if nxt_kind == "op" and nxt_lex == "(":
                if lexeme not in FUNCTION_NAMES:
                    raise ParseError(off, f"a function name (got {lexeme!r})",
                                     self.text)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(lexeme, arg)
            self.names.append((lexeme, off))
            return Var(lexeme)
        if kind == "op" and lexeme == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(off, "a number, name, or '('", self.text)


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError on bad input."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Evaluation

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv, "^": np.power}


def _check(bad, env: Mapping, what: str) -> None:
    """Raise an EvalError if the mask ``bad`` holds anywhere, naming the
    first such wavenumber."""
    ks = env["k"]
    bad = np.broadcast_to(bad, ks.shape)
    if bad.any():
        raise EvalError(f"{what} at k={float(ks[bad][0])!r}")


def _walk(node: Expr, env: Mapping):
    if isinstance(node, Lit):
        return node.value
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_walk(node.arg, env)
    if isinstance(node, Call):
        x = _walk(node.arg, env)
        if node.fn == "sqrt":
            _check(x < 0.0, env, "sqrt of a negative value")
        r = getattr(np, node.fn)(x)
        _check(np.isinf(x) & np.isnan(r), env, f"{node.fn} domain error")
        _check(np.isfinite(x) & ~np.isfinite(r), env, f"{node.fn} overflowed")
        return r
    if isinstance(node, Bin):
        a, b = _walk(node.left, env), _walk(node.right, env)
        if node.op == "/":
            _check(b == 0.0, env, "division by zero")
        r = _BINARY[node.op](a, b)
        if node.op == "^":
            _check(np.isfinite(a) & np.isfinite(b) & ~np.isfinite(r), env,
                   "invalid power")
        return r
    raise TypeError(f"not an expression node: {node!r}")


def compile_symbol(text: str, params: Mapping[str, float] | None = None
                   ) -> Symbol:
    """Parse ``text`` once and return a symbol: a float or an ndarray of
    wavenumbers in, the same shape out (a float for a float).

    Every name must be ``k``, ``pi`` or a key of ``params``: the first that
    is not is a ParseError at its offset, so no evaluation meets it.  A key
    named ``k`` or ``pi`` would hide the wavenumber or the constant, so it
    is a ModelError naming the key.  The symbol walks the tree once, on
    arrays, and raises an EvalError if any element fails: sqrt of a
    negative, division by zero, a power that is not a finite real, overflow
    of a function, or a non-finite result.  The message names the first
    failing wavenumber.
    """
    frozen = dict(params or {})
    for name in ("k", "pi"):
        if name in frozen:
            raise ModelError(f"parameter {name!r} is reserved: expressions "
                             f"read k as the wavenumber and pi as the "
                             f"constant")
    parser = _Parser(text)
    ast = parser.parse()
    for name, offset in parser.names:
        if name not in frozen and name not in ("k", "pi"):
            raise ParseError(offset, f"k, pi or a parameter, not {name!r}",
                             text)
    bindings = {"pi": math.pi, **{n: float(v) for n, v in frozen.items()}}

    def evaluate(ks: np.ndarray) -> np.ndarray:
        env = {**bindings, "k": ks}
        with np.errstate(all="ignore"):
            out = np.asarray(_walk(ast, env), dtype=float)
            _check(~np.isfinite(out), env, "expression is not finite")
        if out.shape != ks.shape or out is ks:  # a constant, or k itself
            out = np.full(ks.shape, out)
        return out
    return _symbol(evaluate)
