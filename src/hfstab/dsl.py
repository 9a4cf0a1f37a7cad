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
neither it nor ``k`` can name a parameter.  The lexer matches one token
pattern, ``_TOKEN``, and the parser climbs one table of binding powers,
``_BINDING``: ``+ -`` bind at 1, ``* /`` at 2, unary minus at 3 and ``^`` at
4.  An expression nested deeper than Python's recursion limit allows is a
``ParseError``, or an ``EvalError`` if only its compilation or evaluation
reaches it.  ``compile_symbol`` compiles the tree once, into one numpy
closure per node with the parameters bound.  Evaluation is real-valued IEEE
double arithmetic with numpy, on a float or an ndarray of wavenumbers at
once; ``sign(0) = 0``.  A node checks its domain only where its value is
not finite.

A ``ParseError`` is a ``models.ModelError`` and an ``EvalError`` a
``models.NumericalError``.  ``models.model_from_config``, the package's
one importer of this module, turns an ``EvalError`` raised while it builds
a model into a ``models.ModelError``.
"""

from __future__ import annotations

import math
import operator
import re
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
# Lexer: after any whitespace (``\s`` is ``str.isspace``), a number of ASCII
# digits (``\d`` would take "٣"), a word run, an operator or the end.  A word
# run is a name only if it starts with a letter or ``_``: ``\w`` takes "²".

_TOKEN = re.compile(r"""\s*(?:
    (?P<num>(?=\.?[0-9])[0-9.]+(?:[eE][+-]?[0-9]+)?)
  | (?P<name>\w+)
  | (?P<op>[-+*/^()])
  | (?P<end>\Z)
  | (?P<bad>.))""", re.VERBOSE | re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, offset) triples. Kinds: num, name, op, end."""
    toks = []
    for m in _TOKEN.finditer(text):   # each match starts where the last ended
        kind = m.lastgroup
        lexeme, offset = m[kind], m.start(kind)
        if kind == "bad" or kind == "name" and not (lexeme[0].isalpha()
                                                    or lexeme[0] == "_"):
            raise ParseError(offset, "a token", text)
        if lexeme.count(".") > 1:
            raise ParseError(offset, "a well-formed number", text)
        toks.append((kind, lexeme, offset))
        if kind == "end":
            return toks


# --------------------------------------------------------------------------
# Parser (precedence climbing).  A binary operator's right operand is parsed
# at its own binding, so ``+ - * /`` associate to the left; ``^``'s is parsed
# at unary minus's, so ``^`` associates to the right and takes ``2^-k``.

_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = 3   # unary minus: -k^2 is -(k^2), and -k*2 is (-k)*2


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.names = []   # (name, offset) of each variable, in source order

    def parse(self) -> Expr:
        try:
            node = self.expr()
        except RecursionError:   # each level of nesting read a token
            raise ParseError(self.toks[self.pos - 1][2],
                             "an expression nested less deeply",
                             self.text) from None
        kind, _, off = self.toks[self.pos]
        if kind != "end":
            raise ParseError(off, "end of input", self.text)
        return node

    def expr(self, level: int = 0) -> Expr:
        """The operand at the current token, extended by every binary
        operator that binds tighter than ``level``."""
        if self.toks[self.pos][1] == "-":
            self.pos += 1
            node = Neg(self.expr(_NEG))
        else:
            node = self.atom()
        while _BINDING.get(op := self.toks[self.pos][1], 0) > level:
            self.pos += 1
            right = self.expr(_NEG if op == "^" else _BINDING[op])
            node = Bin(op, node, right)
        return node

    def atom(self) -> Expr:
        kind, lexeme, off = self.toks[self.pos]
        self.pos += 1
        if kind == "num":
            return Lit(float(lexeme))
        if kind == "name" and self.toks[self.pos][1] != "(":
            self.names.append((lexeme, off))
            return Var(lexeme)
        if kind == "name":
            if lexeme not in FUNCTION_NAMES:
                raise ParseError(off, f"a function name (got {lexeme!r})",
                                 self.text)
            self.pos += 1
        elif lexeme != "(":
            raise ParseError(off, "a number, name, or '('", self.text)
        node = self.expr()
        _, close, off = self.toks[self.pos]
        if close != ")":
            raise ParseError(off, "')'", self.text)
        self.pos += 1
        return Call(lexeme, node) if kind == "name" else node


def parse(text: str) -> Expr:
    """Parse expression text into an AST; raises ParseError on bad input."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Compilation: one closure per node, taking the array of wavenumbers ``k``,
# with every constant and parameter bound.  A node returns its value at once
# if the value is finite everywhere: each of its checks can fire only where
# the value is not (sqrt of a negative and a domain error give NaN, an
# overflow or an invalid power a non-finite value).  Otherwise the checks
# run in their order.  A division checks its divisor first, since Python's
# ``1.0 / 0.0`` raises.

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_TOO_DEEP = "expression nested too deeply to evaluate"


def _check(bad, ks: np.ndarray, what: str) -> None:
    """Raise an EvalError if the mask ``bad`` holds at any of the
    wavenumbers ``ks``, naming the first such wavenumber."""
    if np.any(bad) and ks.size:
        raise EvalError(
            f"{what} at k={float(ks[np.broadcast_to(bad, ks.shape)][0])!r}")


def _compile(node: Expr, bindings: Mapping):
    if isinstance(node, Var) and node.name == "k":
        return lambda k: k
    if isinstance(node, (Lit, Var)):
        value = node.value if isinstance(node, Lit) else bindings[node.name]
        return lambda k: value
    if isinstance(node, Neg):
        arg = _compile(node.arg, bindings)
        return lambda k: -arg(k)
    if isinstance(node, Call):
        return _call(node.fn, _compile(node.arg, bindings))
    if isinstance(node, Bin):
        left = _compile(node.left, bindings)
        right = _compile(node.right, bindings)
        if node.op == "/":
            return _divide(left, right)
        if node.op == "^":
            return _power(left, right)
        op = _BINARY[node.op]
        return lambda k: op(left(k), right(k))
    raise TypeError(f"not an expression node: {node!r}")


def _call(fn: str, arg):
    f = getattr(np, fn)

    def call(k):
        x = arg(k)
        r = f(x)
        if not np.isfinite(r).all():
            if fn == "sqrt":
                _check(x < 0.0, k, "sqrt of a negative value")
            _check(np.isinf(x) & np.isnan(r), k, f"{fn} domain error")
            _check(np.isfinite(x) & ~np.isfinite(r), k, f"{fn} overflowed")
        return r
    return call


def _divide(left, right):
    def divide(k):
        a, b = left(k), right(k)
        _check(b == 0.0, k, "division by zero")
        return a / b
    return divide


def _power(left, right):
    def power(k):
        a, b = left(k), right(k)
        r = np.power(a, b)
        if not np.isfinite(r).all():
            _check(np.isfinite(a) & np.isfinite(b) & ~np.isfinite(r), k,
                   "invalid power")
        return r
    return power


def compile_symbol(text: str, params: Mapping[str, float] | None = None
                   ) -> Symbol:
    """Parse ``text`` once and return a symbol: a float or an ndarray of
    wavenumbers in, the same shape out (a float for a float).

    Every name must be ``k``, ``pi`` or a key of ``params``: the first that
    is not is a ParseError at its offset, so no evaluation meets it.  A key
    named ``k`` or ``pi`` would hide the wavenumber or the constant, so it
    is a ModelError naming the key.  The tree is compiled once, into nested
    closures.  A call runs them on the whole array and raises an EvalError
    if any element fails: sqrt of a negative, division by zero, a power
    that is not a finite real, overflow of a function, or a non-finite
    result.  The message names the first failing wavenumber.
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
    try:
        root = _compile(ast, bindings)
    except RecursionError:
        raise EvalError(_TOO_DEEP) from None

    def evaluate(ks: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            try:
                out = np.asarray(root(ks), dtype=float)
            except RecursionError:
                raise EvalError(_TOO_DEEP) from None
            if not np.isfinite(out).all():
                _check(~np.isfinite(out), ks, "expression is not finite")
        if out.shape != ks.shape or out is ks:  # a constant, or k itself
            out = np.full(ks.shape, out)
        return out
    return _symbol(evaluate)
