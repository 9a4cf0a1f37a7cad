"""The former lexer, parser and evaluator of ``hfstab.dsl``, kept as the
oracles that the current ones are held to.  ``former_parse`` must give the
same syntax tree, or a ParseError with the same offset, expectation,
excerpt and message, on every input.  The lexer is a loop over characters,
and the parser has one recursive-descent method per precedence level.
``former_symbol`` must give the same bits, or the same exception with the
same message: it walks the tree on every call and runs every domain check
of every node.
"""

import math
import operator
from typing import Mapping

import numpy as np

from hfstab.dsl import Bin, Call, EvalError, Expr, Lit, Neg, ParseError, \
    Var, FUNCTION_NAMES
from hfstab.models import Symbol, _symbol


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


def former_parse(text: str) -> Expr:
    """Parse ``text`` as the former ``dsl.parse`` did."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# Evaluation (tree walk)

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


def former_symbol(ast: Expr, params: Mapping[str, float]) -> Symbol:
    """The symbol the former ``dsl.compile_symbol`` made of a parsed tree
    whose every name is ``k``, ``pi`` or a key of ``params``."""
    bindings = {"pi": math.pi, **{n: float(v) for n, v in params.items()}}

    def evaluate(ks: np.ndarray) -> np.ndarray:
        env = {**bindings, "k": ks}
        with np.errstate(all="ignore"):
            try:
                out = np.asarray(_walk(ast, env), dtype=float)
            except RecursionError:
                raise EvalError("expression nested too deeply to evaluate"
                                ) from None
            _check(~np.isfinite(out), env, "expression is not finite")
        if out.shape != ks.shape or out is ks:  # a constant, or k itself
            out = np.full(ks.shape, out)
        return out
    return _symbol(evaluate)
