"""Expression-language tests: lexing, parsing, evaluation, printing."""

import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hfstab import dsl
from hfstab.dsl import (Bin, Call, Lit, Neg, Var, EvalError, ParseError,
                        compile_symbol, parse)
from hfstab.models import ModelError

from dsl_oracles import former_parse, former_symbol
from dsl_printer import to_source


def ev(text, k=0.0, **params):
    return compile_symbol(text, params)(k)


class TestParsing:
    def test_precedence(self):
        assert ev("1+2*3") == 7.0
        assert ev("(1+2)*3") == 9.0
        assert ev("2^3^2") == 512.0          # right-associative
        assert ev("-2^2") == -4.0            # unary binds looser than ^
        assert ev("2*3^2") == 18.0
        assert ev("10-4-3") == 3.0           # left-associative

    def test_numbers(self):
        assert ev("1.5e2") == 150.0
        assert ev(".5") == 0.5
        assert ev("2E-3") == 0.002

    def test_functions_and_constants(self):
        assert ev("sqrt(4)") == 2.0
        assert ev("tanh(0)") == 0.0
        assert ev("cos(pi)") == pytest.approx(-1.0)
        assert ev("sign(0)") == 0.0
        assert ev("sign(-3)") == -1.0
        assert ev("abs(-2)") == 2.0

    def test_variables(self):
        assert ev("g*k", k=2.0, g=3.0) == 6.0

    def test_parse_error_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + * 2")
        assert exc.value.offset == 4
        assert "expected" in str(exc.value)

    def test_unknown_function(self):
        with pytest.raises(ParseError):
            parse("foo(1)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 2")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(1+2")

    @pytest.mark.parametrize("text, offset", [("k^²", 2), ("1e²", 1),
                                              ("٣*k", 0), (".²", 0)])
    def test_numbers_are_ascii_decimal(self, text, offset):
        # str.isdigit accepts these characters, and float() refuses them
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.offset == offset

    @pytest.mark.parametrize("text", [
        "(" * 2000 + "k" + ")" * 2000, "-" * 3000 + "k", "k" + "^k" * 3000],
        ids=["parentheses", "minus-signs", "powers"])
    def test_nesting_too_deep_to_parse_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="expected an expression nested "
                                             "less deeply"):
            parse(text)


class TestEvaluation:
    def test_sqrt_negative(self):
        with pytest.raises(EvalError, match="sqrt of a negative value"):
            ev("sqrt(-1)")

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="division by zero"):
            ev("1/k", k=0.0)

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError, match="invalid power"):
            ev("(-2)^0.5")

    def test_overflow_is_nonfinite_or_domain(self):
        with pytest.raises(EvalError):
            ev("exp(1e9)")

    def test_nonfinite_result(self):
        with pytest.raises(EvalError, match="expression is not finite"):
            ev("exp(700)*exp(700)")


class TestCompileSymbol:
    def test_nesting_too_deep_to_evaluate_is_an_eval_error(self):
        # parsed near the top of the stack, evaluated far below it
        depth = sys.getrecursionlimit() // 2
        symbol = compile_symbol("-" * depth + "k")
        assert symbol(1.0) == (-1.0) ** depth

        def at_depth(n):
            return symbol(1.0) if n == 0 else at_depth(n - 1)
        with pytest.raises(EvalError, match="^expression nested too deeply"):
            at_depth(depth)

    def test_unknown_name_is_refused_when_compiled(self):
        # before any evaluation, at the offset of the first unknown name
        with pytest.raises(ParseError, match="not 'q'") as exc:
            compile_symbol("k*pi + q*k^3 - r", {"a": 1.0})
        assert exc.value.offset == 7
        sym = compile_symbol("a*k + pi", {"a": 2.0})
        assert sym(1.0) == 2.0 + math.pi

    @pytest.mark.parametrize("name", ["k", "pi"])
    def test_a_parameter_cannot_hide_k_or_pi(self, name):
        # a parameter pi would replace the constant, and a parameter k would
        # be dropped for the wavenumbers: either is refused, naming the key
        with pytest.raises(ModelError,
                           match=f"^parameter '{name}' is reserved") as exc:
            compile_symbol("pi*k^3", {name: 3.0})
        assert type(exc.value) is ModelError


# --------------------------------------------------------------------------
# Round-trip property

_VARS = ("k", "g", "h", "x1", "beta")


def random_tree(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            choice = rng.random()
            if choice < 0.4:
                return Lit(float(rng.randint(0, 99)))
            if choice < 0.8:
                return Lit(round(rng.uniform(0.0, 10.0), 6))
            return Lit(rng.random() * 10.0 ** rng.randint(-12, 12))
        return Var(rng.choice(_VARS))
    roll = rng.random()
    if roll < 0.15:
        return Neg(random_tree(rng, depth - 1))
    if roll < 0.3:
        return Call(rng.choice(dsl.FUNCTION_NAMES),
                    random_tree(rng, depth - 1))
    op = rng.choice("+-*/^")
    return Bin(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_round_trip_structural_identity_bulk():
    rng = random.Random(20230817)
    for _ in range(2000):
        tree = random_tree(rng, rng.randint(1, 6))
        assert parse(to_source(tree)) == tree


@st.composite
def expr_trees(draw, depth=4):
    if depth == 0:
        if draw(st.booleans()):
            value = draw(st.floats(min_value=0.0, max_value=1e12,
                                   allow_nan=False, allow_infinity=False))
            return Lit(value)
        return Var(draw(st.sampled_from(_VARS)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(expr_trees(depth=0))
    if kind == 1:
        return Neg(draw(expr_trees(depth=depth - 1)))
    if kind == 2:
        return Call(draw(st.sampled_from(dsl.FUNCTION_NAMES)),
                    draw(expr_trees(depth=depth - 1)))
    return Bin(draw(st.sampled_from("+-*/^")),
               draw(expr_trees(depth=depth - 1)),
               draw(expr_trees(depth=depth - 1)))


@given(expr_trees())
def test_round_trip_property(tree):
    assert parse(to_source(tree)) == tree


# --------------------------------------------------------------------------
# Equivalence with the former lexer and parser

# ASCII digits, operators and exponents; runs that lex into one token or
# into none; characters that str.isdigit, str.isalnum, str.isalpha or
# str.isspace accept, though they are not ASCII; names and a non-function
_PIECES = (*"0123456789+-*/^().eE ", "**", "..", "1e", "²", "٣", "Ⅻ", "ﬁ",
           "λ", "\xa0", "\x1c", "\t", "k", "g", "x1", "_", "pi", "sin", "foo")
_CHARS = "".join(_PIECES)


def _outcome(parse_text, text):
    """The tree, or the four fields of the ParseError, of ``text``."""
    try:
        return parse_text(text)
    except ParseError as exc:
        return exc.offset, exc.expected, exc.excerpt, str(exc)


def _random_texts():
    """20,000 seeded strings: random runs of pieces, and printed random
    trees, half of them with one character inserted."""
    rng = random.Random(34)
    for i in range(20_000):
        if i % 2:
            yield "".join(rng.choice(_PIECES)
                          for _ in range(rng.randint(0, 12)))
        else:
            text = to_source(random_tree(rng, rng.randint(1, 5)))
            if i % 4:
                at = rng.randint(0, len(text))
                text = text[:at] + rng.choice(_CHARS) + text[at:]
            yield text


def test_parses_as_the_former_parser():
    for text in _random_texts():
        assert _outcome(parse, text) == _outcome(former_parse, text), text


# --------------------------------------------------------------------------
# Equivalence with the former evaluator

# zero, subnormal-adjacent, small, moderate and large wavenumbers of both
# signs: domain errors fall next to finite elements of the same call
_KS = np.array([0.0, 1e-300, -1e-300, 0.3, -0.3, 5.0, -5.0, 1e6, -1e6])
_PARAM_VALUES = (-2.5, 0.0, 0.7, 3.0, 1e200)


def _names(tree):
    if isinstance(tree, Var):
        return {tree.name}
    if isinstance(tree, Lit):
        return set()
    if isinstance(tree, Bin):
        return _names(tree.left) | _names(tree.right)
    return _names(tree.arg)


def _evaluated(make_symbol, ks):
    """The bits and shape of the symbol's values at ``ks``, or the class
    and message of what it raised."""
    try:
        out = make_symbol()(ks)
    except Exception as exc:
        return type(exc), str(exc)
    return np.asarray(out).tobytes(), np.shape(out)


def _agree(text, params, ks=_KS):
    new = _evaluated(lambda: compile_symbol(text, params), ks)
    old = _evaluated(lambda: former_symbol(parse(text), params), ks)
    assert new == old, text
    return new


@pytest.mark.parametrize("text", [
    "1/0", "k^3 + 1/0", "1/k", "1/(1/k)", "k/k", "sqrt(-1)", "sqrt(k)",
    "(-2)^0.5", "k^0.5", "(-k)^-1", "0^-1", "exp(1e9)", "exp(700)*exp(700)",
    "exp(k)", "tanh(1/k)", "sin(k^400)", "-k", "k", "pi", "2", "a*k^3/h",
    # infinite arguments: negative, a domain error, or neither
    "sqrt(-k*1e300*1e300)", "sqrt(k*1e300*1e300)", "cos(k*1e300*1e300)",
    "exp(k*1e300*1e300)"])
def test_evaluates_as_the_former_evaluator(text):
    params = {"a": 2.0, "h": 0.0}
    _agree(text, params)
    _agree(text, params, np.empty(0))
    _agree(text, params, 0.3)


def test_random_expressions_evaluate_as_the_former_evaluator():
    # every random string that parses, with seeded values for its names
    rng = random.Random(36)
    outcomes = {True: 0, False: 0}
    for text in _random_texts():
        try:
            names = _names(parse(text)) - {"k", "pi"}
        except ParseError:
            continue
        params = {name: rng.choice(_PARAM_VALUES) for name in sorted(names)}
        new = _agree(text, params)
        outcomes[isinstance(new[0], bytes)] += 1
    assert min(outcomes.values()) > 1000, outcomes
