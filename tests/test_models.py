"""Model catalog and zero-amplitude spectrum tests."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hfstab import dsl, hill, models
from hfstab.models import (BUILTIN_MODELS, ModelError,
                           bifurcation_speed, eval_Omega, eval_omega,
                           make_model, model_from_config,
                           validate_dispersive)


class TestCatalog:
    def test_all_builtins_instantiate_and_validate(self):
        for name in BUILTIN_MODELS:
            model = make_model(name)
            validate_dispersive(model)

    def test_unknown_model(self):
        with pytest.raises(ModelError, match="^unknown model 'no-such-model'"):
            make_model("no-such-model")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ModelError):
            make_model("kdv", {"depth": 2.0})

    @pytest.mark.parametrize("name, value", [
        ("kdv", "1"), ("kdv", None), ("kdv", True), ("kdv", math.nan),
        ("whitham", math.nan), ("whitham", -math.inf),
        pytest.param("kdv", 10**400, id="kdv-huge-int"),
        pytest.param("kdv", -10**400, id="kdv-huge-negative-int")])
    def test_non_numeric_or_non_finite_parameter_rejected(self, name, value):
        # whitham derives its default sigma from g and h; a given one is
        # checked like every other parameter
        with pytest.raises(ModelError, match="^parameter 'sigma' must be "
                                             "(a number|finite), got "):
            make_model(name, {"sigma": value})

    @pytest.mark.parametrize("spec, label", [
        ({"params": {"sigma": "1"}}, "parameter 'sigma'"),
        ({"params": {"a": math.inf}}, "parameter 'a'"),
        ({"params": {"a": 10**400}}, "parameter 'a'"),
        ({"at_zero": math.nan}, "custom model 'at_zero'"),
        ({"at_zero": "0"}, "custom model 'at_zero'")])
    def test_custom_parameters_and_at_zero_are_checked(self, spec, label):
        with pytest.raises(ModelError, match=f"^{label} must be "):
            model_from_config({"kind": "scalar", "omega1": "-k^3", **spec})

    @pytest.mark.parametrize("params", [[["a", 2.0]], 5, "a"])
    def test_parameters_must_be_a_mapping(self, params):
        # dict() would read a list of pairs; a JSON array is no object
        match = re.escape(f"model parameters must be an object, got "
                          f"{params!r}")
        with pytest.raises(ModelError, match=f"^{match}$"):
            model_from_config({"kind": "scalar", "omega1": "a*k^3",
                               "params": params})
        with pytest.raises(ModelError, match=f"^{match}$"):
            make_model("kdv", params)

    def test_nonpositive_depth_rejected(self):
        with pytest.raises(ModelError):
            make_model("water-waves", {"g": 1.0, "h": -1.0})

    def test_water_wave_branch_at_zero(self):
        model = make_model("water-waves")
        assert eval_omega(model, 1, 0.0) == 0.0

    def test_whitham_kernel_continuity_at_zero(self):
        model = make_model("whitham", {"g": 2.0, "h": 3.0})
        assert model.kernel_symbol(0.0) == pytest.approx(math.sqrt(6.0))
        assert model.kernel_symbol(1e-8) == pytest.approx(math.sqrt(6.0),
                                                          abs=1e-6)

    def test_whitham_default_sigma(self):
        model = make_model("whitham", {"g": 4.0, "h": 1.0})
        assert model.sigma == pytest.approx(3.0)


class TestDispersion:
    def test_gkdv_speed(self):
        model = make_model("gkdv")
        assert bifurcation_speed(model, 1, 1) == -1.0
        assert bifurcation_speed(model, 1, 2) == -4.0

    def test_sine_gordon_speed(self):
        model = make_model("sine-gordon")
        assert bifurcation_speed(model, 1, 1) == pytest.approx(math.sqrt(2.0))

    def test_whitham_speed(self):
        model = make_model("whitham")
        assert bifurcation_speed(model, 1, 1) == pytest.approx(
            math.sqrt(math.tanh(1.0)))

    def test_zero_amp_eigenvalue_is_imaginary(self):
        # the zero wave's Hill spectrum at mu = 0.25 holds the mode n = 2
        # as lambda = -i*Omega(2.25), on the imaginary axis
        model = make_model("kdv")
        c = bifurcation_speed(model, 1, 1)
        vals = hill.full_spectrum(model, hill.zero_wave(model, c),
                                  [0.25], 4).values[0]
        Omega = eval_Omega(model, 1, 2.25, c)
        lam = vals[np.argmin(np.abs(vals + 1j * Omega))]
        assert lam.real == 0.0
        assert lam.imag == pytest.approx(-Omega)

    def test_declared_odd_but_even_raises(self):
        # a scalar model's one branch must mirror onto itself: be odd; the
        # model is refused when it is built
        with pytest.raises(ModelError,
                           match=r"no branch mirrors branch 1 .* = 1250 at k = 25"):
            model_from_config({"kind": "scalar", "omega1": "k^2"})


class TestCustomModels:
    def test_custom_scalar(self):
        model = model_from_config(
            {"kind": "scalar", "omega1": "-k^3", "params": {"sigma": 1.0}})
        assert eval_omega(model, 1, 2.0) == -8.0
        assert model.kernel_symbol(2.0) == -4.0
        for omega1 in ("k^3", "sign(k)*sqrt(g*k*tanh(k*h))"):
            odd = model_from_config({"kind": "scalar", "omega1": omega1,
                                     "params": {"g": 1.0, "h": 1.0}})
            assert validate_dispersive(odd) == {1: 1}

    def test_custom_canonical_defaults(self):
        model = model_from_config(
            {"kind": "canonical", "omega1": "sqrt(1+k^2)"})
        assert eval_omega(model, 2, 1.0) == pytest.approx(-math.sqrt(2.0))
        assert model.c_symbol(1.0) == pytest.approx(2.0)

    def test_branch_set_not_closed_under_reflection_rejected(self):
        # +-omega1 with omega1 not even: omega_2(-k) = -omega_1(k) fails,
        # and so does omega_1(-k) = -omega_1(k); the model is refused when
        # it is built
        with pytest.raises(ModelError,
                           match=r"mirrors branch 1 .* = 5 at k = 25"):
            model_from_config(
                {"kind": "canonical", "omega1": "sqrt(1+k^2)+0.1*k"})
        # +-k*sqrt(c_squared) with c_squared not even
        with pytest.raises(ModelError, match="mirrors branch 1"):
            model_from_config(
                {"kind": "noncanonical-bw", "omega1": "k*sqrt(1+0.01*k)",
                 "c_squared": "1+0.01*k"})

    def test_custom_bw_requires_c_squared(self):
        with pytest.raises(ModelError):
            model_from_config({"kind": "noncanonical-bw", "omega1": "k"})

    def test_custom_bw(self):
        model = model_from_config(
            {"kind": "noncanonical-bw", "omega1": "sign(k)*sqrt(k*tanh(k))",
             "c_squared": "tanh(k)/k", "at_zero": 1.0})
        assert model.kernel_symbol(0.0) == 1.0
        assert eval_omega(model, 1, 2.0) == pytest.approx(
            2.0 * math.sqrt(math.tanh(2.0) / 2.0))

    @pytest.mark.parametrize("omega1", ["k", "5*k"])
    def test_custom_bw_omega1_must_match_c_squared(self, omega1):
        # the branches are +-k*sqrt(c_squared); an omega1 that disagrees
        # would be silently ignored
        with pytest.raises(ModelError, match="'omega1' must equal"):
            model_from_config(
                {"kind": "noncanonical-bw", "omega1": omega1,
                 "c_squared": "tanh(k)/k", "at_zero": 1.0})

    def test_unknown_key_rejected(self):
        with pytest.raises(ModelError):
            model_from_config({"kind": "scalar", "omega1": "k", "bogus": 1})

    def test_at_zero_limit(self):
        # a BW c_squared and the scalar kernel omega1(k)/k divide by k, so
        # each takes the at_zero value at k = 0 without evaluating there
        with pytest.raises(dsl.EvalError, match="division by zero"):
            dsl.compile_symbol("g*tanh(k)/k", {"g": 2.0})(0.0)
        bw = model_from_config(
            {"kind": "noncanonical-bw", "omega1": "sign(k)*sqrt(g*k*tanh(k))",
             "c_squared": "g*tanh(k)/k", "params": {"g": 2.0}, "at_zero": 2.0})
        scalar = model_from_config(
            {"kind": "scalar", "omega1": "sign(k)*sqrt(k*tanh(k))",
             "at_zero": 1.0})
        default = model_from_config({"kind": "scalar", "omega1": "k^3"})
        ks = np.array([0.0, 1.0, -2.0])
        for model, at_zero, rest in (
                (bw, 2.0, [2.0 * math.tanh(1.0), math.tanh(2.0)]),
                (scalar, 1.0, [math.sqrt(math.tanh(1.0)),
                               math.sqrt(2.0 * math.tanh(2.0)) / 2.0]),
                (default, 0.0, [1.0, 4.0])):
            assert model.kernel_symbol(0.0) == model.kernel_symbol(-0.0) \
                == at_zero
            values = model.kernel_symbol(ks)
            assert values[0] == at_zero
            assert values[1:] == pytest.approx(rest, rel=1e-15)


class TestTravelingWaveSerialization:
    def test_round_trip(self):
        from hfstab.models import TravelingWave
        w = TravelingWave(model="kdv", c=-0.9, coefficients=[0.0, 0.1, 0.01],
                          constant=0.005)
        w2 = TravelingWave.from_dict(w.to_dict())
        assert w2.model == w.model and w2.c == w.c
        assert list(w2.coefficients) == list(w.coefficients)
        assert w2.constant == w.constant

    def test_profile_even(self):
        from hfstab.models import TravelingWave
        import numpy as np
        from wave_oracles import profile
        w = TravelingWave(model="kdv", c=-0.9, coefficients=[0.1, 0.2, 0.05])
        x = np.linspace(0.1, 3.0, 7)
        assert np.allclose(profile(w, x), profile(w, -x))


# --------------------------------------------------------------------------
# The symbol contract: a float or an ndarray in, the same shape out

# the expression-language twins of three built-ins (the benchmark's
# screen-dsl models)
DSL_TWINS = {
    "dsl-water-waves": {
        "kind": "canonical", "omega1": "sign(k)*sqrt(g*k*tanh(k*h))",
        "params": {"g": 1.0, "h": 0.97}},
    "dsl-fifth-order-scalar": {
        "kind": "scalar", "omega1": "alpha*k^3 - beta*k^5",
        "params": {"alpha": 1.0, "beta": 0.25}},
    "dsl-boussinesq-whitham": {
        "kind": "noncanonical-bw", "omega1": "sign(k)*sqrt(g*k*tanh(k*h))",
        "c_squared": "g*tanh(k*h)/k", "params": {"g": 1.0, "h": 1.03},
        "at_zero": 1.03},
}
SYMBOLS = ("kernel_symbol", "b_symbol", "c_symbol")


def build(name):
    if name in DSL_TWINS:
        return model_from_config(DSL_TWINS[name])
    return make_model(name)


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS) + sorted(DSL_TWINS))
def test_array_symbols_match_scalar_calls_bit_for_bit(name):
    model = build(name)
    ks = np.concatenate([[0.0, -0.0], np.linspace(-7.3, 7.3, 147),
                         np.arange(-30, 31) + 0.25])
    symbols = [b.evaluator for b in model.branches]
    symbols += [getattr(model, f) for f in SYMBOLS
                if getattr(model, f) is not None]
    for symbol in symbols:
        arr = symbol(ks)
        assert arr.shape == ks.shape
        assert symbol(ks.reshape(3, -1)).shape == (3, ks.size // 3)
        ones = [symbol(float(k)) for k in ks]
        assert all(type(v) is float for v in ones)
        assert np.array(ones, dtype=arr.dtype).tobytes() == arr.tobytes()


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS) + sorted(DSL_TWINS))
def test_branch_set_is_closed_under_reflection(name):
    # every branch l has a mirror l' with omega_l'(-k) = -omega_l(k), with
    # no roundoff at all on the validation grid: the Hill spectra at mu < 0
    # are derived from this reflection
    model = build(name)
    validate_dispersive(model)
    ks = models._DISPERSIVE_GRID
    w = {b.index: (eval_omega(model, b.index, ks),
                   eval_omega(model, b.index, -ks)) for b in model.branches}
    for l in w:
        assert min(np.max(np.abs(w[lp][1] + w[l][0])) for lp in w) == 0.0


@pytest.mark.parametrize("name", sorted(BUILTIN_MODELS) + sorted(DSL_TWINS)
                         + ["custom-canonical"])
def test_validate_dispersive_returns_mirror_map(name):
    # odd branches mirror onto themselves, the even pair +-sqrt(1+k^2)
    # swaps; building the model checks it, evaluating each branch once, and
    # each call of ``validate_dispersive`` returns the map
    model = (model_from_config({"kind": "canonical", "omega1": "sqrt(1+k^2)"})
             if name == "custom-canonical" else build(name))
    calls = {}

    def counted(b):
        def evaluator(k):
            calls[b.index] = calls.get(b.index, 0) + 1
            return b.evaluator(k)
        return models.DispersionBranch(b.index, evaluator)
    model = dataclasses.replace(
        model, branches=tuple(counted(b) for b in model.branches))
    if model.kind == models.SCALAR:
        want = {1: 1}
    elif name in ("sine-gordon", "custom-canonical"):
        want = {1: 2, 2: 1}
    else:
        want = {1: 1, 2: 2}
    assert calls == {l: 1 for l in want}
    assert validate_dispersive(model) == want
    assert calls == {l: 2 for l in want}
    assert not hasattr(model, "mirror")


@pytest.mark.parametrize("text, bad, message", [
    ("sqrt(k)", -1.0, "sqrt of a negative value"),
    ("1/k", 0.0, "division by zero"),
    ("k^0.5", -2.0, "invalid power"),
    ("exp(k)", 1000.0, "exp overflowed"),
])
def test_one_bad_point_fails_an_array_like_the_scalar_call(text, bad,
                                                           message):
    symbol = dsl.compile_symbol(text)
    with pytest.raises(dsl.EvalError, match=message):
        symbol(bad)
    with pytest.raises(dsl.EvalError, match=f"{message} at k={bad!r}"):
        symbol(np.array([0.5, 1.5, bad, 2.0]))
    assert symbol(np.array([0.5, 2.0])).shape == (2,)


CONSTRUCTORS = {"_scalar_model", "_canonical", "_boussinesq_whitham"}


def test_only_the_three_constructors_build_a_model():
    # one constructor per Hamiltonian structure builds every ModelSpec in
    # src/, the built-in and the custom models alike
    def callers(node, where):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == "ModelSpec":
                yield where
            scope = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            yield from callers(child, child.name if scope else where)

    found = set()
    for path in sorted(Path(models.__file__).parent.glob("*.py")):
        found |= {(path.name, where) for where in
                  callers(ast.parse(path.read_text()), "<module>")}
    assert found == {("models.py", name) for name in CONSTRUCTORS}
