import cmath
import dataclasses
import math

import numpy as np
import pytest

from decaylab import (
    DephasingParams,
    QuadratureConfig,
    MonotonicityError,
    QuadratureFailure,
    RangeError,
    build_initial_state,
    exp_potential,
    exponential_fit,
    fourier_amplitude,
    generalized_dephasing_factor,
    generalized_factor_series,
    induced_map,
    lorentzian_density,
    normalize_check,
    ramp_potential,
    symmetric_graded_grid,
)
from decaylab import oscint
from decaylab.expressions import ExpressionError, parse_expression

CFG = QuadratureConfig()
TIGHT = QuadratureConfig(abs_tol=1e-12, rel_tol=1e-12)


def sinh_state_density(gamma, omega0, x):
    # closed form of the transported state for V = exp:
    # |phi(x)|^2 = W'(x) p_C(W(x)) with W = 2 sinh
    w = 2.0 * math.sinh(x)
    return (gamma * math.cosh(x) / math.pi) / ((w - omega0) ** 2 + gamma**2 / 4.0)


def test_ramp_induces_identity():
    p = ramp_potential()
    for x in (-3.0, -0.5, 0.0, 0.5, 7.0):
        assert p.W(x) == pytest.approx(x, abs=1e-15)
        assert p.W_prime(x) == 1.0


def test_exp_induces_two_sinh():
    p = exp_potential()
    for x in (-4.0, -1.0, 0.0, 2.0, 10.0):
        assert p.W(x) == pytest.approx(2.0 * math.sinh(x), rel=1e-15, abs=1e-15)
        assert p.W_prime(x) == pytest.approx(2.0 * math.cosh(x), rel=1e-15)


def test_w_is_odd():
    p = exp_potential()
    for x in np.linspace(0.125, 12.0, 20):
        assert p.W(-x) == -p.W(x)


def test_w_inverse_at_zero():
    assert exp_potential().W_inverse(0.0) == 0.0


@pytest.mark.parametrize("factory", [ramp_potential, exp_potential])
def test_round_trip_both_directions(factory):
    p = factory()
    for x in np.linspace(-20.0, 20.0, 41):
        assert abs(p.W_inverse(p.W(float(x))) - x) <= 1e-9
    for y in (-1e4, -3.3, 0.7, 5e3):
        assert abs(p.W(p.W_inverse(float(y))) - y) <= 1e-9 * max(1.0, abs(y))


def test_finite_difference_derivative_path():
    p = induced_map(math.exp, None, label="exp-fd")
    assert p.V_prime is None
    for x in (-2.0, 0.0, 1.5):
        assert p.W_prime(x) == pytest.approx(2.0 * math.cosh(x), rel=1e-9)


def test_finite_difference_inverse_near_overflow():
    # the stencil around W^{-1}(1.7e308) reaches past exp's float range;
    # the inverse keeps its bisection value instead of raising
    p = induced_map(math.exp, None, label="exp-fd")
    assert p.W_inverse(1.7e308) == pytest.approx(math.log(1.7e308), rel=1e-12)


def test_monotonicity_rejections():
    with pytest.raises(MonotonicityError) as e:
        induced_map(lambda x: x)  # negative on the left half-line
    assert e.value.pair is not None
    with pytest.raises(MonotonicityError):
        induced_map(lambda x: math.exp(-x))  # decreasing
    with pytest.raises(MonotonicityError) as e:
        induced_map(lambda x: 1.0)  # flat on the positive half-line
    assert e.value.pair is not None
    with pytest.raises(MonotonicityError):
        induced_map(lambda x: 2.0 + math.sin(x))  # oscillating


def test_bounded_potential_range_failure():
    # arctan-like bounded V: W = 2 arctan(x) has range (-pi, pi), so far
    # targets must fail at bracket expansion
    bounded = induced_map(lambda x: 2.0 + math.atan(x), label="bounded")
    with pytest.raises(RangeError):
        bounded.W_inverse(4.0)
    # same through the expression grammar, whose evaluator saturates overflow;
    # here W(x) = tanh(x/2) with range (-1, 1)
    bounded2 = induced_map(parse_expression("2 - 1/(1+exp(x))"), label="bounded2")
    with pytest.raises(RangeError):
        bounded2.W_inverse(1.5)
    # no transported state either, even where the Lorentzian's feature points
    # lie inside W's range: its masses would miss the tails beyond +-pi
    for p in (bounded, bounded2):
        with pytest.raises(RangeError):
            build_initial_state(p, DephasingParams(1.0, 0.0))


def test_ramp_state_is_the_lorentzian():
    params = DephasingParams(1.0, 0.5)
    state = build_initial_state(ramp_potential(), params)
    lor = lorentzian_density(params)
    for x in np.linspace(-8.0, 8.0, 33):
        assert state.density.density(float(x)) == pytest.approx(lor.density(float(x)), rel=1e-12)


@pytest.mark.parametrize("gamma,omega0", [(1.0, 0.0), (0.5, 1.0), (2.0, -1.0)])
def test_exp_state_matches_closed_form(gamma, omega0):
    params = DephasingParams(gamma, omega0)
    state = build_initial_state(exp_potential(), params)
    for x in np.linspace(-6.0, 6.0, 101):
        want = sinh_state_density(gamma, omega0, float(x))
        assert abs(state.density.density(float(x)) - want) <= 1e-10 * max(1.0, want)


def test_exp_state_value_at_origin():
    # W'(0) p_C(0) = 2 * (2/(pi gamma)) = 4/(pi gamma)
    state = build_initial_state(exp_potential(), DephasingParams(1.0, 0.0))
    assert state.density.density(0.0) == pytest.approx(4.0 / math.pi, rel=1e-14)


@pytest.mark.parametrize("factory", [ramp_potential, exp_potential])
def test_transported_state_normalized(factory):
    for params in (DephasingParams(1.0, 0.0), DephasingParams(2.0, 1.0)):
        state = build_initial_state(factory(), params)
        assert abs(normalize_check(state.density, CFG) - 1.0) <= 1e-8


def test_generalized_factor_exp_values():
    params = DephasingParams(1.0, 0.0)
    p = exp_potential()
    assert generalized_dephasing_factor(p, params, 0.0, CFG) == pytest.approx(1.0, abs=1e-9)
    got = generalized_dephasing_factor(p, params, 2.0, CFG)
    assert abs(got - math.exp(-1.0)) <= 1e-8


def test_generalized_factor_negative_time_conjugates():
    params = DephasingParams(1.0, 1.0)
    p = exp_potential()
    state = build_initial_state(p, params)
    fwd = generalized_dephasing_factor(p, params, 1.5, CFG, state)
    bwd = generalized_dephasing_factor(p, params, -1.5, CFG, state)
    assert bwd == fwd.conjugate()


def test_substitution_equivalence_oracle():
    # u = W(x) reduces the direct x-space integral to the plain Lorentzian
    # transform; the two routes must agree within 2 abs_tol
    for params in (DephasingParams(1.0, 0.0), DephasingParams(2.0, 1.0)):
        lor = lorentzian_density(params)
        for p in (ramp_potential(), exp_potential()):
            state = build_initial_state(p, params)
            for t in (0.5, 2.0, 6.0):
                direct = generalized_dephasing_factor(p, params, t, CFG, state)
                substituted = fourier_amplitude(lor, t, CFG)
                assert abs(direct - substituted) <= 2 * CFG.abs_tol


@pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("analytic", [True, False])
def test_generalized_factor_fits_exponential(gamma, analytic):
    params = DephasingParams(gamma, 0.0)
    p = exp_potential() if analytic else induced_map(math.exp, None, label="exp-fd")
    ts = np.linspace(0.25, 10.0, 40)
    series = generalized_factor_series(p, params, ts, TIGHT)
    fit = exponential_fit(series, (0.0, 10.0))
    assert abs(fit.rate - gamma / 2.0) <= 1e-5
    assert fit.residual < 1e-6


def test_expression_potential_matches_builtin():
    p = induced_map(parse_expression("exp(x)"), label="expr")
    q = exp_potential()
    for x in (-3.0, 0.4, 2.0):
        assert p.W(x) == q.W(x)


def test_expression_grammar():
    f = parse_expression("2*x + x^2 - max(x, 0)/3")
    assert f(2.0) == pytest.approx(4.0 + 4.0 - 2.0 / 3.0)
    g = parse_expression("cosh(x) + sinh(x)")
    assert g(1.0) == pytest.approx(math.e)
    with pytest.raises(ExpressionError):
        parse_expression("__import__('os')")
    with pytest.raises(ExpressionError):
        parse_expression("y + 1")
    with pytest.raises(ExpressionError):
        parse_expression("exp(x); 1")
    with pytest.raises(ExpressionError):
        parse_expression("sin(x)")


def test_generalized_grid_positivity():
    # grid expectation sum V(x)|psi1|^2 + V(-x)|psi2|^2 >= 0 pointwise
    g = symmetric_graded_grid(x_max=20.0, n_nodes=201)
    rng = np.random.default_rng(5)
    p = exp_potential()
    v_plus = np.array([p.V(float(x)) for x in g.nodes])
    v_minus = np.array([p.V(float(-x)) for x in g.nodes])
    for _ in range(20):
        a = rng.normal(size=g.nodes.size) + 1j * rng.normal(size=g.nodes.size)
        b = rng.normal(size=g.nodes.size) + 1j * rng.normal(size=g.nodes.size)
        norm = math.sqrt(g.norm(a, b))
        a, b = a / norm, b / norm
        val = np.sum(g.weights * (v_plus * np.abs(a) ** 2 + v_minus * np.abs(b) ** 2))
        assert val >= 0.0


def _cubic_prime(x):
    # V' of max(x,0)^3 + max(x,0), with ramp_potential's symmetric subgradient at 0
    return 3.0 * max(x, 0.0) ** 2 + (1.0 if x > 0 else (0.5 if x == 0 else 0.0))


_STRESS_POTENTIALS = {
    "ramp": ramp_potential,
    "exp": exp_potential,
    "cubic-fd": lambda: induced_map(parse_expression("max(x,0)^3+max(x,0)"), label="cubic"),
    "cubic-exact": lambda: induced_map(parse_expression("max(x,0)^3+max(x,0)"), _cubic_prime,
                                       label="cubic"),
}
# (gamma, omega0/gamma, gamma*t): tiny gamma*t puts the whole Lorentzian
# inside one half-period, gamma sets the scale of W^{-1}(omega0 +- gamma)
_POTENTIAL_GRID = [
    (gamma, ratio, gt)
    for gamma in (1e-3, 1.0, 1e3)
    for ratio in (-2.5, 0.7, 10.0)
    for gt in (1e-8, 1e-6, 1e-3, 1.0, 1e2)
]
# long heads: about gamma*t / pi head cells per half-line; at 1e-12 each
# cell's share of the tolerance sits at its 1e-15 floor
_LONG_HEADS = [(1e-3, 0.7, 1e3), (1e-3, 0.7, 1e4)]


@pytest.mark.parametrize("cfg", [CFG, TIGHT], ids=["1e-9", "1e-12"])
@pytest.mark.parametrize("name", list(_STRESS_POTENTIALS))
def test_potential_factors_over_the_stress_grid(name, cfg):
    # every point is the exponential within cfg.target, or raises a failure
    # whose bound covers its error
    p = _STRESS_POTENTIALS[name]()
    grid = _POTENTIAL_GRID + (_LONG_HEADS if cfg is TIGHT else _LONG_HEADS[:1])
    misses = []
    for gamma, ratio, gt in grid:
        params = DephasingParams(gamma, ratio * gamma)
        t = gt / gamma
        want = cmath.exp(complex(-gt / 2.0, -ratio * gt))
        try:
            got = generalized_dephasing_factor(p, params, t, cfg)
        except QuadratureFailure as exc:
            if not abs(exc.estimate - want) <= exc.error_bound:
                misses.append((gamma, ratio, gt, exc.detail, abs(exc.estimate - want)))
            continue
        if not abs(got - want) <= cfg.target(want):
            misses.append((gamma, ratio, gt, abs(got - want)))
    assert misses == []


def test_roundoff_bound_cells_stop_refining(monkeypatch):
    # exp at gamma = 1e-3, gamma*t = 1e4: the rounding of t*W(x) at t = 1e7
    # holds up the error estimates of many refined head cells.  Each stops
    # after the bisections that gain nothing but roundoff, instead of at 200
    # parts (328,698 cells evaluated without the stop); the point still
    # raises, with a bound that covers its error
    cells, block_rule = [], oscint._qk21_cells

    def counting(values, half, *args):
        cells.append(len(half))
        return block_rule(values, half, *args)

    monkeypatch.setattr(oscint, "_qk21_cells", counting)
    with pytest.raises(QuadratureFailure) as exc_info:
        generalized_dephasing_factor(exp_potential(), DephasingParams(1e-3, 0.0), 1e7, TIGHT)
    assert sum(cells) <= 60_000
    failure = exc_info.value
    assert abs(failure.estimate - cmath.exp(-5e3)) <= failure.error_bound


# V, W and W' take a float or an array; the array is what the cells evaluate
_ARRAY_POTENTIALS = {
    "ramp": ramp_potential,
    "exp": exp_potential,
    "exp-fd": lambda: exp_potential(fd_derivative=True),
    "expr-exp": lambda: induced_map(parse_expression("exp(x)"), label="expr"),
    "cubic-fd": lambda: induced_map(parse_expression("max(x,0)^3+max(x,0)"), label="cubic"),
    "cubic-exact": lambda: induced_map(parse_expression("max(x,0)^3+max(x,0)"), _cubic_prime,
                                       label="cubic"),
    # a library user's V that takes floats only is lifted elementwise
    "math-exp": lambda: induced_map(math.exp, label="math.exp"),
}


@pytest.mark.parametrize("name", list(_ARRAY_POTENTIALS))
def test_potential_on_array_equals_elementwise_scalar_calls(name):
    # numpy's exp and sinh may differ from libm's by an ulp or two.  W = V(x)
    # - V(-x) and the differenced W' cancel, so they are compared in ulps of
    # the terms they combine; the density, in ulps of itself plus what those
    # differences move it by, p_C(W) |dW'| + W' |p_C'(W)| |dW|
    p = _ARRAY_POTENTIALS[name]()
    params = DephasingParams(0.7, 0.3)
    x = np.concatenate((np.linspace(-30.0, 30.0, 1201), [-1e-3, 1e-7, 0.0, 1e-300])).reshape(5, 241)

    def floats(fn, y=x):
        return np.array([fn(v) for v in y.ravel().tolist()]).reshape(y.shape)

    def terms(y):  # the size of what W(y) subtracts
        return np.abs(floats(p.V, y)) + np.abs(floats(p.V, -y))

    np.testing.assert_array_max_ulp(p.V(x), floats(p.V), maxulp=2)
    dw = 2 * np.spacing(terms(x))
    assert np.all(np.abs(p.W(x) - floats(p.W)) <= dw)
    slope = floats(p.W_prime)
    if p.V_prime is not None:
        np.testing.assert_array_max_ulp(p.W_prime(x), slope, maxulp=2)
        dslope = 2 * np.spacing(slope)
    else:
        h = 1e-3 * np.maximum(1.0, np.abs(x))
        stencil = (terms(x - 2 * h) + 8 * terms(x - h) + 8 * terms(x + h) + terms(x + 2 * h))
        dslope = 2 * np.spacing(stencil / (12 * h))
        assert np.all(np.abs(p.W_prime(x) - slope) <= dslope)
    dens = build_initial_state(p, params).density.density
    want = floats(dens)
    lor = lorentzian_density(params)
    w = floats(p.W)
    p_c = lor.density(w)
    dp_c = 2 * np.abs(w - params.omega0) * p_c**2 / (params.gamma / (2 * math.pi))
    bound = 2 * np.spacing(want) + p_c * dslope + slope * dp_c * dw
    assert np.all(np.abs(dens(x) - want) <= bound)


@pytest.mark.parametrize("src, x_bad", [("1/x", 0.0), ("(x+40)^0.5", -64.0), ("exp(-1/x)", 0.0)],
                         ids=["pole", "complex", "pole-under-exp"])
def test_expression_on_array_raises_like_its_float_call(src, x_bad):
    # numpy gives inf, nan or (under exp) a finite 0 where the float call
    # raises; the array raises the float call's ExpressionError, naming x
    f = parse_expression(src)
    with pytest.raises(ExpressionError) as on_float:
        f(x_bad)
    with pytest.raises(ExpressionError) as on_array:
        f(np.array([[1.0, x_bad], [2.0, 3.0]]))
    assert str(on_array.value) == str(on_float.value)
    assert f"x = {x_bad:g}" in str(on_array.value)


def test_expression_on_array_saturates_like_its_float_call():
    x = np.array([-1e3, -1.0, 0.0, 1e3])
    for src in ("sinh(x)", "exp(x) + cosh(x)", "x^400"):
        f = parse_expression(src)
        try:
            want = [f(v) for v in x.tolist()]
        except OverflowError:  # a float power past the float range raises
            with pytest.raises(OverflowError):
                f(x)
            continue
        np.testing.assert_array_equal(f(x), want)


@pytest.mark.parametrize("fd_derivative", [False, True], ids=["exact", "fd"])
def test_ramp_inverse_is_the_identity(fd_derivative):
    # W(x) = x exactly, so the identity is what bisecting W and polishing
    # with either W' returns, bit for bit
    p = ramp_potential(fd_derivative)
    bisected = induced_map(lambda x: max(x, 0.0),
                           None if fd_derivative else ramp_potential().V_prime)
    rng = np.random.default_rng(13)
    targets = np.concatenate((rng.uniform(-50.0, 50.0, 200), rng.uniform(-1e-3, 1e-3, 200),
                              [s * 10.0**k for k in range(-8, 6) for s in (-1.0, 1.0)]))
    for y in targets.tolist():
        assert p.W_inverse(y).hex() == y.hex() == bisected.W_inverse(y).hex()
    assert p.W_inverse(-0.0).hex() == bisected.W_inverse(-0.0).hex()


def test_cells_call_v_on_arrays():
    # in a factor evaluation V sees floats only inside W_inverse, which
    # places the cell edges; the cells and the phase of the split and
    # feature points take arrays
    calls, inverting = [], [0]

    def V(x):
        calls.append((isinstance(x, np.ndarray), inverting[0] > 0))
        return np.exp(x) if isinstance(x, np.ndarray) else math.exp(x)

    p = induced_map(V, V, label="spy")
    bisect = p.W_inverse

    def W_inverse(y):
        inverting[0] += 1
        try:
            return bisect(y)
        finally:
            inverting[0] -= 1

    p = dataclasses.replace(p, W_inverse=W_inverse)
    params = DephasingParams(1.0, 0.3)
    state = build_initial_state(p, params)
    calls.clear()
    got = generalized_dephasing_factor(p, params, 2.0, CFG, state)
    assert abs(got - cmath.exp(complex(-1.0, -0.6))) <= 1e-9
    assert any(on_array for on_array, _ in calls)
    assert all(inside for on_array, inside in calls if not on_array)


def test_density_on_array_rejects_a_bad_jacobian_like_its_float_call():
    # a V' of the wrong sign gives W' < 0: the first such node is named
    p = induced_map(math.exp, lambda x: -math.exp(x), label="wrong-sign")
    dens = build_initial_state(p, DephasingParams(1.0, 0.0)).density.density
    with pytest.raises(ValueError) as on_float:
        dens(0.5)
    with pytest.raises(ValueError) as on_array:
        dens(np.array([[0.5, 1.0], [2.0, 3.0]]))
    assert str(on_array.value) == str(on_float.value)
    assert "W'(0.5)" in str(on_array.value)


@pytest.mark.parametrize("fd_derivative", [False, True], ids=["exact", "fd"])
def test_density_is_zero_where_w_overflows(fd_derivative):
    # the density falls like W'/W^2, so it is 0 where W = 2 sinh(x) leaves
    # the float range, on floats and on arrays; other nodes keep their values
    p = exp_potential(fd_derivative)
    dens = build_initial_state(p, DephasingParams(1.0, 0.0)).density.density
    assert dens(-800.0) == dens(1e4) == 0.0
    got = dens(np.array([[-800.0, -1.0], [0.5, 1e4]]))
    assert got[0, 0] == got[1, 1] == 0.0
    assert got[0, 1] == dens(np.array([-1.0]))[0] and got[1, 0] == dens(np.array([0.5]))[0]
    assert got[1, 0] == pytest.approx(dens(0.5), rel=1e-15)
