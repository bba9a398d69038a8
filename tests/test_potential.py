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
    xs = np.array([-3.0, -0.5, 0.0, 0.5, 7.0])
    for x, w, slope in zip(xs.tolist(), p.W(xs).tolist(), p.W_prime(xs).tolist()):
        assert w == pytest.approx(x, abs=1e-15)
        assert slope == 1.0


def test_exp_induces_two_sinh():
    p = exp_potential()
    xs = np.array([-4.0, -1.0, 0.0, 2.0, 10.0])
    for x, w, slope in zip(xs.tolist(), p.W(xs).tolist(), p.W_prime(xs).tolist()):
        assert w == pytest.approx(2.0 * math.sinh(x), rel=1e-15, abs=1e-15)
        assert slope == pytest.approx(2.0 * math.cosh(x), rel=1e-15)


def test_w_is_odd():
    p = exp_potential()
    x = np.linspace(0.125, 12.0, 20)
    assert np.array_equal(p.W(-x), -p.W(x))


def test_w_inverse_at_zero():
    assert exp_potential().W_inverse(np.array(0.0)) == 0.0


@pytest.mark.parametrize("factory", [ramp_potential, exp_potential])
def test_round_trip_both_directions(factory):
    p = factory()
    xs = np.linspace(-20.0, 20.0, 41)
    for x, back in zip(xs.tolist(), p.W_inverse(p.W(xs)).tolist()):
        assert abs(back - x) <= 1e-9
    ys = np.array([-1e4, -3.3, 0.7, 5e3])
    for y, there in zip(ys.tolist(), p.W(p.W_inverse(ys)).tolist()):
        assert abs(there - y) <= 1e-9 * max(1.0, abs(y))


def test_finite_difference_derivative_path():
    p = induced_map(math.exp, None, label="exp-fd")
    assert p.V_prime is None
    xs = np.array([-2.0, 0.0, 1.5])
    for x, slope in zip(xs.tolist(), p.W_prime(xs).tolist()):
        assert slope == pytest.approx(2.0 * math.cosh(x), rel=1e-9)


def test_finite_difference_inverse_near_overflow():
    # the stencil around W^{-1}(1.7e308) reaches past exp's float range;
    # the inverse keeps its bisection value instead of raising
    p = induced_map(math.exp, None, label="exp-fd")
    assert float(p.W_inverse(np.array(1.7e308))) == pytest.approx(math.log(1.7e308), rel=1e-12)


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


@pytest.mark.parametrize("expression,bottom",
                         [("x+31", "-inf"), ("exp(x)-exp(-40)", "-4.24835e-18")])
def test_potential_unbounded_below_is_rejected(expression, bottom):
    # non-negative on the check grid [-30, 30], negative beyond it: V(-inf)
    # names it
    message = rf"^V must be non-negative: V\(-inf\) = {bottom}$"
    with pytest.raises(MonotonicityError, match=message) as e:
        induced_map(parse_expression(expression))
    assert e.value.pair[0] == -math.inf


def test_potential_nan_at_minus_infinity_is_rejected():
    with pytest.raises(MonotonicityError, match=r"V\(-inf\) = nan"):
        induced_map(lambda x: np.where(np.isinf(x), np.nan, np.exp(x)))


def test_bounded_potential_range_failure():
    # arctan-like bounded V: W = 2 arctan(x) has range (-pi, pi), so far
    # targets must fail at bracket expansion
    bounded = induced_map(lambda x: 2.0 + math.atan(x), label="bounded")
    with pytest.raises(RangeError):
        bounded.W_inverse(np.array(4.0))
    # same through the expression grammar, whose evaluator saturates overflow;
    # here W(x) = tanh(x/2) with range (-1, 1)
    bounded2 = induced_map(parse_expression("2 - 1/(1+exp(x))"), label="bounded2")
    with pytest.raises(RangeError):
        bounded2.W_inverse(np.array(1.5))
    # no transported state either, even where the Lorentzian's feature points
    # lie inside W's range: its masses would miss the tails beyond +-pi
    for p in (bounded, bounded2):
        with pytest.raises(RangeError):
            build_initial_state(p, DephasingParams(1.0, 0.0))


def test_ramp_state_is_the_lorentzian():
    params = DephasingParams(1.0, 0.5)
    state = build_initial_state(ramp_potential(), params)
    lor = lorentzian_density(params)
    xs = np.linspace(-8.0, 8.0, 33)
    for got, want in zip(state.density.density(xs).tolist(), lor.density(xs).tolist()):
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("gamma,omega0", [(1.0, 0.0), (0.5, 1.0), (2.0, -1.0)])
def test_exp_state_matches_closed_form(gamma, omega0):
    params = DephasingParams(gamma, omega0)
    state = build_initial_state(exp_potential(), params)
    xs = np.linspace(-6.0, 6.0, 101)
    for x, got in zip(xs.tolist(), state.density.density(xs).tolist()):
        want = sinh_state_density(gamma, omega0, x)
        assert abs(got - want) <= 1e-10 * max(1.0, want)


def test_exp_state_value_at_origin():
    # W'(0) p_C(0) = 2 * (2/(pi gamma)) = 4/(pi gamma)
    state = build_initial_state(exp_potential(), DephasingParams(1.0, 0.0))
    assert float(state.density.density(np.array(0.0))) == pytest.approx(4.0 / math.pi, rel=1e-14)


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
    x = np.array([-3.0, 0.4, 2.0])
    assert np.array_equal(p.W(x), q.W(x))


def test_expression_grammar():
    f = parse_expression("2*x + x^2 - max(x, 0)/3")
    assert float(f(np.array(2.0))) == pytest.approx(4.0 + 4.0 - 2.0 / 3.0)
    g = parse_expression("cosh(x) + sinh(x)")
    assert float(g(np.array(1.0))) == pytest.approx(math.e)
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
    v_plus = p.V(g.nodes)
    v_minus = p.V(-g.nodes)
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


# gamma*t = 1e5 at omega0 = 0.7 gamma: a monotone head of 31,831 half-periods
# per half-line, under the cap of 65,536
_HEADS_AT_1E5 = [(gamma, 0.7, 1e5) for gamma in (1.0, 1e3)]


@pytest.mark.parametrize("cfg", [CFG, TIGHT], ids=["1e-9", "1e-12"])
@pytest.mark.parametrize("name", ["ramp", "exp", "cubic-fd"])
def test_potential_factors_with_heads_of_31831_half_periods(name, cfg):
    # every point is the exponential within cfg.target, or raises a failure
    # whose bound covers its error
    p = _STRESS_POTENTIALS[name]()
    misses = []
    for gamma, ratio, gt in _HEADS_AT_1E5:
        want = cmath.exp(complex(-gt / 2.0, -ratio * gt))
        try:
            got = generalized_dephasing_factor(p, DephasingParams(gamma, ratio * gamma),
                                               gt / gamma, cfg)
        except QuadratureFailure as exc:
            if not abs(exc.estimate - want) <= exc.error_bound:
                misses.append((gamma, exc.detail, abs(exc.estimate - want)))
            continue
        if not abs(got - want) <= cfg.target(want):
            misses.append((gamma, abs(got - want)))
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


# V, W and W' take arrays, what the cells evaluate; an element's value in an
# array is the value of that element alone, a 0-d array
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
        return np.array([fn(np.array(v)) for v in y.ravel().tolist()]).reshape(y.shape)

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
    # numpy gives inf, nan or (under exp) a finite 0 where the expression is
    # not a real number; the array raises the ExpressionError of that
    # element alone, a 0-d array, naming x
    f = parse_expression(src)
    with pytest.raises(ExpressionError) as on_float:
        f(np.array(x_bad))
    with pytest.raises(ExpressionError) as on_array:
        f(np.array([[1.0, x_bad], [2.0, 3.0]]))
    assert str(on_array.value) == str(on_float.value)
    assert f"x = {x_bad:g}" in str(on_array.value)


def test_expression_on_array_saturates_like_its_float_call():
    # an array saturates where its elements alone, 0-d arrays, do
    x = np.array([-1e3, -1.0, 0.0, 1e3])
    for src in ("sinh(x)", "exp(x) + cosh(x)", "x^400"):
        f = parse_expression(src)
        np.testing.assert_array_equal(f(x), [f(np.array(v)) for v in x.tolist()])


def test_expression_overflow_saturates_to_the_signed_inf():
    # exp, sinh and cosh saturate to the infinity of the value's sign, and
    # so do powers and products, with no numpy warning
    x = np.array([-1e3, 1e3])
    cases = {"exp(x)": [0.0, math.inf], "sinh(x)": [-math.inf, math.inf],
             "cosh(x)": [math.inf, math.inf], "x^401": [-math.inf, math.inf],
             "1e306*x": [-math.inf, math.inf]}
    for src, want in cases.items():
        f = parse_expression(src)
        np.testing.assert_array_equal(f(x), want)
        assert [float(f(np.array(v))) for v in x.tolist()] == want


@pytest.mark.parametrize("src, xs, x_bad", [
    ("1/x", [2.0, 0.0, -0.0], 0.0),
    ("(x+40)^0.5", [1.0, -64.0, -50.0], -64.0),
    ("log(x)", [3.0, -1.0, -2.0], -1.0),
    ("exp(x) - exp(x)", [1.0, 1e3, 2e3], 1e3),
], ids=["pole", "complex", "log-of-negative", "inf-minus-inf"])
def test_expression_error_names_the_first_offending_x(src, xs, x_bad):
    # where numpy gives inf or nan, the array is re-evaluated element by
    # element, and the first such x in its order is named
    f = parse_expression(src)
    with pytest.raises(ExpressionError) as exc_info:
        f(np.array(xs + xs).reshape(2, 3))
    assert f"x = {x_bad:g} (" in str(exc_info.value)


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
    for y, x, x_bisected in zip(targets.tolist(), p.W_inverse(targets).tolist(),
                                bisected.W_inverse(targets).tolist()):
        assert x.hex() == y.hex() == x_bisected.hex()
    zero = np.array(-0.0)
    assert float(p.W_inverse(zero)).hex() == float(bisected.W_inverse(zero)).hex()


@pytest.mark.parametrize("name", list(_ARRAY_POTENTIALS))
def test_w_inverse_of_an_array_equals_each_target_alone(name):
    # bit for bit, signed zeros included: a cell edge does not depend on the
    # other edges mapped in the same call, which a series equal to its
    # points rests on
    p = _ARRAY_POTENTIALS[name]()
    rng = np.random.default_rng(29)
    y = np.concatenate((rng.uniform(-50.0, 50.0, 60), rng.uniform(-1e-3, 1e-3, 20),
                        [s * 10.0**k for k in range(-12, 13, 2) for s in (-1.0, 1.0)],
                        [0.0, -0.0])).reshape(2, -1)
    got = p.W_inverse(y)
    alone = np.array([p.W_inverse(np.array(v)) for v in y.ravel().tolist()]).reshape(y.shape)
    assert got.shape == y.shape
    assert np.array_equal(got.view(np.int64), alone.view(np.int64))


def test_w_inverse_range_error_names_the_first_unreachable_target():
    # W = 2 arctan(x) has range (-pi, pi): the first target out of it in the
    # array's order is named, a lower one, although upper ends expand first
    bounded = induced_map(lambda x: 2.0 + np.arctan(x), label="bounded")
    with pytest.raises(RangeError) as exc_info:
        bounded.W_inverse(np.array([0.5, -4.0, 5.0, 1.0]))
    assert "W never reaches -4:" in str(exc_info.value)



def _level_by_level_inverse(p, y):
    # W_inverse's bisection as each level once gathered and scattered it,
    # every bracket indexed in the full arrays: the oracle of the compact one
    def guarded(x):
        with np.errstate(over="ignore"):
            w = p.W(x)
        if np.isnan(w).any():
            raise RangeError(f"W({x[np.isnan(w)][0]:g}) evaluated to NaN")
        return w

    y = np.asarray(y, dtype=float)
    targets = y.ravel()
    lo, hi = np.full(targets.size, -1.0), np.full(targets.size, 1.0)
    doublings = np.zeros(targets.size, dtype=int)
    for end, sign in ((hi, 1.0), (lo, -1.0)):
        i = np.flatnonzero(doublings <= 200)
        while i.size:
            i = i[sign * guarded(end[i]) < sign * targets[i]]
            end[i] *= 2.0
            doublings[i] += 1
            i = i[doublings[i] <= 200]
    if (doublings > 200).any():
        raise RangeError(f"W never reaches {targets[doublings > 200][0]:g}: bracket expansion "
                         f"failed after 200 doublings (bounded potential?)")
    i = np.arange(targets.size)
    for _ in range(200):
        mid = 0.5 * (lo[i] + hi[i])
        moving = (mid != lo[i]) & (mid != hi[i])
        i, mid = i[moving], mid[moving]
        if not i.size:
            break
        w_mid = guarded(mid)
        hit, below = w_mid == targets[i], w_mid < targets[i]
        lo[i] = np.where(below | hit, mid, lo[i])
        hi[i] = np.where(below, hi[i], mid)
        wide = hi[i] - lo[i] > 1e-12 * np.maximum(1.0, np.abs([lo[i], hi[i]]).max(0))
        i = i[wide & ~hit]
    x = 0.5 * (lo + hi)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope = p.W_prime(x)
        i = np.flatnonzero((slope > 0) & np.isfinite(slope))
        step = (guarded(x[i]) - targets[i]) / slope[i]
    short = np.isfinite(step) & (np.abs(step) < np.maximum(1.0, np.abs(x[i])))
    x[i[short]] -= step[short]
    return x.reshape(y.shape)


def _inverse_or_error(inverse, y):
    try:
        return inverse(y).tobytes()
    except RangeError as exc:
        return str(exc)


@pytest.mark.parametrize("name", ["exp", "exp-fd", "expr-exp", "cubic-fd", "math-exp"])
def test_compact_bisection_equals_the_level_by_level_loop(name):
    # bit for bit, signed zeros and exact hits included, and the same
    # RangeError where W does not reach a target (the cubic's W stops short
    # of 1e300 within 200 doublings)
    p = _ARRAY_POTENTIALS[name]()
    rng = np.random.default_rng(31)
    wide = 10.0 ** rng.uniform(-14.0, 14.0, 120) * rng.choice([-1.0, 1.0], 120)
    hits = p.W(np.array([0.5, 0.25, -0.75, 1.5, 3.0, -6.0]))
    y = np.concatenate((wide, hits, [0.0, -0.0]))
    assert p.W_inverse(y).tobytes() == _level_by_level_inverse(p, y).tobytes()
    extreme = np.concatenate((y, [1e300, -1e300, 1e-300, -1e-300, 1.7e308, -1.7e308]))
    assert (_inverse_or_error(p.W_inverse, extreme)
            == _inverse_or_error(lambda v: _level_by_level_inverse(p, v), extreme))
    for shape in ((0,), (2, 0)):
        empty = p.W_inverse(np.zeros(shape))
        assert empty.shape == shape and empty.dtype == np.float64


def test_w_inverse_nan_names_the_first_nan_node():
    # W is NaN from |x| = 40 on: the bracket of 1e15 and 1e16 doubles to 64
    nan_beyond_40 = induced_map(lambda x: np.where(x < 40.0, np.exp(x), np.nan))
    with pytest.raises(RangeError, match=r"^W\(64\) evaluated to NaN$"):
        nan_beyond_40.W_inverse(np.array([1.0, 1e15, 1e16]))
    # W is NaN for 40 < |x| < 42, where the brackets of W(41) and -W(41) bisect
    # at +-41.65625 on the same level, after the hit at 0 has been compacted
    # away: the first NaN in the targets' order is named
    nan_window = induced_map(lambda x: np.where((x > 40.0) & (x < 42.0), np.nan, np.exp(x)))
    w41 = 2.0 * math.sinh(41.0)
    for targets, node in (([0.0, w41, -w41], "41.6562"), ([0.0, -w41, w41], "-41.6562")):
        with pytest.raises(RangeError, match=rf"^W\({node}\) evaluated to NaN$"):
            nan_window.W_inverse(np.array(targets))


def test_factor_series_maps_heads_and_first_tail_blocks_in_one_call(monkeypatch):
    # one W_inverse call before the first rule call, for the heads and the
    # first tail block of every sum; then one a later tail pass, each before
    # the pass's rule calls and Wynn table (one _wynn_block call a pass)
    events, targets = [], []
    p = exp_potential()
    bisect, block_rule, wynn = p.W_inverse, oscint._qk21_cells, oscint._wynn_block

    def W_inverse(y):
        events.append("inverse")
        targets.append(y.copy())
        return bisect(y)

    def rule(*args):
        events.append("rule")
        return block_rule(*args)

    def wynn_block(*args):
        events.append("wynn")
        return wynn(*args)

    monkeypatch.setattr(oscint, "_qk21_cells", rule)
    monkeypatch.setattr(oscint, "_wynn_block", wynn_block)
    p = dataclasses.replace(p, W_inverse=W_inverse)
    params = DephasingParams(1.0, 0.3)
    state = build_initial_state(p, params)
    events.clear()
    targets.clear()
    times = np.array([0.5, 2.0, 6.0])
    series = generalized_factor_series(p, params, times, CFG, state)
    assert np.abs(series.values - np.exp(-times / 2.0 - 0.3j * times)).max() <= 1e-9
    assert events[:2] == ["inverse", "rule"]
    passes = events.count("wynn")
    assert passes >= 2
    assert [e for e in events if e != "rule"] == ["inverse", "wynn"] * passes
    # the first call ends with 8 edges of each of the 6 sums (3 times, both
    # half-lines), each block half-periods pi/t apart
    first_blocks = targets[0][-6 * 8:].reshape(6, 8)
    steps = np.abs(np.diff(first_blocks, axis=1))
    assert targets[0].size > 6 * 8
    assert np.allclose(np.sort(steps[:, 0]), np.sort(np.tile(math.pi / times, 2)), rtol=1e-12)
    assert np.allclose(steps, steps[:, :1], rtol=1e-9)


def test_cells_call_v_on_arrays(monkeypatch):
    # in a factor evaluation V sees arrays only, inside W_inverse too, and
    # W_inverse maps the cell edges of both half-lines' sums at most once per
    # pass: never twice without a block rule call between
    calls, events = [], []

    def V(x):
        calls.append(isinstance(x, np.ndarray))
        return np.exp(x)

    p = induced_map(V, V, label="spy")
    bisect, block_rule = p.W_inverse, oscint._qk21_cells

    def W_inverse(y):
        events.append("inverse")
        return bisect(y)

    def rule(*args):
        events.append("rule")
        return block_rule(*args)

    monkeypatch.setattr(oscint, "_qk21_cells", rule)
    p = dataclasses.replace(p, W_inverse=W_inverse)
    params = DephasingParams(1.0, 0.3)
    state = build_initial_state(p, params)
    calls.clear()
    events.clear()
    got = generalized_dephasing_factor(p, params, 2.0, CFG, state)
    assert abs(got - cmath.exp(complex(-1.0, -0.6))) <= 1e-9
    assert calls and all(calls)
    assert "inverse" in events
    assert ("inverse", "inverse") not in set(zip(events, events[1:]))


def test_density_on_array_rejects_a_bad_jacobian_like_its_float_call():
    # a V' of the wrong sign gives W' < 0: the first such node is named
    p = induced_map(math.exp, lambda x: -math.exp(x), label="wrong-sign")
    dens = build_initial_state(p, DephasingParams(1.0, 0.0)).density.density
    with pytest.raises(ValueError) as on_float:
        dens(np.array(0.5))
    with pytest.raises(ValueError) as on_array:
        dens(np.array([[0.5, 1.0], [2.0, 3.0]]))
    assert str(on_array.value) == str(on_float.value)
    assert "W'(0.5)" in str(on_array.value)


@pytest.mark.parametrize("fd_derivative", [False, True], ids=["exact", "fd"])
def test_density_is_zero_where_w_overflows(fd_derivative):
    # the density falls like W'/W^2, so it is 0 where W = 2 sinh(x) leaves
    # the float range, on 0-d arrays and on others; other nodes keep their values
    p = exp_potential(fd_derivative)
    dens = build_initial_state(p, DephasingParams(1.0, 0.0)).density.density
    assert dens(np.array(-800.0)) == dens(np.array(1e4)) == 0.0
    got = dens(np.array([[-800.0, -1.0], [0.5, 1e4]]))
    assert got[0, 0] == got[1, 1] == 0.0
    assert got[0, 1] == dens(np.array([-1.0]))[0] and got[1, 0] == dens(np.array([0.5]))[0]
    assert got[1, 0] == pytest.approx(float(dens(np.array(0.5))), rel=1e-15)
