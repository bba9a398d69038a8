"""Independent reference values for every job kind the benchmark runs.

Nothing here calls into decaylab: each value comes from a closed form, so a
point that misses its reference is a wrong answer of the program, not of a
shared helper.
"""

from __future__ import annotations

import cmath
import math

from scipy.special import exp1, spence


def lorentzian(gamma: float, omega0: float, t: float) -> complex:
    """Fourier transform of the Cauchy-Lorentz density: e^{-gamma|t|/2 - i omega0 t}."""
    return cmath.exp(complex(-gamma * abs(t) / 2.0, -omega0 * t))


def exponential(rate: float, t: float) -> complex:
    """Transform of rate e^{-rate E} on [0, inf): rate / (rate + i t)."""
    return rate / complex(rate, t)


def triangle(center: float, half_width: float, t: float) -> complex:
    """Transform of the triangle table with knots (c-w, 0), (c, 1/w), (c+w, 0):
    e^{-i c t} 2(1 - cos(w t)) / (w t)^2."""
    h = 0.5 * half_width * t
    core = 1.0 if h == 0 else (math.sin(h) / h) ** 2  # = 2(1 - cos 2h) / (2h)^2
    return cmath.exp(complex(0.0, -center * t)) * core


def _exp_e1(w: complex) -> complex:
    """e^w E1(w) on the principal branch; asymptotic series where e^w or E1
    would overflow (there |w| > 600, so the series is exact to rounding)."""
    if abs(w.real) < 600.0:
        return cmath.exp(w) * complex(exp1(w))
    total, term = 0.0 + 0.0j, 1.0 / w
    for k in range(1, 60):
        total += term
        nxt = -term * k / w
        if abs(nxt) >= abs(term):
            break
        term = nxt
    return total


def _halfline_pole(z: complex, t: float) -> complex:
    """J(z) = int_0^inf e^{-iEt} / (E - z) dE for t > 0."""
    w = -1j * z * t
    val = _exp_e1(w)
    if z.imag < 0 and w.real < 0 and w.imag < 0:
        # the principal branch of E1 drops the pole term in the third quadrant
        val -= 2j * math.pi * cmath.exp(w)
    return val


def lorentzian_positive_half(gamma: float, omega0: float, t: float) -> complex:
    """int_0^inf e^{-iEt} p_C(E) dE = (J(z+) - J(z-)) / (2 pi i), z+- = omega0 +- i gamma/2."""
    if t == 0:
        return complex(0.5 + math.atan(2.0 * omega0 / gamma) / math.pi)
    if t < 0:
        return lorentzian_positive_half(gamma, omega0, -t).conjugate()
    zp, zm = complex(omega0, gamma / 2.0), complex(omega0, -gamma / 2.0)
    return (_halfline_pole(zp, t) - _halfline_pole(zm, t)) / (2j * math.pi)


def global_survival(w0: float, gamma: float, omega0: float, t: float) -> complex:
    """Survival amplitude of chi (x) phi with spin weights (w0, 1 - w0).

    Each ramp freezes the opposite half-line (its mass) and Fourier transforms
    its own side; the negative side is the positive side of the mirrored
    Lorentzian (omega0 -> -omega0).
    """
    mass_neg = 0.5 - math.atan(2.0 * omega0 / gamma) / math.pi
    pos = mass_neg + lorentzian_positive_half(gamma, omega0, t)
    neg = (1.0 - mass_neg) + lorentzian_positive_half(gamma, -omega0, t)
    return w0 * pos + (1.0 - w0) * neg


def pw_dephasing(gamma: float, T: float) -> float:
    """int_{-T}^{T} (gamma |t| / 2) / (1 + t^2) dt = (gamma / 2) ln(1 + T^2)."""
    return 0.5 * gamma * math.log1p(T * T)


def _li2(z: complex) -> complex:
    return complex(spence(1.0 - z))


def pw_halfline_exp(rate: float, T: float) -> float:
    """Exact truncated Paley-Wiener integral of |rate / (rate + i t)|:
    int_0^T ln(1 + t^2/r^2) / (1 + t^2) dt.

    With t = tan(x) and q = (r-1)/(r+1) it is
    2x ln((r+1)/r) - Im Li2(-q e^{2ix}) - Cl2(pi - 2x), Cl2(phi) = Im Li2(e^{i phi}).
    """
    x = math.atan(T)
    q = (rate - 1.0) / (rate + 1.0)
    clausen = _li2(cmath.exp(1j * (math.pi - 2.0 * x))).imag
    return 2.0 * x * math.log((rate + 1.0) / rate) - _li2(-q * cmath.exp(2j * x)).imag - clausen


def pw_from_samples(times, magnitudes, T: float) -> float:
    """pw(T) of sampled |a|, integrating -ln|a| linearly interpolated between
    samples against 1/(1+t^2) exactly (the rule the series report states)."""
    total = 0.0
    for i in range(len(times) - 1):
        a, b = float(times[i]), float(times[i + 1])
        if a >= T:
            break
        la = -math.log(min(max(magnitudes[i], 1e-300), 1.0))
        lb = -math.log(min(max(magnitudes[i + 1], 1e-300), 1.0))
        if b > T:
            lb = la + (lb - la) * (T - a) / (b - a)
            b = T
        beta = (lb - la) / (b - a)
        alpha = la - beta * a
        total += (alpha * (math.atan(b) - math.atan(a))
                  + 0.5 * beta * (math.log1p(b * b) - math.log1p(a * a)))
    return 2.0 * total


def transported_density(potential: str, gamma: float, omega0: float, x: float) -> float:
    """|phi(x)|^2 = W'(x) p_C(W(x)) for the potentials the benchmark uses."""
    w, w_prime = INDUCED_MAPS[potential](x)
    delta = w - omega0
    return w_prime * (gamma / (2.0 * math.pi)) / (delta * delta + gamma * gamma / 4.0)


def _sinh_map(x):
    if abs(x) > 700.0:
        return math.copysign(math.inf, x), math.inf
    return 2.0 * math.sinh(x), 2.0 * math.cosh(x)


# W(x) = V(x) - V(-x) and W'(x) in closed form, keyed by the --potential value
INDUCED_MAPS = {
    "exp": _sinh_map,
    "expr:exp(x)": _sinh_map,
    "ramp": lambda x: (x, 1.0),
    "expr:max(x,0)^3+max(x,0)": lambda x: (x ** 3 + x, 3.0 * x * x + 1.0),
}
