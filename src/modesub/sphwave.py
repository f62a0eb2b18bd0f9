"""Analytical eigenvalue traces of vector spherical waves on a spherical shell.

The eigenvalue of the (t, s) wave at kR = x is -num/den, a ratio of
Riccati-Bessel terms built from scipy.special.spherical_jn/yn.  Its poles are
the zeros of den: sign changes on a uniform scan, bisected all at once.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import spherical_jn, spherical_yn

from .pointgroup import O3IrrepId, TE

#: denominator magnitude below which an eigenvalue is reported as infinite
POLE_DENOMINATOR_TOL = 1e-13

#: pole scan density: points per unit of kR/pi
POLE_SCAN_DENSITY = 4096

#: pole refinement tolerance (absolute, in kR)
POLE_BISECTION_TOL = 1e-10

#: smallest kR evaluated: spherical_jn(t >= 1, x) is NaN at subnormal x
KR_MIN = float(np.finfo(float).tiny)


def check_kr(kr) -> None:
    """ValueError unless every kR is finite and at least KR_MIN (not NaN)."""
    if not np.all((kr >= KR_MIN) & np.isfinite(kr)):
        raise ValueError(f"kR must be positive and normal: finite and at "
                         f"least {KR_MIN!r}")


def _riccati(wave: O3IrrepId, x, f):
    """Eigenvalue numerator (f = spherical_yn) or denominator (spherical_jn).

    At kR = x (scalar or array), TE uses f_t; TM uses the derivative
    d/dx [x f_t(x)], expanded as x f_{t-1}(x) - t f_t(x).  Where y_t overflows
    (tiny x) the TM numerator takes its limit -t y_t = +inf, which dominates
    x y_{t-1}, instead of inf - inf.
    """
    t = wave.t
    ft = f(t, x)
    if wave.s == TE:
        return ft
    with np.errstate(invalid="ignore"):
        return np.where(np.isinf(ft), -t * ft, x * f(t - 1, x) - t * ft)


def _ratio(num, den) -> np.ndarray:
    """-num/den, or a signed infinity where |den| < POLE_DENOMINATOR_TOL.

    The infinity is +inf where -num/den would be positive and -inf otherwise;
    an exact zero den gives the sign opposite to num's.  The pole branch
    never divides, so it raises no floating-point warning.
    """
    pole = np.abs(den) < POLE_DENOMINATOR_TOL
    rising = np.where(den == 0.0, np.signbit(num),
                      np.sign(num) * np.sign(den) < 0)
    lam = -num / np.where(pole, 1.0, den)
    return np.where(pole, np.where(rising, np.inf, -np.inf), lam)


def eigenvalue(wave: O3IrrepId, kR: float) -> float:
    """Characteristic eigenvalue of the (t, s) wave on a shell of size kR.

    Returns a signed infinity when the denominator magnitude drops below
    POLE_DENOMINATOR_TOL; the sign continues the approach from below
    (-inf) or above (+inf) of the pole.
    """
    check_kr(kR)
    return float(_ratio(_riccati(wave, kR, spherical_yn),
                        _riccati(wave, kR, spherical_jn)))


def poles(wave: O3IrrepId, lo: float, hi: float) -> list[float]:
    """Eigenvalue poles (denominator zeros) inside [lo, hi], in kR units.

    The interval is scanned at POLE_SCAN_DENSITY points per unit of kR/pi.
    Exact zeros on the scan are kept as they are, except where the numerator
    is infinite: near kR = 0, j_t underflows to 0 as y_t overflows, and the
    eigenvalue there is finite.  All sign changes between neighbours are
    bisected together, by a halving count fixed from the scan step: above
    kR ~ 1e6 no bracket narrows to POLE_BISECTION_TOL.
    """
    check_kr(np.array([lo, hi]))
    if not lo < hi:
        raise ValueError("need 0 < lo < hi")
    step = math.pi / POLE_SCAN_DENSITY
    count = max(2, int(math.ceil((hi - lo) / step)) + 1)
    xs = np.linspace(lo, hi, count)
    den = _riccati(wave, xs, spherical_jn)
    zero = den == 0.0
    if zero.any():
        zero[zero] = np.isfinite(_riccati(wave, xs[zero], spherical_yn))
    i = np.flatnonzero(zero[:-1] | (den[:-1] * den[1:] < 0.0))
    a, fa = xs[i], den[i]
    b = np.where(fa == 0.0, a, xs[i + 1])      # an exact zero stays put
    for _ in range(i.size and math.ceil(math.log2(step / POLE_BISECTION_TOL))):
        mid = 0.5 * (a + b)
        up = np.sign(_riccati(wave, mid, spherical_jn)) == np.sign(fa)
        a, b = np.where(up, mid, a), np.where(up, b, mid)
    found = (0.5 * (a + b)).tolist()
    if zero[-1]:
        found.append(float(xs[-1]))
    return found


def _sample_with_poles(wave: O3IrrepId, kr: np.ndarray):
    """sample_trace's (lam, pole_adjacent) plus the poles behind the mask.

    The poles come from a scan of the grid padded by one cell on each side,
    so they may lie just outside [kr[0], kr[-1]].
    """
    kr = np.asarray(kr, dtype=float)
    check_kr(kr)
    if kr.ndim != 1 or len(kr) < 2 or np.any(np.diff(kr) <= 0):
        raise ValueError("kr must be a strictly increasing 1-d grid")
    lam = _ratio(_riccati(wave, kr, spherical_yn),
                 _riccati(wave, kr, spherical_jn))
    # j_t underflows to exact zeros below 1e-12; no pole lies below kR ~ 2.74
    pad = float(kr[1] - kr[0])
    lo, hi = max(float(kr[0]) - pad, 1e-12), float(kr[-1]) + pad
    found = poles(wave, lo, hi) if lo < hi else []
    adjacent = ~np.isfinite(lam)
    i = np.searchsorted(kr, found)
    for k in (i - 1, i):
        adjacent[k[(k >= 0) & (k < len(kr))]] = True
    return lam, adjacent, found


def sample_trace(wave: O3IrrepId, kr: np.ndarray):
    """Sample a trace on a strictly increasing kR grid.

    Returns (lam, pole_adjacent): eigenvalues (signed infinities possible at
    exact poles) and a bool mask flagging the two samples bracketing each
    pole, i.e. samples within one grid cell of it.
    """
    lam, adjacent, _ = _sample_with_poles(wave, kr)
    return lam, adjacent
