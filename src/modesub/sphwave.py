"""Analytical eigenvalue traces of vector spherical waves on a spherical shell.

The eigenvalue of the (t, s) wave at kR = x is -num/den, a ratio of
Riccati-Bessel terms built from scipy.special.spherical_jn/yn.  Its poles are
the zeros of den: sign changes on a uniform scan, refined by brentq.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn, spherical_yn

from .pointgroup import O3IrrepId, TE, TM

#: denominator magnitude below which an eigenvalue is reported as infinite
POLE_DENOMINATOR_TOL = 1e-13

#: pole scan density: points per unit of kR/pi
POLE_SCAN_DENSITY = 4096

#: pole refinement tolerance (absolute, in kR)
POLE_BISECTION_TOL = 1e-10


def spherical_bessel(kind: str, t: int, x: float) -> float:
    """Spherical Bessel function of the first ("j") or second ("y") kind."""
    if x <= 0:
        raise ValueError("argument must be positive")
    if t < 0 or t > 30:
        raise ValueError("order must be in 0..30")
    if kind == "j":
        return float(spherical_jn(t, x))
    if kind == "y":
        return float(spherical_yn(t, x))
    raise ValueError("kind must be 'j' or 'y'")


def _riccati_pair(wave: O3IrrepId, x):
    """Numerator and denominator of the eigenvalue at kR = x (scalar or array).

    TE uses (y_t, j_t); TM uses the derivative d/dx [x f_t(x)], expanded as
    x f_{t-1}(x) - t f_t(x).
    """
    t = wave.t
    if wave.s == TE:
        return spherical_yn(t, x), spherical_jn(t, x)
    return (x * spherical_yn(t - 1, x) - t * spherical_yn(t, x),
            x * spherical_jn(t - 1, x) - t * spherical_jn(t, x))


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
    if kR <= 0:
        raise ValueError("kR must be positive")
    return float(_ratio(*_riccati_pair(wave, kR)))


@dataclass(frozen=True)
class ModeIndex:
    """Global index of one vector spherical wave: n enumerates (t, m, s)."""

    t: int
    m: int
    s: int
    n: int


def mode_index(t: int, m: int, s: int) -> ModeIndex:
    """Compact global index n = 2(t(t+1) + m - 1) + s."""
    if t < 1:
        raise ValueError("t must be >= 1")
    if abs(m) > t:
        raise ValueError("m must satisfy -t <= m <= t")
    if s not in (TE, TM):
        raise ValueError("s must be 1 (TE) or 2 (TM)")
    n = 2 * (t * (t + 1) + m - 1) + s
    return ModeIndex(t, m, s, n)


def index_to_mode(n: int) -> ModeIndex:
    """Invert the global index: recover (t, m, s) from n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    s = TM if n % 2 == 0 else TE
    k = (n - s) // 2 + 1          # k = t(t+1) + m, with t^2 <= k <= t^2 + 2t
    t = int(math.isqrt(k))
    m = k - t * (t + 1)
    return ModeIndex(t, m, s, n)


def poles(wave: O3IrrepId, lo: float, hi: float) -> list[float]:
    """Eigenvalue poles (denominator zeros) inside [lo, hi], in kR units.

    The interval is scanned at POLE_SCAN_DENSITY points per unit of kR/pi.
    Exact zeros on the scan are kept as they are; each sign change between
    neighbours is refined by brentq to POLE_BISECTION_TOL.
    """
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    step = math.pi / POLE_SCAN_DENSITY
    count = max(2, int(math.ceil((hi - lo) / step)) + 1)
    xs = np.linspace(lo, hi, count)
    den = _riccati_pair(wave, xs)[1]
    found = []
    for i in np.flatnonzero((den[:-1] == 0.0) | (den[:-1] * den[1:] < 0.0)):
        a = float(xs[i])
        if den[i] == 0.0:
            found.append(a)
        else:
            found.append(brentq(lambda x: _riccati_pair(wave, x)[1], a,
                                float(xs[i + 1]), xtol=POLE_BISECTION_TOL))
    if den[-1] == 0.0:
        found.append(float(xs[-1]))
    return found


def _sample_with_poles(wave: O3IrrepId, kr: np.ndarray):
    """sample_trace's (lam, pole_adjacent) plus the poles behind the mask.

    The poles come from a scan of the grid padded by one cell on each side,
    so they may lie just outside [kr[0], kr[-1]].
    """
    kr = np.asarray(kr, dtype=float)
    if kr.ndim != 1 or len(kr) < 2 or np.any(np.diff(kr) <= 0):
        raise ValueError("kr must be a strictly increasing 1-d grid")
    if kr[0] <= 0:
        raise ValueError("kR must be positive")
    lam = _ratio(*_riccati_pair(wave, kr))
    pad = float(kr[1] - kr[0])
    found = poles(wave, max(float(kr[0]) - pad, 1e-12), float(kr[-1]) + pad)
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
