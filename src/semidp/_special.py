"""The three special functions semidp needs, on numpy and ``math`` alone.

They follow ``scipy.special`` at +-inf, nan, 0, 1 and outside the domain,
and keep ``scipy.special`` off the import path: it costs more start-up time
and memory than the rest of ``import semidp.cli`` together. ``ndtri`` is
Moshier's Cephes algorithm (Cephes Math Library, 1989) with scipy's
coefficients, Horner order and libm ``log``, so Gaussian draws keep their
bytes. ``ndtr`` and ``log_ndtr`` rest on libm through ``math``.

Callers make many small calls, so a 0-d input takes a scalar ``math`` path,
and an array evaluates each branch on that branch's elements only.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189  # e^-2: ndtri's central piece covers e^-2 < y <= 1 - e^-2
_UPPER = 1.0 - _EXPM2
_NEAR_TAIL = 1e-13  # above e^-32 = 1.3e-14, where ndtri's tail leaves P1/Q1 for P2/Q2
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = float(np.finfo(float).eps)

#: Below this many elements (or tail elements) ndtri goes element by
#: element: numpy's cost per call outweighs the work on so few elements.
_NDTRI_ELEMENTWISE = 40


# Cephes's rational approximations for ndtri, written out by Horner's rule
# so that one expression serves floats and arrays alike. Central piece:
# x = y + y w P0(w) / Q0(w), w = y^2, y shifted by -1/2. Tails, in
# w = 1/x with x = sqrt(-2 log y): P1/Q1 for 2 <= x < 8, P2/Q2 for x >= 8.
def _p0(w):
    return ((((-5.99633501014107895267e1 * w + 9.80010754185999661536e1) * w
              - 5.66762857469070293439e1) * w + 1.39312609387279679503e1) * w
            - 1.23916583867381258016e0)


def _q0(w):
    return (((((((w + 1.95448858338141759834e0) * w + 4.67627912898881538453e0) * w
                + 8.63602421390890590575e1) * w - 2.25462687854119370527e2) * w
              + 2.00260212380060660359e2) * w - 8.20372256168333339912e1) * w
            + 1.59056225126211695515e1) * w - 1.18331621121330003142e0


def _p1(w):
    return ((((((((4.05544892305962419923e0 * w + 3.15251094599893866154e1) * w
                  + 5.71628192246421288162e1) * w + 4.40805073893200834700e1) * w
                + 1.46849561928858024014e1) * w + 2.18663306850790267539e0) * w
              - 1.40256079171354495875e-1) * w - 3.50424626827848203418e-2) * w
            - 8.57456785154685413611e-4)


def _q1(w):
    return (((((((w + 1.57799883256466749731e1) * w + 4.53907635128879210584e1) * w
                + 4.13172038254672030440e1) * w + 1.50425385692907503408e1) * w
              + 2.50464946208309415979e0) * w - 1.42182922854787788574e-1) * w
            - 3.80806407691578277194e-2) * w - 9.33259480895457427372e-4


def _p2(w):
    return ((((((((3.23774891776946035970e0 * w + 6.91522889068984211695e0) * w
                  + 3.93881025292474443415e0) * w + 1.33303460815807542389e0) * w
                + 2.01485389549179081538e-1) * w + 1.23716634817820021358e-2) * w
              + 3.01581553508235416007e-4) * w + 2.65806974686737550832e-6) * w
            + 6.23974539184983293730e-9)


def _q2(w):
    return (((((((w + 6.02427039364742014255e0) * w + 3.67983563856160859403e0) * w
                + 1.37702099489081330271e0) * w + 2.16236993594496635890e-1) * w
              + 1.34204006088543189037e-2) * w + 3.28014464682127739104e-4) * w
            + 2.89247864745380683936e-6) * w + 6.79019408009981274425e-9


def _map(fn, arr: np.ndarray) -> np.ndarray:
    """fn of each element of a float array, through Python floats."""
    return np.array(list(map(fn, arr.ravel().tolist())), dtype=float).reshape(arr.shape)


def _apply(scalar, x, array=None):
    """scalar(x) as numpy's float64 for a 0-d x, like a ufunc; otherwise
    array(x), or scalar on each element when no array version is given."""
    if isinstance(x, float):  # Python floats and numpy float64 scalars: the common call
        return np.float64(scalar(float(x)))
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        return np.float64(scalar(float(arr)))
    return _map(scalar, arr) if array is None else array(arr)


def _clog(arr: np.ndarray) -> np.ndarray:
    """libm's log of positive floats. numpy's float log is its own SIMD code
    and rounds differently from libm on about 0.06% of inputs; its complex
    log goes through libm's clog, whose real part on x < 1/2 or x >= 2 is
    libm's log(x), but for an ulp on subnormal x."""
    return np.log(arr.astype(complex)).real


def _ndtri(y: float) -> float:
    if not 0.0 < y < 1.0:
        return -math.inf if y == 0.0 else math.inf if y == 1.0 else math.nan
    upper = y > _UPPER
    if upper:
        y = 1.0 - y
    if y > _EXPM2:  # as in Cephes, this test follows the reflection
        y -= 0.5
        w = y * y
        return (y + y * (w * _p0(w) / _q0(w))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    w = 1.0 / x
    xpq = w * _p1(w) / _q1(w) if x < 8.0 else w * _p2(w) / _q2(w)
    x = (x - math.log(x) / x) - xpq
    return x if upper else -x


def ndtri(y):
    """Inverse of the standard normal CDF: -inf at 0, inf at 1, nan off [0, 1]."""
    return _apply(_ndtri, y, _ndtri_array)


def _ndtri_array(arr: np.ndarray) -> np.ndarray:
    if arr.size < _NDTRI_ELEMENTWISE:
        return _map(_ndtri, arr)
    # Cephes reflects y > 1 - e^-2 to 1 - y < e^-2, which is a tail, so the
    # central piece takes e^-2 < y <= 1 - e^-2 as it stands
    subset = arr > _EXPM2
    subset &= arr <= _UPPER
    out = np.empty_like(arr)
    y = arr[subset]
    y -= 0.5
    w = y * y
    x = _p0(w)
    x *= w
    x /= _q0(w)
    x *= y
    x += y
    x *= _S2PI
    out[subset] = x
    if y.size == arr.size:
        return out
    np.logical_not(subset, out=subset)  # the tails; also 0, 1, nan and y off [0, 1]
    t = arr[subset]
    if t.size < _NDTRI_ELEMENTWISE:
        out[subset] = _map(_ndtri, t)
        return out
    upper = t > _UPPER
    t = np.where(upper, 1.0 - t, t)
    if not (t > _NEAR_TAIL).all():
        out[subset] = _map(_ndtri, arr[subset])
        return out
    x = np.sqrt(-2.0 * _clog(t))
    w = 1.0 / x
    x = (x - _clog(x) / x) - w * _p1(w) / _q1(w)
    out[subset] = np.where(upper, x, -x)
    return out


def ndtr(x):
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2), accurate in both tails."""
    return _apply(_ndtr, x, lambda arr: 0.5 * _map(math.erfc, arr * -_SQRT1_2))


def _ndtr(x: float) -> float:
    return 0.5 * math.erfc(x * -_SQRT1_2)


def _log_ndtr(x: float) -> float:
    if x > 0.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    # Phi(x) = phi(x) / -x * (1 - 1/x^2 + 3/x^4 - 15/x^6 + ...), summed to
    # convergence (Cephes); erfc underflows below x = -38.5
    inv_x2 = 1.0 / (x * x)
    total, term, last, i = 1.0, 1.0, 0.0, 0
    while abs(last - total) > _EPS:
        i += 1
        last = total
        term *= -(2 * i - 1) * inv_x2
        total += term
    return -0.5 * x * x - math.log(-x) - _HALF_LOG_2PI + math.log(total)


def log_ndtr(x):
    """log of the standard normal CDF, without underflow in the left tail."""
    return _apply(_log_ndtr, x)
