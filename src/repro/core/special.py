"""log Gamma(x) for the Poisson weight update, without scipy.

The weight update (Eq. 4 under a Poisson pmf) needs one special-function
value per reading: log Gamma(count + 1).  :func:`log_gamma` is a
line-for-line port of the cephes ``lgam`` routine that
``scipy.special.gammaln`` evaluates for real arguments: the same
coefficient tables, the same Horner order in ``polevl``/``p1evl`` and the
same branches, so on IEEE-754 doubles it returns the same bits as
``gammaln`` (tested in ``tests/test_core_special.py``).  ``math.lgamma``
is not a substitute: it rounds differently on about half of all integer
arguments, which would move every seeded result.

Only ``x > 0`` is supported (the argument is a count plus one, and
callers reject negative counts first); ``inf`` and ``nan`` pass through
unchanged, as in cephes.
"""

from __future__ import annotations

import math

#: Stirling's formula expansion of log Gamma(x) for 13 <= x < 1000.
A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)

#: Numerator and (monic) denominator of the rational approximation of
#: log Gamma(x) on [2, 3].
B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
C = (
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)

#: log(sqrt(2 pi)).
LS2PI = 0.91893853320467274178

#: Largest x whose log Gamma is finite in double precision.
MAXLGM = 2.556348e305


def polevl(x: float, coef: tuple) -> float:
    """``coef[0] * x**N + ... + coef[N]`` by Horner's rule."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def p1evl(x: float, coef: tuple) -> float:
    """:func:`polevl` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def log_gamma(x: float) -> float:
    """log Gamma(x) for ``x > 0``, bitwise equal to ``scipy.special.gammaln``.

    Raises ``ValueError`` for ``x <= 0``; ``inf`` and ``nan`` are returned
    as given.
    """
    if x <= 0.0:
        raise ValueError(f"log_gamma needs x > 0, got {x}")
    x = float(x)
    if not math.isfinite(x):
        return x

    if x < 13.0:
        # Shift the argument into [2, 3) by the recurrence
        # Gamma(x + 1) = x Gamma(x), accumulating the product in z.
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * polevl(x, B) / p1evl(x, C)
        return math.log(z) + p

    if x > MAXLGM:
        return math.inf

    q = (x - 0.5) * math.log(x) - x + LS2PI
    if x > 1.0e8:
        return q

    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += (
            (7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
            + 0.0833333333333333333333
        ) / x
    else:
        q += polevl(p, A) / x
    return q
