"""Brent's bracketing root finder for the STSCL design equations.

:func:`brentq` is a line-for-line port of ``brentq.c`` from SciPy's
``scipy/optimize/Zeros`` (written by Charles Harris; SciPy is
distributed under the BSD 3-Clause licence, Copyright (c) 2001-2002
Enthought, Inc. and 2003 onwards SciPy Developers).  It takes the same
steps in the same floating-point order, with SciPy's default relative
tolerance and iteration cap, so every root equals
``scipy.optimize.brentq(f, a, b, xtol=xtol)`` bit for bit -- without
importing scipy.optimize, which takes a fresh process about 0.35 s
(it loads scipy.linalg and scipy.sparse too), longer than a whole
gate characterization.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from ..errors import ConvergenceError, DesignError, ModelError

#: SciPy's default relative tolerance: four machine epsilons.
RTOL = 4.0 * sys.float_info.epsilon
#: SciPy's default iteration cap.
MAXITER = 100


def brentq(f: Callable[[float], float], a: float, b: float,
           xtol: float) -> float:
    """A root of ``f`` in the bracket ``[a, b]``, to within ``xtol +
    RTOL * |root|``.

    ``f(a)`` and ``f(b)`` must differ in sign.  Raises
    :class:`~repro.errors.DesignError` when they do not,
    :class:`~repro.errors.ModelError` when ``f`` returns NaN, and
    :class:`~repro.errors.ConvergenceError` after :data:`MAXITER`
    iterations.

    The loop keeps three points: ``xcur``, the best estimate; ``xpre``,
    the previous one; and ``xblk``, the contrapoint, so that the root
    stays bracketed between ``xcur`` and ``xblk`` and ``|f(xcur)| <=
    |f(xblk)|``.  Each step tries inverse interpolation (linear when
    ``xpre`` is the contrapoint, quadratic otherwise) and bisects
    when the interpolated step is not short enough.
    """
    def call(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ModelError(f"the function value at x={x:.6g} is NaN; "
                             "the root finder cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DesignError("f(a) and f(b) must have different signs")
    for _ in range(MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre

            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to an infinity or a NaN, and either fails
                # the short-step test below: bisect.
                stry = math.inf
            # C's MIN(a, b): a when a < b, else b.
            a_lim, b_lim = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (a_lim if a_lim < b_lim else b_lim):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta

        fcur = call(xcur)
    raise ConvergenceError(
        f"root finder failed to converge after {MAXITER} iterations, "
        f"value is {xcur:f}", iterations=MAXITER)
