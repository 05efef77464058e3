"""Standard normal CDF and quantile, ported from Cephes.

Scalar pure-Python ports of ``ndtr.c`` and ``ndtri.c`` from S. L. Moshier,
*Methods and Programs for Mathematical Functions* (1989), the code behind
``scipy.special.ndtr`` and ``scipy.special.ndtri``. Each branch, coefficient
and operation order follows the C source, and ``math.exp``, ``math.log`` and
``math.sqrt`` call the same libm, so the results equal scipy's bit for bit
(tests/test_inference.py checks this on dense grids over every branch edge).
Keeping scipy out of the CLI's import saves about half of its cold start.
"""

from __future__ import annotations

import math

MAXLOG = 7.09782712893383996843e2  # log(2**1024)
SQRTH = 7.07106781186547524401e-1  # 1/sqrt(2)
S2PI = 2.50662827463100050242e0  # sqrt(2*pi)
EXP_M2 = 0.13533528323661269189  # exp(-2)

# ndtr.c. A table that p1evl evaluates starts with its implicit leading 1.0.
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)

# ndtri.c: the central range, then the tails for x < 8 and x >= 8.
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: float, coef: tuple) -> float:
    """Cephes polevl: ((c0*x + c1)*x + c2)... in the C operation order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x: float) -> float:
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        return -_erf(-x)
    if abs(x) > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _horner(z, _T) / _horner(z, _U)


def _erfc(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -MAXLOG:
        z = math.exp(z)
        if x < 8.0:
            y = (z * _horner(x, _P)) / _horner(x, _Q)
        else:
            y = (z * _horner(x, _R)) / _horner(x, _S)
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0


def ndtr(a: float) -> float:
    """Standard normal CDF, equal to ``scipy.special.ndtr`` bit for bit."""
    if math.isnan(a):
        return math.nan
    x = a * SQRTH
    z = abs(x)
    if z < SQRTH:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def ndtri(y0: float) -> float:
    """Standard normal quantile, equal to ``scipy.special.ndtri`` bit for bit.

    0 and 1 give -inf and inf; a value outside [0, 1] gives NaN.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if y0 < 0.0 or y0 > 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - EXP_M2:
        y = 1.0 - y
        negate = False
    if y > EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _horner(y2, _P0) / _horner(y2, _Q0))
        return x * S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:  # y > exp(-32) = 1.2664165549e-14
        x1 = z * _horner(z, _P1) / _horner(z, _Q1)
    else:
        x1 = z * _horner(z, _P2) / _horner(z, _Q2)
    x = x0 - x1
    return -x if negate else x
