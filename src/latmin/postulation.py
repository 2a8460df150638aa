"""Suffix-sum box combinatorics and the linear-flag section count.

The box with parameters (t_1, ..., t_d) is the set of nonnegative vectors
whose suffix sums x_i + ... + x_d stay below t_i.  Its lattice point count
equals the dimension of the space of degree-q forms with prescribed
vanishing along a full flag of linear subspaces, which is what flag_h0
computes, and its volume is the integral counterpart of that count.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate

from .core import as_ratvec, rat_str, strict_int
from .errors import InternalError, InvalidInput, NegativeParameter
from .report import TheoremReport, verdict


def _as_params(t) -> tuple:
    """The parameters: a list or tuple of ints (no bool) as it is, with no
    Fraction made, anything else read by as_ratvec."""
    if isinstance(t, (list, tuple)) and all(type(x) is int for x in t):
        params = tuple(t)
    else:
        params = as_ratvec(t)
    if not params:
        raise InvalidInput("need at least one parameter")
    if any(x < 0 for x in params):
        raise NegativeParameter(f"negative box parameter in ({', '.join(map(rat_str, params))})")
    return params


def box_count(t) -> int:
    """Number of lattice points of the suffix-sum box, in O(d^2) integer
    operations whatever the size of the parameters.

    A point is the chain of its suffix sums S_1 >= ... >= S_d >= 0, and since
    S_i <= S_j for j < i the constraints read S_i <= c_i = floor(min(t_1..t_i)),
    so c_1 >= ... >= c_d.  The number g_i(y) of chains S_1..S_i with S_i >= y,
    for 0 <= y <= c_i, is T_i minus the sum of g_{i-1}(s) over s < y, with T_i
    = g_i(0) the count of chains of length i.  The sum of C(s, k) over s < m
    is C(m, k + 1), so in the binomial basis g_i(y) = sum_k (-1)^k T_{i-k}
    C(y, k), and T_0 = 1, T_i = sum_{k<i} (-1)^k C(c_i + 1, k + 1) T_{i-1-k}.
    The count is T_d.
    """
    caps = [math.floor(m) for m in accumulate(_as_params(t), min)]
    T = [1]
    for i, c in enumerate(caps):
        T.append(sum([(-1) ** k * math.comb(c + 1, k + 1) * T[i - k] for k in range(i + 1)]))
    return T[-1]


def box_volume(t) -> Fraction:
    """Exact volume of the suffix-sum box, the integral twin of box_count.

    The map from x to its suffix sums is unimodular, so the volume is that of
    the chains S_1 >= ... >= S_d >= 0 with S_i <= c_i = min(t_1..t_i).  The
    volume h_i(y) of the chains S_1..S_i with S_i >= y is V_i minus the
    integral of h_{i-1} over [0, y], with V_i = h_i(0), so in the basis
    y^k / k! it is h_i(y) = sum_k (-1)^k V_{i-k} y^k / k!.  With the c_i
    scaled to ints C_i = L c_i by the lcm L of their denominators, U_i =
    i! L^i V_i obeys U_0 = 1, U_i = sum_{j=1..i} (-1)^(j-1) C(i, j) C_i^j
    U_{i-j}, all on ints, and the volume is U_d / (d! L^d): O(d^2) integer
    operations and one Fraction.

    For d <= 3 the closed form is evaluated as well, at the nonincreasing
    prefix minima c, whose box is the box of t, and must agree.
    """
    caps = list(accumulate(_as_params(t), min))
    L = math.lcm(*[c.denominator for c in caps])
    U = [1]
    for i, c in enumerate(caps, 1):
        C = c.numerator * (L // c.denominator)
        U.append(sum([(-1) ** (j - 1) * math.comb(i, j) * C ** j * U[i - j]
                      for j in range(1, i + 1)]))
    vol = Fraction(U[-1], math.factorial(len(caps)) * L ** len(caps))
    if len(caps) <= 3:
        closed = box_volume_closed_form(caps)
        if closed != vol:
            raise InternalError(f"closed form {closed} != chain integral {vol}")
    return vol


def box_volume_closed_form(t) -> Fraction:
    """Closed-form volume for sorted parameters, d <= 3, as a Fraction."""
    params = _as_params(t)
    if any(a < b for a, b in zip(params, params[1:])):
        raise InvalidInput("closed form requires nonincreasing parameters")
    if len(params) == 1:
        return Fraction(params[0])
    if len(params) == 2:
        t1, t2 = params
        return Fraction(2 * t1 * t2 - t2 ** 2, 2)
    if len(params) == 3:
        t1, t2, t3 = params
        return Fraction(6 * t1 * t2 * t3 - 3 * t3 ** 2 * t1 - 3 * t3 * t2 ** 2 + t3 ** 3, 6)
    raise InvalidInput("closed form only available for d <= 3")


def check_vol_bound(t) -> TheoremReport:
    """Check vol(box) <= prod(t_i) exactly."""
    params = _as_params(t)
    vol = box_volume(params)
    bound = math.prod(params)
    ok = vol <= bound
    return TheoremReport(
        theorem="box_volume_bound",
        quantities={"vol": rat_str(vol), "bound": rat_str(bound)},
        verdict=verdict(ok),
        witnesses={},
    )


def flag_h0(d: int, p, q: int) -> int:
    """Sections of degree q on projective d-space vanishing to order p_i
    along the i-th member of a full linear flag.

    Counts exponent vectors alpha in N^{d+1} of total degree q with suffix
    sums alpha_i + ... + alpha_d <= q - p_i; zero as soon as some q - p_i is
    negative.  ``d``, ``q`` and every multiplicity must be ints and ``p`` a
    list or tuple: anything else, a bool included, and d < 1 or other than d
    multiplicities raise InvalidInput, and a negative q or multiplicity
    NegativeParameter.
    """
    d, q = strict_int(d, "d"), strict_int(q, "q")
    if not isinstance(p, (list, tuple)):
        raise InvalidInput(f"multiplicities must be a list, not {type(p).__name__}")
    p = tuple(strict_int(x, "multiplicity") for x in p)
    if d < 1 or len(p) != d:
        raise InvalidInput(f"need d >= 1 and d multiplicities, got d = {d} and {len(p)}")
    if q < 0 or any(x < 0 for x in p):
        raise NegativeParameter("q and the multiplicities must be nonnegative")
    caps = [q - pi for pi in p]
    if any(c < 0 for c in caps):
        return 0
    return box_count(caps)
