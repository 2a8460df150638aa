"""Inputs, operations and output checks of the benchmark workloads.

Inputs are raw integers drawn from the benchmark's own copy of the SplitMix64
recipe in the repository README, so a workload seed fixes every input.  The
library receives only those integers and builds everything else itself.
Every operation reaches the library through module attributes such as
``lib.gon.lattice_width``, so the tracer can wrap them.

Each workload is a ``Workload`` whose ``setup`` returns the per-seed state
(pre-generated inputs and any prebuilt bodies), whose ``op`` is the timed
operation and whose ``check`` tests an operation's output against invariants
and independent oracles written here on plain integers.  ``canonical`` gives
the output's canonical JSON, hashed for the recorded reference digests.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

M64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
RETRY_CAP = 1000



def _mix(z: int) -> int:
    z &= M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


class SplitMix64:
    """The README's SplitMix64 stream, independent of ``latmin.generate``."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & M64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & M64
        return _mix(self.state)

    def int_in(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def substream(seed: int, index: int) -> SplitMix64:
    """Fresh generator seeded with the (index+1)-th output of SplitMix64(seed)."""
    return SplitMix64(_mix((seed + (index + 1) * GOLDEN) & M64))


def stream(seed: int, index: int) -> SplitMix64:
    """The generator of a run's input ``index``.  Input 0 feeds the warm-up op
    of set-up and is the same for every seed, so that set-up time measures
    the program rather than the luck of one draw."""
    return substream(0 if index == 0 else seed, index)


# ---------------------------------------------------------------------------
# integer helpers and oracles


def _dot(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def _det(m) -> int:
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def _rank(rows) -> int:
    """Rank over Q by fraction-free elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                f, g = m[i][col], m[rank][col]
                m[i] = [g * a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def random_points(rng: SplitMix64, n: int, d: int, bound: int) -> list:
    """n points of [-bound, bound]^d, resampled until they span R^d affinely."""
    for _ in range(RETRY_CAP):
        pts = [tuple(rng.int_in(-bound, bound) for _ in range(d)) for _ in range(n)]
        if _rank([_sub(p, pts[0]) for p in pts[1:]]) == d:
            return pts
    raise RuntimeError(f"no full-dimensional point set after {RETRY_CAP} tries")


def extent(c, pts) -> int:
    """Width of the point set in the direction of the functional c."""
    vals = [_dot(c, p) for p in pts]
    return max(vals) - min(vals)


def brute_width(pts) -> int:
    """Lattice width of conv(pts) by scanning every candidate functional.

    A functional c of width at most w is bounded on a simplex S of the
    points: |c.(v_i - v_0)| <= w.  Cramer's rule on S then bounds each |c_j|
    by w * sum_i |minor_ij| / |det S|; the scan covers that box, solving the
    last coordinate's interval exactly from the simplex edges.
    """
    d = len(pts[0])
    best = min(extent(tuple(int(i == j) for i in range(d)), pts) for j in range(d))
    edges = max(([_sub(p, s[0]) for p in s[1:]] for s in combinations(pts, d + 1)),
                key=lambda rows: abs(_det(rows)))
    det = abs(_det(edges))
    bounds = []
    for j in range(d):
        minors = [abs(_det([r[:j] + r[j + 1:] for k, r in enumerate(edges) if k != i]))
                  for i in range(d)]
        bounds.append(best * sum(minors) // det)
    w0 = best
    for head in product(*(range(-b, b + 1) for b in bounds[:-1])):
        lo, hi = -bounds[-1], bounds[-1]
        for e in edges:
            s = _dot(head, e)
            a = e[-1]
            if a == 0:
                if abs(s) > w0:
                    lo, hi = 1, 0
                continue
            # -w0 <= s + a*x <= w0
            l, h = sorted(((-w0 - s) / Fraction(a), (w0 - s) / Fraction(a)))
            lo, hi = max(lo, math.ceil(l)), min(hi, math.floor(h))
        for x in range(lo, hi + 1):
            c = head + (x,)
            if any(c):
                best = min(best, extent(c, pts))
    return best


def facet_planes(pts) -> set:
    """Facet halfspaces (n, b), n.x <= b, of a full-dimensional 3-polytope.

    Three non-collinear input points whose plane leaves every point on one
    side span a facet, and every facet arises this way.
    """
    planes = set()
    for a, b, c in combinations(pts, 3):
        u, v = _sub(b, a), _sub(c, a)
        n = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if not any(n):
            continue
        g = math.gcd(*n)
        n = tuple(x // g for x in n)
        vals = [_dot(n, p) for p in pts]
        if max(vals) == _dot(n, a):
            planes.add((n, max(vals)))
        if min(vals) == _dot(n, a):
            planes.add((tuple(-x for x in n), -min(vals)))
    return planes


def convex_position(pts) -> bool:
    """Whether the distinct points pts, spanning R^3, are all vertices of
    their hull: a vertex lies on three or more facets, a point inside an edge
    on two."""
    planes = facet_planes(pts)
    return (len(set(pts)) == len(pts)
            and all(sum(_dot(n, p) == b for n, b in planes) >= 3 for p in pts))


def oracle_lattice_points(pts) -> tuple[list, list]:
    """All and interior integer points of conv(pts) in dimension 3, sorted."""
    planes = facet_planes(pts)
    ranges = [range(min(p[j] for p in pts), max(p[j] for p in pts) + 1) for j in range(3)]
    every, interior = [], []
    for x in product(*ranges):
        slack = [b - _dot(n, x) for n, b in planes]
        if min(slack) >= 0:
            every.append(x)
            if min(slack) > 0:
                interior.append(x)
    return every, interior


def brute_flag_h0(d: int, p, q: int) -> int:
    """Monomials of degree q in d+1 variables whose last exponents have
    suffix sums alpha_i + ... + alpha_d <= q - p_i."""
    count = 0
    for alpha in product(range(q + 1), repeat=d):
        if sum(alpha) <= q and all(sum(alpha[i:]) <= q - p[i] for i in range(d)):
            count += 1
    return count


def dp_box_count(caps) -> int:
    """Points x of N^d with suffix sums x_i + ... + x_d <= caps[i], counted
    by dynamic programming over the running suffix sum."""
    ways = {0: 1}
    for cap in reversed(caps):
        nxt: dict = {}
        for s, n in ways.items():
            for t in range(s, cap + 1):
                nxt[t] = nxt.get(t, 0) + n
        ways = nxt
    return sum(ways.values())


def digest(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (lib, seed, n) -> state holding the inputs of ops 0..n-1
    op: Callable  # (lib, state, i) -> output
    check: Callable  # (lib, state, i, output) -> bool
    canonical: Callable  # (output) -> JSON-able
    # Ops a run may reach.  Inputs made in set-up are made for all of them, so
    # a run stops early if a faster program exhausts them; the pool is far
    # above what the seed code completes.
    pool: int
    trace_ops: int  # traced runs execute ops 1..trace_ops, so counts repeat
    # op_tail_ms is this percentile.  It is fixed per workload, at the highest
    # percentile with at least ten ops beyond it in a run of the seed code on
    # a slow machine, so that every run reports the same percentile.
    tail_pct: float
    # (state, i) -> None: makes op i's input ahead of the timed op, for
    # inputs made on first use rather than in set-up.
    prepare: Callable | None = None


# verify-d3 ------------------------------------------------------------------


def _verify_d3_input(rng) -> list:
    """7 points of [-4, 4]^3, all vertices of their hull.  Op time grows with
    the vertex count, so a run's share of 5- and 6-vertex hulls would move
    its median op time from seed to seed; 7 vertices is the common case and
    the one with the most hull work."""
    for _ in range(RETRY_CAP):
        pts = random_points(rng, 7, 3, 4)
        if convex_position(pts):
            return pts
    raise RuntimeError(f"no 7 points in convex position after {RETRY_CAP} tries")


def _verify_d3_setup(lib, seed, n):
    return {"points": [_verify_d3_input(stream(seed, i)) for i in range(n)]}


def _verify_d3_op(lib, state, i):
    polytope, gon, toric = lib.polytope, lib.gon, lib.toric
    P = polytope.convex_hull(state["points"][i], 3)
    out = {
        "minkowski": gon.verify_minkowski_second(P),
        "flatness": gon.flatness_report(P),
        "transference": gon.verify_transference(polytope.difference_body(P)),
    }
    mp = toric.MomentPolytope(P)
    out["bracket"] = toric.eps_bracket_general(mp)
    out["m2m"] = toric.verify_m2m(mp, out["bracket"])
    out["width"] = gon.lattice_width(P)
    return out


def _verify_d3_check(lib, state, i, out):
    reports = [out[k] for k in ("minkowski", "flatness", "transference", "m2m")]
    w = out["width"].width
    last = out["bracket"].entries[-1]
    q = {k: out[k].quantities for k in ("minkowski", "flatness", "transference")}
    return (all(r.holds for r in reports)
            and w.denominator == 1 and w >= 1
            and extent(out["width"].witness, state["points"][i]) == w
            and Fraction(w, 3) <= last.lo <= last.hi <= w
            and q["flatness"]["w"] == str(w)
            and q["minkowski"]["vol"] == q["flatness"]["vol"]
            and q["minkowski"]["lambda"] == q["transference"]["lambda"])


def _verify_d3_canonical(out):
    doc = {k: out[k].to_json() for k in out}
    doc["flatness"]["items"] = out["flatness"].items
    return doc


# width-skew -------------------------------------------------------------------

SKEW_K = range(8, 17)
# Upper bounds of the 18 cost strata of width-skew: the 1/18, ..., 17/18
# quantiles, rounded, of enumeration_work(sheared) / k^2 over 36000 draws
# _shear_draw(substream(2**32 + 7, i), i).  That ratio has the same
# distribution for every k and axis; the work takes few values, so the strata
# hold between 4.8% and 6.5% of draws rather than 5.6% each.
SKEW_STRATA = (18, 25, 29, 34, 37, 41, 45, 49, 53, 57, 63, 70, 75, 86, 99, 117, 146)


def _hull2(pts) -> list:
    """Vertices of the convex hull of planar integer points, counterclockwise."""
    pts = sorted(set(pts))
    chain = []
    for seq in (pts, pts[::-1]):
        part = []
        for p in seq:
            while len(part) >= 2 and ((part[-1][0] - part[-2][0]) * (p[1] - part[-2][1])
                                      - (part[-1][1] - part[-2][1]) * (p[0] - part[-2][0])) <= 0:
                part.pop()
            part.append(p)
        chain += part[:-1]
    return chain


def _area(poly) -> Fraction:
    n = len(poly)
    return abs(sum(Fraction(poly[i][0] * poly[(i + 1) % n][1] - poly[(i + 1) % n][0] * poly[i][1])
                   for i in range(n))) / 2


def enumeration_work(pts) -> Fraction:
    """Predicted work of width and minima on the planar polygon conv(pts).

    Both enumerate the lattice points of R*K for a symmetric body K and test
    each against K's facets: K = P - P for the minima, its polar for the
    width, and R the largest gauge of a unit vector in K.  The prediction is
    (facets) * R^2 * area(K), summed over the two bodies; its logarithm
    explains 98% of the variance of the logarithm of op time.
    """
    K = _hull2([(p[0] - q[0], p[1] - q[1]) for p in pts for q in pts])
    facets = []
    for v, w in zip(K, K[1:] + K[:1]):
        a = (w[1] - v[1], v[0] - w[0])
        facets.append((a, a[0] * v[0] + a[1] * v[1]))
    radius = max(Fraction(a[j], b) for a, b in facets for j in range(2))
    polar = [(Fraction(a[0], b), Fraction(a[1], b)) for a, b in facets]
    polar_radius = max(abs(c) for v in K for c in v)
    return len(K) * (radius ** 2 * _area(K) + polar_radius ** 2 * _area(polar))


def _shear_draw(rng, i):
    """P from 4 points of [-2, 2]^2 and the shear x_a += k x_b of op i; k and
    the sheared axis a cycle with the op index."""
    pts = random_points(rng, 4, 2, 2)
    k = SKEW_K[i % len(SKEW_K)]
    a = (i // len(SKEW_K)) % 2
    sheared = []
    for p in pts:
        q = list(p)
        q[a] += k * p[1 - a]
        sheared.append(tuple(q))
    return pts, sheared, k


def _skew_input(rng, i):
    """The first draw of op i whose cost falls in the stratum of op i.

    A few polygons cost ten times the median, so a run's share of them would
    move its mean op time from seed to seed.  Instead each op takes one of 18
    equally likely cost strata (``SKEW_STRATA``), in a fixed sequence that
    meets every stratum once per 18 ops and every (k, axis, stratum) once per
    324, and draws until a polygon lands in it.  The inputs keep the
    distribution of plain draws; only their order is balanced.
    """
    strata = len(SKEW_STRATA) + 1
    want = (i + i // strata) % strata
    for _ in range(RETRY_CAP):
        pts, sheared, k = _shear_draw(rng, i)
        if bisect.bisect_right(SKEW_STRATA, enumeration_work(sheared) / k ** 2) == want:
            return pts, sheared
    raise RuntimeError(f"no polygon in cost stratum {want} after {RETRY_CAP} tries")


class LazyInputs:
    """Inputs 0, 1, ... made on first use by make(i), for workloads whose
    inputs are too slow to make in set-up."""

    def __init__(self, make):
        self.make = make
        self.made: dict = {}

    def __getitem__(self, i):
        if i not in self.made:
            self.made[i] = self.make(i)
        return self.made[i]


def _width_skew_setup(lib, seed, n):
    return {"inputs": LazyInputs(lambda i: _skew_input(stream(seed, i), i))}


def _width_skew_prepare(state, i):
    state["inputs"][i]


def _width_skew_op(lib, state, i):
    polytope, gon = lib.polytope, lib.gon
    Q = polytope.convex_hull(state["inputs"][i][1], 2)
    return gon.lattice_width(Q), gon.successive_minima(polytope.difference_body(Q))


def _width_skew_check(lib, state, i, out):
    """GL_2(Z) invariance against the unsheared P, and P's width by scan."""
    polytope, gon = lib.polytope, lib.gon
    pts, sheared = state["inputs"][i]
    width, minima = out
    P = polytope.convex_hull(pts, 2)
    return (width.width == gon.lattice_width(P).width == brute_width(pts)
            and extent(width.witness, sheared) == width.width
            and minima.lambdas == gon.successive_minima(polytope.difference_body(P)).lambdas)


def _width_skew_canonical(out):
    return {"width": out[0].to_json(), "minima": out[1].to_json()}


# lattice-count ------------------------------------------------------------------

BASE_BODIES = 64
BODY_DRAWS = 16
DILATES = (2, 3, 4)
# Degrees T of the flag ops.  Op time grows about as T^2, so T is not drawn:
# flag op j takes FLAG_Q[37 j mod 51], which meets every T once per 51 flag
# ops in an order that mixes small and large.
FLAG_Q = range(50, 101)
# Upper bounds of the 16 cost strata of the flag multiplicities: the 1/16,
# ..., 15/16 quantiles, to 4 digits, of chain_count(T - p) / T^4 over 48000
# draws of p as in _flag_input, from substream(2**32 + 11, j).
FLAG_STRATA = tuple(Fraction(x) for x in (
    "0.004192", "0.005221", "0.006351", "0.007665", "0.009072", "0.01057", "0.01214",
    "0.01382", "0.01552", "0.01735", "0.01943", "0.02188", "0.02485", "0.02863", "0.03376"))


def _body_work(pts) -> int:
    """Predicted cost of lattice_points on a dilate of conv(pts): facets
    times bounding-box points.  Its logarithm has correlation 0.92 with that
    of the op time."""
    box = math.prod(max(p[j] for p in pts) - min(p[j] for p in pts) + 1 for j in range(3))
    return len(facet_planes(pts)) * box


def chain_count(caps) -> int:
    """dp_box_count(caps) by running sums: the suffix sums form chains
    S_1 >= ... >= S_d >= 0 with S_i <= min(caps[:i+1])."""
    caps = [min(caps[:i + 1]) for i in range(len(caps))]
    ways = [1] * (caps[-1] + 1)
    for cap in reversed(caps[:-1]):
        total, nxt = 0, []
        for s in range(cap + 1):
            total += ways[s] if s < len(ways) else 0
            nxt.append(total)
        ways = nxt
    return sum(ways)


def _flag_input(rng, i):
    """Degree and multiplicities of odd op i.  The multiplicities are drawn
    in [0, T/2]^4 until chain_count(T - p) / T^4, which predicts the op time
    (its logarithm explains 87% of the variance of that of the op time),
    falls in the op's stratum; flag op j takes stratum (j + j // 16) mod 16."""
    j = i // 2
    q = FLAG_Q[(j * 37) % len(FLAG_Q)]
    strata = len(FLAG_STRATA) + 1
    want = (j + j // strata) % strata
    for _ in range(RETRY_CAP):
        p = [rng.int_in(0, q // 2) for _ in range(4)]
        if bisect.bisect_right(FLAG_STRATA, Fraction(chain_count([q - x for x in p]), q ** 4)) == want:
            return q, p
    raise RuntimeError(f"no multiplicities in cost stratum {want} after {RETRY_CAP} tries")


def _lattice_count_setup(lib, seed, n):
    """Dilates k*P of random 3-polytopes (7 points of [-1, 1]^3), built once,
    and the flag inputs, made on first use.

    Body 0, which the warm-up op queries, is the same for every seed.  The
    other 63 are a stratified sample: 16 * 63 candidates are ranked by
    _body_work and one is taken at random from each 16 consecutive ranks, so
    that one seed's bodies cost about what another's do.
    """
    cands = [random_points(stream(seed, c), 7, 3, 1)
             for c in range(BODY_DRAWS * (BASE_BODIES - 1) + 1)]
    ranked = sorted(range(1, len(cands)), key=lambda c: (_body_work(cands[c]), c))
    pick = substream(seed, len(cands))
    chosen = [0] + sorted(ranked[g + pick.int_in(0, BODY_DRAWS - 1)]
                          for g in range(0, len(ranked), BODY_DRAWS))
    bodies = []
    for c in chosen:
        for k in DILATES:
            kpts = [tuple(k * x for x in p) for p in cands[c]]
            bodies.append((kpts, lib.polytope.convex_hull(kpts, 3)))
    flag_streams = len(cands) + 1
    return {"bodies": bodies,
            "flags": LazyInputs(lambda i: _flag_input(substream(seed, flag_streams + i), i))}


def _lattice_count_prepare(state, i):
    if i % 2:
        state["flags"][i]


def _lattice_count_op(lib, state, i):
    """Even ops query a prebuilt body's points, odd ops count flag sections."""
    if i % 2 == 0:
        Q = state["bodies"][(i // 2) % len(state["bodies"])][1]
        return (lib.polytope.lattice_points(Q, "all"),
                lib.polytope.lattice_points(Q, "interior"))
    q, p = state["flags"][i]
    return (lib.postulation.flag_h0(4, p, q),
            lib.postulation.box_volume([q - x for x in p]))


def _lattice_count_check(lib, state, i, out):
    if i % 2 == 0:
        kpts = state["bodies"][(i // 2) % len(state["bodies"])][0]
        return tuple(out) == oracle_lattice_points(kpts)
    q, p = state["flags"][i]
    h0, vol = out
    caps = [q - x for x in p]
    # The box is down-closed in the nonnegative orthant, so the unit cubes at
    # its lattice points cover it: volume <= count.  A small-degree companion
    # with the same multiplicity profile is counted monomial by monomial.
    small_q = 4 + q % 5
    small_p = [x * small_q // q for x in p]
    return (h0 == dp_box_count(caps)
            and 0 < vol <= h0
            and vol <= math.prod(caps)
            and lib.postulation.flag_h0(4, small_p, small_q)
            == brute_flag_h0(4, small_p, small_q))


def _lattice_count_canonical(out):
    if isinstance(out[0], int):
        return {"h0": out[0], "volume": str(out[1])}
    return {"all": [list(x) for x in out[0]], "interior": [list(x) for x in out[1]]}


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-d3", _verify_d3_setup, _verify_d3_op, _verify_d3_check, _verify_d3_canonical,
        pool=512, trace_ops=12, tail_pct=75),
    Workload(
        "width-skew", _width_skew_setup, _width_skew_op, _width_skew_check, _width_skew_canonical,
        pool=1 << 20, trace_ops=60, tail_pct=90, prepare=_width_skew_prepare),
    Workload(
        "lattice-count", _lattice_count_setup, _lattice_count_op, _lattice_count_check,
        _lattice_count_canonical, pool=4096, trace_ops=120, tail_pct=95,
        prepare=_lattice_count_prepare),
)}
