"""Toric layer: Seshadri-type successive minima of a moment polytope.

At a smooth torus-fixed point the minima are exact face maxima in the vertex
cone's coordinates; for the two homogeneous families (projective space and a
product of projective lines) closed forms are available; at a very general
point only rigorous rational brackets are produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iproduct

from .core import (
    as_intvec,
    cofactor_normal,
    determinant,
    parse_rat,
    primitive,
    rat_str,
    strict_int,
    vdot,
)
from .errors import (
    DimensionMismatch,
    InternalError,
    InvalidInput,
    InvalidWeights,
    MixedProfile,
    NotAmplePolytope,
    NotAVertex,
    SingularVertex,
)
from .polytope import Polytope, convex_hull, difference_body, volume
from .gon import WidthResult, dual_minima, successive_minima
from .report import TheoremReport, verdict


class MomentPolytope(Polytope):
    """A full-dimensional lattice polytope (all vertices integral).

    It is the polytope P it is built from, checked by ``_take_over`` and for
    lattice vertices on its integer vertices (L, xs), each x a multiple of
    L, and equals and hashes as P; a P - P, width or volume already kept on
    P is not built again, and no Fraction vertex is made.
    """

    __slots__ = ()

    def __init__(self, polytope: Polytope):
        self._take_over(polytope, "moment polytopes")
        L, xs = self.integer_vertices
        for x in xs:
            if any(c % L for c in x):
                raise InvalidInput(f"vertex ({', '.join(rat_str(Fraction(c, L)) for c in x)}) "
                                   "is not a lattice point")

    @classmethod
    def from_points(cls, points, d: int) -> "MomentPolytope":
        return cls(convex_hull(points, d))

    @property
    def vertices_int(self) -> tuple:
        L, xs = self.integer_vertices
        return tuple(tuple(c // L for c in x) for x in xs)


def _moment_dim(MP) -> int:
    """The dimension of a MomentPolytope; anything else is refused with InvalidInput."""
    if not isinstance(MP, MomentPolytope):
        raise InvalidInput(f"needs a MomentPolytope, not a {type(MP).__name__}")
    return MP.ambient_dim


def _profile_dim(MP, eps) -> int:
    """The dimension of MP, the length of eps: an EpsProfile, all exact or all brackets."""
    d = _moment_dim(MP)
    if not isinstance(eps, EpsProfile):
        raise InvalidInput(f"eps must be an EpsProfile, not a {type(eps).__name__}")
    if len(eps.entries) != d:
        raise DimensionMismatch(f"profile of length {len(eps.entries)} in dimension {d}")
    if not (eps.all_exact or eps.all_bracket):
        raise MixedProfile("profile mixes exact values and brackets")
    return d


@dataclass(frozen=True)
class VertexCone:
    """A vertex with the primitive directions of the polytope edges at it."""

    vertex: tuple
    edge_generators: tuple
    smooth: bool


@dataclass(frozen=True)
class EpsExact:
    """An exact minimum, a positive rational read by ``parse_rat``; a value
    <= 0 or one that is no exact rational (a float, None) raises
    InvalidInput."""

    value: Fraction
    provenance: str  # "invariant_point" | "family_formula"

    def __post_init__(self):
        value = parse_rat(self.value)
        if value <= 0:
            raise InvalidInput(f"exact minimum {rat_str(value)} is not positive")
        object.__setattr__(self, "value", value)

    def to_json(self) -> dict:
        return {"exact": rat_str(self.value), "provenance": self.provenance}


@dataclass(frozen=True)
class EpsBracket:
    """A rigorous bracket lo <= eps <= hi, both ends read by ``parse_rat``;
    an end that is no exact rational, a lo < 0 or a lo > hi raises
    InvalidInput."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        lo, hi = parse_rat(self.lo), parse_rat(self.hi)
        if not 0 <= lo <= hi:
            raise InvalidInput(f"bracket [{rat_str(lo)}, {rat_str(hi)}] needs 0 <= lo <= hi")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def to_json(self) -> dict:
        return {"lo": rat_str(self.lo), "hi": rat_str(self.hi)}


@dataclass(frozen=True)
class EpsProfile:
    """Per-index Seshadri minima, each either exact or a rigorous bracket.

    ``entries`` is a nonempty list or tuple of EpsExact and EpsBracket,
    kept as a tuple; anything else, or exact values that increase, raises
    InvalidInput.
    """

    entries: tuple

    def __post_init__(self):
        entries = self.entries
        if not isinstance(entries, (list, tuple)):
            raise InvalidInput(f"entries must be a list, not {type(entries).__name__}")
        if not entries:
            raise InvalidInput("empty profile")
        for e in entries:
            if not isinstance(e, (EpsExact, EpsBracket)):
                raise InvalidInput(f"entry {e!r} is neither EpsExact nor EpsBracket")
        exact = [e.value for e in entries if isinstance(e, EpsExact)]
        if len(exact) == len(entries) and any(b > a for a, b in zip(exact, exact[1:])):
            raise InvalidInput("exact profile must be nonincreasing")
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def all_exact(self) -> bool:
        return all(isinstance(e, EpsExact) for e in self.entries)

    @property
    def all_bracket(self) -> bool:
        return all(isinstance(e, EpsBracket) for e in self.entries)

    def to_json(self) -> dict:
        return {"eps": [e.to_json() for e in self.entries]}


@dataclass(frozen=True)
class ProjectiveSpace:
    """P^d polarized by degree w; moment polytope w * standard simplex."""

    dim: int
    w: int


@dataclass(frozen=True)
class ProductOfP1:
    """(P^1)^d with multidegree weights; moment polytope a box."""

    weights: tuple


def vertex_cone(MP: MomentPolytope, u) -> VertexCone:
    """Edge directions at a vertex, primitivized; flags lattice smoothness.

    The vertex must be simple, on exactly d facets.  Edge i then lies on the
    other d - 1 facets: it is their primitive cofactor normal, oriented to
    leave facet i.  A u whose length is not d raises DimensionMismatch.
    Vertices and facets are read as the ints over L that the body keeps.
    """
    d = _moment_dim(MP)
    u = as_intvec(u, d)
    L, xs = MP.integer_vertices
    if tuple([c * L for c in u]) not in xs:
        raise NotAVertex(f"{u} is not a vertex")
    active = [a for a, c in MP.integer_facets if vdot(a, u) * L == c]
    if len(active) != d:
        raise NotAmplePolytope(
            f"vertex {u} lies on {len(active)} facets; expected exactly {d}")
    gens = []
    for i, a in enumerate(active):
        e = primitive(cofactor_normal(active[:i] + active[i + 1:]))
        gens.append(e if vdot(a, e) < 0 else tuple(-c for c in e))
    gens = tuple(sorted(gens))
    smooth = abs(determinant(gens)) == 1
    return VertexCone(vertex=u, edge_generators=gens, smooth=smooth)


def eps_at_invariant_point(MP: MomentPolytope, u) -> EpsProfile:
    """Exact minima at a smooth fixed point of the polytope's toric variety.

    Writes the shifted polytope in the vertex cone's coordinates and takes,
    for the i-th value, the minimum over coordinate subsets J of size i-1 of
    the maximal remaining coordinate sum on the face where J vanishes; the
    maximum of a linear form over a face is attained at a vertex, so only
    vertices are scanned.  At a smooth vertex the cone coordinates of a point
    are its lattice distances b - a.x to the d facets through u, read as
    (c - a.x) // L off the integer facets (a, c) and vertices x over L, which
    L divides on a lattice polytope.  So the one Fraction made per value is
    its answer's.  A u whose length is not d raises DimensionMismatch
    before any cone is built.
    """
    d = _moment_dim(MP)
    u = as_intvec(u, d)
    # every vertex must be simple, so every cone is built once, u's among them
    cones = {v: vertex_cone(MP, v) for v in MP.vertices_int}
    if u not in cones:
        raise NotAVertex(f"{u} is not a vertex")
    if not cones[u].smooth:
        raise SingularVertex(f"vertex cone at {u} is not smooth")
    L, xs = MP.integer_vertices
    active = [(a, c) for a, c in MP.integer_facets if vdot(a, u) * L == c]
    coords = [[(c - vdot(a, x)) // L for a, c in active] for x in xs]

    values = []
    for i in range(1, d + 1):
        best = None
        for J in combinations(range(d), i - 1):
            face = [c for c in coords if all(c[j] == 0 for j in J)]
            m = max(sum(c[k] for k in range(d) if k not in J) for c in face)
            if best is None or m < best:
                best = m
        values.append(best)
    return EpsProfile([EpsExact(v, "invariant_point") for v in values])


def eps_bracket_general(MP: MomentPolytope) -> EpsProfile:
    """Rigorous brackets for the minima at a very general point.

    Lower bounds come from the reciprocals of the minima of the difference
    body (for the last index also width/d); upper bounds from the dual
    minima scaled by the codimension count.  Transference puts lo <= hi, so
    an inverted bracket is a bug and raises InternalError.
    """
    d = _moment_dim(MP)
    K = difference_body(MP)
    sm = successive_minima(K)
    sm_dual = dual_minima(K)
    w = sm_dual.lambdas[0]
    entries = []
    for i in range(1, d + 1):
        lo = 1 / sm.lambdas[i - 1]
        if i == d:
            lo = max(lo, Fraction(w, d))
        hi = (d - i + 1) * sm_dual.lambdas[d - i]
        if lo > hi:
            raise InternalError(f"bracket {i} inverted: lo {rat_str(lo)} > hi {rat_str(hi)}")
        entries.append(EpsBracket(lo, hi))
    return EpsProfile(entries)


def exact_eps_family(family) -> tuple[EpsProfile, MomentPolytope]:
    """Closed-form minima for the two homogeneous families, with the moment
    polytope returned alongside for cross-checks."""
    if isinstance(family, ProjectiveSpace):
        d, w = strict_int(family.dim, "dim"), strict_int(family.w, "w")
        if d < 1 or w < 1:
            raise InvalidWeights("projective space needs d >= 1 and w >= 1")
        pts = [tuple(0 for _ in range(d))]
        for i in range(d):
            pts.append(tuple(w if j == i else 0 for j in range(d)))
        mp = MomentPolytope.from_points(pts, d)
        profile = EpsProfile([EpsExact(Fraction(w), "family_formula")] * d)
        return profile, mp
    if isinstance(family, ProductOfP1):
        if not isinstance(family.weights, (list, tuple)):
            raise InvalidInput(f"weights must be a list, not {type(family.weights).__name__}")
        weights = tuple(strict_int(w, "weight") for w in family.weights)
        if not weights or any(w < 1 for w in weights):
            raise InvalidWeights("weights must be positive integers")
        weights = tuple(sorted(weights, reverse=True))
        d = len(weights)
        pts = [tuple(w if bit else 0 for w, bit in zip(weights, bits))
               for bits in iproduct((0, 1), repeat=d)]
        mp = MomentPolytope.from_points(pts, d)
        values = [Fraction(sum(weights[i:])) for i in range(d)]
        profile = EpsProfile([EpsExact(v, "family_formula") for v in values])
        return profile, mp
    raise InvalidWeights(f"unknown family {family!r}")


def toric_volume(MP: MomentPolytope) -> Fraction:
    """Degree-style volume: d! times the lattice-normalized polytope volume."""
    return math.factorial(_moment_dim(MP)) * volume(MP)


def verify_m2m(MP: MomentPolytope, eps: EpsProfile) -> TheoremReport:
    """Check 1 <= vol / prod(eps_i) <= d!.

    Exact profiles are checked directly; bracket profiles are checked for
    the implied consistency prod(lo) <= vol <= d! * prod(hi).  An eps that
    is no EpsProfile raises InvalidInput, a mixed one MixedProfile, and one
    of length other than d DimensionMismatch.
    """
    d = _profile_dim(MP, eps)
    vol = toric_volume(MP)
    fact = math.factorial(d)
    if eps.all_exact:
        ratio = vol / math.prod((e.value for e in eps.entries), start=Fraction(1))
        ok = 1 <= ratio <= fact
        found = {"eps": [rat_str(e.value) for e in eps.entries], "ratio": rat_str(ratio)}
    else:
        prod_lo = math.prod((e.lo for e in eps.entries), start=Fraction(1))
        prod_hi = math.prod((e.hi for e in eps.entries), start=Fraction(1))
        ok = prod_lo <= vol <= fact * prod_hi
        found = {
            "eps_lo": [rat_str(e.lo) for e in eps.entries],
            "eps_hi": [rat_str(e.hi) for e in eps.entries],
            "prod_lo": rat_str(prod_lo),
            "prod_hi": rat_str(prod_hi),
        }
    return TheoremReport(
        theorem="volume_vs_minima",
        quantities={"dim": str(d), "vol": rat_str(vol), **found, "upper": str(fact)},
        verdict=verdict(ok),
        witnesses={},
    )


def verify_bracket_width(MP: MomentPolytope, eps: EpsProfile, width: WidthResult) -> TheoremReport:
    """Check w/d <= lo_d <= hi_d <= w on eps's last bracket, and that the
    witness a attains w: max a.v - min a.v = w > 0.  That clause checks w:
    ``eps_bracket_general`` sets lo_d >= w/d and hi_d to the dual minimum
    ``lattice_width`` returns, and raises on lo > hi.  eps is refused as by
    ``verify_m2m`` and a as by ``as_intvec``; an exact profile or a width
    that is no WidthResult raises InvalidInput."""
    d = _profile_dim(MP, eps)
    if eps.all_exact or not isinstance(width, WidthResult):
        raise InvalidInput("the width check needs a bracket profile and a WidthResult")
    w, a, last = parse_rat(width.width), as_intvec(width.witness, d), eps.entries[-1]
    levels = [vdot(a, v) for v in MP.vertices_int]
    extent = max(levels) - min(levels)
    return TheoremReport(
        theorem="bracket_width",
        quantities={"dim": str(d), "w": rat_str(w), "extent": rat_str(extent),
                    "lo": rat_str(last.lo), "hi": rat_str(last.hi)},
        verdict=verdict(0 < extent == w and Fraction(w, d) <= last.lo <= last.hi <= w),
        witnesses={"width_functional": list(a)},
    )
