"""Exact-arithmetic geometry of numbers on lattice polytopes."""

from .core import lattice_span, parse_rat, primitive, rat_str
from .errors import (
    DimensionDeficient,
    DimensionMismatch,
    InternalError,
    InvalidInput,
    InvalidWeights,
    LatminError,
    MixedProfile,
    NegativeParameter,
    NotAmplePolytope,
    NotAVertex,
    NotSymmetric,
    SingularVertex,
    ZeroVector,
)
from .gon import (
    SuccessiveMinima,
    WidthResult,
    dual_minima,
    flatness_report,
    gauge,
    lattice_width,
    successive_minima,
    verify_minkowski_second,
    verify_sharp_2d,
    verify_transference,
)
from .polytope import (
    PointLocation,
    Polytope,
    SymmetricBody,
    contains,
    convex_hull,
    difference_body,
    lattice_points,
    locate,
    polar,
    volume,
)
from .postulation import box_count, box_volume, box_volume_closed_form, check_vol_bound, flag_h0
from .report import TheoremReport
from .toric import (
    EpsBracket,
    EpsExact,
    EpsProfile,
    MomentPolytope,
    ProductOfP1,
    ProjectiveSpace,
    VertexCone,
    eps_at_invariant_point,
    eps_bracket_general,
    exact_eps_family,
    toric_volume,
    verify_bracket_width,
    verify_m2m,
    vertex_cone,
)

__version__ = "0.1.0"
