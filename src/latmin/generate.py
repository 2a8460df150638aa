"""Deterministic pseudorandom instance generation for the verify suites.

The stream is SplitMix64 (Steele-Lea-Flood finalizer constants).  The
substream for (seed, index) is a fresh SplitMix64 generator whose state is
the (index+1)-th output of SplitMix64 seeded with `seed`, so any
implementation of the algorithm reproduces every instance byte for byte.
Bounded integers are drawn by modulo reduction of the next 64-bit output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polytope import SymmetricBody, convex_hull

_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

RETRY_CAP = 1000


class GenerationError(RuntimeError):
    """Resampling failed to produce a full-dimensional instance."""


def _mix(z: int) -> int:
    z &= _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class SplitMix64:
    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _M64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _M64
        return _mix(self.state)

    def int_in(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] by modulo reduction."""
        return lo + self.next_u64() % (hi - lo + 1)


def instance_stream(seed: int, index: int) -> SplitMix64:
    return SplitMix64(_mix((seed + (index + 1) * _GOLDEN) & _M64))


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int
    count: int
    dim: int
    coord_bound: int


def random_polytope(rng: SplitMix64, dim: int, bound: int, symmetric: bool = False):
    """Hull of dim+4 points of [-bound, bound]^dim, or with ``symmetric`` of
    dim+2 points and their negatives; resampled until full-dimensional."""
    n = dim + (2 if symmetric else 4)
    for _ in range(RETRY_CAP):
        pts = [tuple(rng.int_in(-bound, bound) for _ in range(dim)) for _ in range(n)]
        if symmetric:
            pts = pts + [tuple(-c for c in p) for p in pts]
        P = convex_hull(pts, dim)
        if P.is_full_dimensional:
            return P
    raise GenerationError(f"no full-dimensional instance after {RETRY_CAP} tries")


def generate_instance(cfg: SuiteConfig, index: int):
    """Instance for (cfg, index): a lattice Polytope, or a SymmetricBody for
    the body suites."""
    symmetric = cfg.suite in ("transference", "sharp2d")
    P = random_polytope(instance_stream(cfg.seed, index), cfg.dim, cfg.coord_bound, symmetric)
    return SymmetricBody(P) if symmetric else P
