"""Command-line surface.

Every command is a pure function of its arguments, input bytes, and seed;
identical invocations produce identical output bytes.  Reports are
newline-terminated canonical JSON on stdout.  Exit codes: 0 success, 1 a
verify suite recorded a violated verdict (an implementation bug, since the
checked theorems are proved), 2 usage or input errors.  An exit 2 names its
cause: a ``LatminError`` class, ``usage``, ``generation``, or ``input`` for
JSON that does not decode and files that cannot be read or written; any
other exception is a bug and propagates.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import gon, postulation, toric
from .core import as_intvec, as_ratvec, parse_rat, rat_str, strict_int, vdot
from .errors import InvalidInput, LatminError
from .generate import (GenerationError, SuiteConfig, generate_instance, instance_stream,
                       random_polytope)
from .polytope import Polytope, SymmetricBody, convex_hull, lattice_points, polar, volume
from .toric import MomentPolytope, ProductOfP1, ProjectiveSpace


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="latmin", add_help=False)
    sub = parser.add_subparsers(dest="command")
    io_cmds = {
        "width": "lattice width of a polytope",
        "minima": "successive minima of a symmetric body",
        "polar": "polar body of a symmetric body",
        "volume": "lattice-normalized volume",
        "points": "lattice points of a polytope",
        "toric-eps": "exact minima at an invariant point of a moment polytope",
        "toric-bracket": "minima brackets at a very general point",
        "postulation": "box counts / volumes or flag section counts",
    }
    for name, help_text in io_cmds.items():
        p = sub.add_parser(name, add_help=False, description=help_text)
        p.add_argument("--in", dest="infile")
        p.add_argument("--inline", dest="inline")
        p.add_argument("--out", dest="outfile")
        if name == "points":
            p.add_argument("--mode", choices=("all", "interior"), default="all")
        if name == "toric-eps":
            p.add_argument("--vertex", required=True)
    v = sub.add_parser("verify", add_help=False)
    v.add_argument("--suite", required=True, choices=SUITES)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--count", type=int, default=100)
    v.add_argument("--dim", type=int, default=2)
    v.add_argument("--bound", type=int, default=4)
    v.add_argument("--out", dest="outfile")
    return parser


def _load_json(args) -> object:
    if args.inline is not None and args.infile is not None:
        raise UsageError("give --in or --inline, not both")
    # integer literals follow the parse_rat rule, digit limit included
    def parse_int(token):
        return parse_rat(token).numerator

    if args.inline is not None:
        text = args.inline
    elif args.infile is not None:
        with open(args.infile, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:  # undecodable JSON too
            raise json.JSONDecodeError(f"not UTF-8 ({exc.reason})", "", exc.start) from None
    else:
        raise UsageError("an input is required (--in FILE or --inline JSON)")
    try:
        return json.loads(text, parse_int=parse_int)
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise json.JSONDecodeError("JSON nested too deeply", text, 0) from None


def _parse_polytope(obj) -> Polytope:
    if "dim" not in obj or "vertices" not in obj:
        raise InvalidInput('polytope JSON needs keys "dim" and "vertices"')
    d = strict_int(obj["dim"], "dim")
    if not isinstance(obj["vertices"], list):
        raise InvalidInput(f'"vertices" must be a list, not {type(obj["vertices"]).__name__}')
    return convex_hull(obj["vertices"], d)


def _dump(obj) -> bytes:
    # an exact answer (a box count, h0) may have more digits than Python lets
    # str(int) write; the limit guards parsing, so lift it for output only
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj, separators=(",", ":"))
    finally:
        sys.set_int_max_str_digits(limit)
    return (text + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# verify suites: each checks instance i of cfg, reports extremes through
# track(key, value, min|max) and returns whether the instance holds


def _minkowski(cfg: SuiteConfig, i: int, track) -> bool:
    rep = gon.verify_minkowski_second(generate_instance(cfg, i))
    prod = parse_rat(rep.quantities["product"])
    track("min_product", prod, min)
    track("max_product", prod, max)
    return rep.holds


def _transference(cfg: SuiteConfig, i: int, track) -> bool:
    rep = gon.verify_transference(generate_instance(cfg, i))
    for p in rep.quantities["pairings"]:
        track("max_pairing", parse_rat(p), max)
    return rep.holds


def _sharp2d(cfg: SuiteConfig, i: int, track) -> bool:
    rep = gon.verify_sharp_2d(generate_instance(cfg, i))
    track("max_product", parse_rat(rep.quantities["product"]), max)
    return rep.holds


def _flatness(cfg: SuiteConfig, i: int, track) -> bool:
    return gon.flatness_report(generate_instance(cfg, i)).holds


def _m2m(cfg: SuiteConfig, i: int, track) -> bool:
    """Exact family profiles, or brackets on a random lattice polytope.  A
    bracket profile's last entry must lie in [w/d, w] for the lattice width
    w, and the width witness a must attain w over the polytope's vertices,
    max a.v - min a.v = w, read off its integer vertices with no minima.
    The witness clause is what checks the width: ``eps_bracket_general``
    sets lo to at least w/d and hi to lambda_1(polar(P - P)), the kept dual
    minimum that ``lattice_width`` also returns, and raises InternalError on
    an inverted bracket, so no part of w/d <= lo <= hi <= w can fail."""
    rng = instance_stream(cfg.seed, i)
    kind = rng.int_in(0, 2)
    if kind == 0:
        profile, mp = toric.exact_eps_family(
            ProjectiveSpace(cfg.dim, rng.int_in(1, cfg.coord_bound)))
    elif kind == 1:
        weights = tuple(rng.int_in(1, cfg.coord_bound) for _ in range(cfg.dim))
        profile, mp = toric.exact_eps_family(ProductOfP1(weights))
    else:
        mp = MomentPolytope(random_polytope(rng, cfg.dim, cfg.coord_bound))
        profile = toric.eps_bracket_general(mp)
    rep = toric.verify_m2m(mp, profile)
    if profile.all_bracket:
        width = gon.lattice_width(mp)
        w, last = width.width, profile.entries[-1]
        L, xs = mp.integer_vertices
        levels = [vdot(width.witness, x) for x in xs]
        return (rep.holds and (max(levels) - min(levels)) * w.denominator == w.numerator * L
                and Fraction(w, mp.ambient_dim) <= last.lo <= last.hi <= w)
    track("max_ratio", parse_rat(rep.quantities["ratio"]), max)
    return rep.holds


def _postulation(cfg: SuiteConfig, i: int, track) -> bool:
    rng = instance_stream(cfg.seed, i)
    t = tuple(Fraction(rng.int_in(0, 4 * cfg.coord_bound), rng.int_in(1, 4))
              for _ in range(cfg.dim))
    # for d <= 3 box_volume checks its closed form itself
    return postulation.check_vol_bound(t).holds


SUITES = {
    "minkowski": _minkowski,
    "transference": _transference,
    "sharp2d": _sharp2d,
    "flatness": _flatness,
    "m2m": _m2m,
    "postulation": _postulation,
}


def _run_suite(cfg: SuiteConfig) -> dict:
    extremes: dict = {}

    def track(key: str, value: Fraction, pick) -> None:
        extremes[key] = pick(extremes[key], value) if key in extremes else value

    holds = sum(SUITES[cfg.suite](cfg, i, track) for i in range(cfg.count))
    summary = {"suite": cfg.suite, "seed": cfg.seed, "count": cfg.count, "dim": cfg.dim,
               "bound": cfg.coord_bound, "holds": holds, "violated": cfg.count - holds}
    return summary | {key: rat_str(value) for key, value in extremes.items()}


# ---------------------------------------------------------------------------
# command dispatch


def _dispatch(args) -> tuple[int, dict]:
    cmd = args.command
    if cmd == "verify":
        if args.count < 1 or not (2 <= args.dim <= 4) or args.bound < 1:
            raise UsageError("need count >= 1, 2 <= dim <= 4, bound >= 1")
        dim = 2 if args.suite == "sharp2d" else args.dim  # the sharp bound is planar
        cfg = SuiteConfig(args.suite, args.seed % (1 << 64), args.count, dim, args.bound)
        summary = _run_suite(cfg)
        return (1 if summary["violated"] else 0), summary

    obj = _load_json(args)
    if not isinstance(obj, dict):
        raise InvalidInput(f"input JSON must be an object, not {type(obj).__name__}")
    if cmd == "postulation":
        if "t" in obj:
            t = as_ratvec(obj["t"])
            rep = postulation.check_vol_bound(t)
            return 0, {
                "t": [rat_str(x) for x in t],
                "count": postulation.box_count(t),
                "volume": rep.quantities["vol"],
                "bound": rep.quantities["bound"],
                "verdict": rep.verdict,
            }
        if {"d", "p", "q"} <= set(obj):
            return 0, {"h0": postulation.flag_h0(obj["d"], obj["p"], obj["q"])}
        raise InvalidInput('postulation input needs "t" or "d","p","q"')

    P = _parse_polytope(obj)
    if cmd == "width":
        return 0, gon.lattice_width(P).to_json()
    if cmd == "minima":
        return 0, gon.successive_minima(SymmetricBody(P)).to_json()
    if cmd == "polar":
        return 0, polar(SymmetricBody(P)).to_json()
    if cmd == "volume":
        return 0, {"volume": rat_str(volume(P))}
    if cmd == "points":
        pts = lattice_points(P, args.mode)
        return 0, {"mode": args.mode, "count": len(pts),
                   "points": [list(p) for p in pts]}
    if cmd == "toric-eps":
        u = as_intvec(args.vertex.split(","))
        return 0, toric.eps_at_invariant_point(MomentPolytope(P), u).to_json()
    if cmd == "toric-bracket":
        return 0, toric.eps_bracket_general(MomentPolytope(P)).to_json()
    raise UsageError(f"unknown command {cmd!r}")


def run(argv: list) -> tuple[int, bytes]:
    """Execute one invocation; returns (exit_code, stdout_bytes)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a command is required")
        code, payload = _dispatch(args)
    except UsageError as exc:
        return 2, _dump({"error": {"code": "usage", "message": str(exc)}})
    except LatminError as exc:
        return 2, _dump({"error": {"code": type(exc).__name__, "message": str(exc)}})
    except (json.JSONDecodeError, OSError) as exc:  # undecodable JSON, unreadable files
        return 2, _dump({"error": {"code": "input", "message": str(exc)}})
    except GenerationError as exc:
        return 2, _dump({"error": {"code": "generation", "message": str(exc)}})
    out = _dump(payload)
    outfile = getattr(args, "outfile", None)
    if outfile:
        try:
            with open(outfile, "wb") as fh:
                fh.write(out)
        except OSError as exc:
            return 2, _dump({"error": {"code": "input", "message": str(exc)}})
    return code, out


def main() -> None:
    code, out = run(sys.argv[1:])
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()
    raise SystemExit(code)


if __name__ == "__main__":
    main()
