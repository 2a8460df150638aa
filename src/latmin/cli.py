"""Command-line surface.

Every command is a pure function of its arguments, input bytes, and seed;
identical invocations produce identical output bytes.  Reports are
newline-terminated canonical JSON on stdout.  Exit codes: 0 success, 1 a
verify suite recorded a violated verdict (an implementation bug, since the
checked theorems are proved), 2 usage or input errors.  An exit 2 names its
cause: a ``LatminError`` class, ``usage``, ``generation``, or ``input`` for
JSON that does not decode and files that cannot be read or written; any
other exception is a bug and propagates.

A verify suite maps each instance to its ``TheoremReport``s, and the
instance holds when all of them hold.  minkowski checks Minkowski's second
theorem, transference and sharp2d the transference bounds and their planar
sharp form, flatness its items, postulation the box volume bound, and m2m
vol / prod eps, with ``bracket_width`` on each bracket instance.  Extremes
are the min or max of product, of pairings and of ratio (exact m2m only).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import gon, postulation, toric
from .core import as_intvec, as_ratvec, parse_rat, rat_str, strict_int
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
# verify suites: (reports of instance i, extremes as (key, quantity, min|max))


def _m2m(cfg: SuiteConfig, i: int) -> list:
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
        return [toric.verify_m2m(mp, profile),
                toric.verify_bracket_width(mp, profile, gon.lattice_width(mp))]
    return [toric.verify_m2m(mp, profile)]


def _postulation(cfg: SuiteConfig, i: int) -> list:
    rng = instance_stream(cfg.seed, i)
    t = tuple(Fraction(rng.int_in(0, 4 * cfg.coord_bound), rng.int_in(1, 4))
              for _ in range(cfg.dim))
    # for d <= 3 box_volume checks its closed form itself
    return [postulation.check_vol_bound(t)]


SUITES = {
    "minkowski": (lambda cfg, i: [gon.verify_minkowski_second(generate_instance(cfg, i))],
                  (("min_product", "product", min), ("max_product", "product", max))),
    "transference": (lambda cfg, i: [gon.verify_transference(generate_instance(cfg, i))],
                     (("max_pairing", "pairings", max),)),
    "sharp2d": (lambda cfg, i: [gon.verify_sharp_2d(generate_instance(cfg, i))],
                (("max_product", "product", max),)),
    "flatness": (lambda cfg, i: [gon.flatness_report(generate_instance(cfg, i))], ()),
    "m2m": (_m2m, (("max_ratio", "ratio", max),)),
    "postulation": (_postulation, ()),
}


def _run_suite(cfg: SuiteConfig) -> dict:
    reports_of, tracked = SUITES[cfg.suite]
    holds, extremes = 0, {}
    for i in range(cfg.count):
        reports = reports_of(cfg, i)
        holds += all(rep.holds for rep in reports)
        for key, name, pick in tracked:
            for rep in reports:
                value = rep.quantities.get(name, [])
                for x in map(parse_rat, value if isinstance(value, list) else [value]):
                    extremes[key] = pick(extremes[key], x) if key in extremes else x
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
