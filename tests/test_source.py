"""Rules on the package source itself."""

import ast
from pathlib import Path

import pytest

from latmin.polytope import Polytope, SymmetricBody
from latmin.toric import MomentPolytope

SRC = Path(__file__).resolve().parents[1] / "src" / "latmin"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; library invariants raise InternalError instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def _local_names(fn):
    """Parameters of a function or lambda and the names assigned in its body."""
    args = fn.args
    params = args.posonlyargs + args.args + args.kwonlyargs + [
        a for a in (args.vararg, args.kwarg) if a is not None]
    return {a.arg for a in params} | {
        n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}


def _referenced_names(node, local=frozenset()):
    """Names that node loads, calls or imports, leaving out the loads of a
    function's own parameters and locals, which shadow a top-level name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name
    for child in ast.iter_child_nodes(node):
        yield from _referenced_names(child, local)


def dead_helpers(sources):
    """Top-level functions and classes, as "file:name", that no code of the
    package loads, calls or imports outside their own body."""
    defined, used = [], set()
    for name, text in sources:
        tree = ast.parse(text, filename=name)
        for node in tree.body:
            own = getattr(node, "name", None) if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            if own is not None:
                defined.append(f"{name}:{own}")
            used.update(n for n in _referenced_names(node) if n != own)
    return [d for d in defined if d.split(":")[1] not in used]


def test_no_dead_helpers():
    sources = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    dead = dead_helpers(sources)
    assert not dead, f"unreferenced top-level definitions: {dead}"


def test_dead_helper_shadowed_by_a_parameter_is_found():
    # a parameter or local of the same name is no use of the top-level helper
    source = ("def scale(P, c):\n    return c\n\n"
              "def enumerate_points(vertices, scale=1):\n    return [scale * v for v in vertices]\n\n"
              "def dilate(P):\n    factor = 2\n    return [factor * v for v in P]\n\n"
              "def factor():\n    return 3\n\n"
              "POINTS = enumerate_points([1]), dilate([1])\n")
    assert dead_helpers([("m.py", source)]) == ["m.py:scale", "m.py:factor"]
    assert dead_helpers([("m.py", source + "BOTH = scale(1, 2), factor()\n")]) == []


def _private_names(tree):
    """The _-prefixed, non-dunder names that a module defines or assigns at top level."""
    names = [getattr(node, "name", None) for node in tree.body]
    names += [t.id for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)]
    return {n for n in names if n and n.startswith("_") and not n.startswith("__")}


def _package_path(node):
    """The module path inside the package that ``from ... import`` reads,
    "" for the package itself, or None for a module outside it."""
    if node.level:
        return node.module or ""
    if node.module == "latmin" or (node.module or "").startswith("latmin."):
        return node.module.removeprefix("latmin").removeprefix(".")
    return None


def private_reaches(sources):
    """Uses, as "file:line name", of a _-prefixed top-level name of another
    module of the package: imported from it, or read as ``module._name``
    off a module bound by ``from . import module`` or ``import latmin.module``."""
    trees = {name.removesuffix(".py"): ast.parse(text, filename=name) for name, text in sources}
    private = {mod: _private_names(tree) for mod, tree in trees.items()}
    found = []
    for own, tree in trees.items():
        bound = {}  # name in this module -> the package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                path = _package_path(node)
                for alias in node.names:
                    if path == "" and alias.name in trees:
                        bound[alias.asname or alias.name] = alias.name
                    elif path in trees and path != own and alias.name in private[path]:
                        found.append(f"{own}.py:{node.lineno} {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    mod = alias.name.removeprefix("latmin.")
                    if alias.name.startswith("latmin.") and mod in trees:
                        bound[alias.asname or alias.name] = mod
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                mod = bound.get(ast.unparse(node.value))
                if mod and mod != own and node.attr in private[mod]:
                    found.append(f"{own}.py:{node.lineno} {node.attr}")
    return found


def test_no_private_names_across_modules():
    # a helper shared by two modules is public, in the module that owns it
    sources = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    found = private_reaches(sources)
    assert not found, f"_-prefixed names used outside their module: {found}"


def test_private_reach_is_found():
    core = "def _helper():\n    return 1\n\n_TABLE = {}\n\ndef shared():\n    return 2\n"
    user = ("from . import core\nfrom .core import _helper, shared\nimport latmin.core as lc\n\n"
            "def f(P):\n    return core._TABLE, lc._helper(), core.shared(), P._chart\n")
    assert private_reaches([("core.py", core), ("user.py", user)]) == [
        "user.py:2 _helper", "user.py:6 _TABLE", "user.py:6 _helper"]
    assert private_reaches([("core.py", core), ("user.py", "from .core import shared\n")]) == []


def package_imports(tree):
    """Lines of the imports that read a module of the package: ``from .
    import m``, ``from .m import x``, ``import latmin`` or ``import
    latmin.m``, at top level or inside a function."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and _package_path(node) is not None
                  or isinstance(node, ast.Import) and any(
                      a.name == "latmin" or a.name.startswith("latmin.") for a in node.names))


def test_walk_is_a_leaf_module():
    # the walk imports nothing of the package, so every module that needs
    # lattice points takes it without an import cycle
    tree = ast.parse((SRC / "walk.py").read_text(encoding="utf-8"))
    lines = package_imports(tree)
    assert not lines, f"walk.py imports package modules at lines {lines}"


def test_package_import_is_found():
    source = ("from __future__ import annotations\n\nimport math\nfrom operator import add\n"
              "from . import core\nfrom .errors import InternalError\nimport latmin.polytope\n\n"
              "def f():\n    from latmin.gon import runs\n    return runs, math, add\n")
    assert package_imports(ast.parse(source)) == [5, 6, 7, 10]


def rational_reads(tree):
    """Lines that read ``.numerator``, ``.denominator`` or ``.facets``: a
    body's facets as Fractions, or a rational's parts."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr in ("numerator", "denominator", "facets"))


def test_walk_reads_no_rationals():
    # the walk writes a body's system off its integer facets and vertices
    tree = ast.parse((SRC / "walk.py").read_text(encoding="utf-8"))
    lines = rational_reads(tree)
    assert not lines, f"walk.py reads rationals at lines {lines}"


def test_rational_read_is_found():
    source = ("def integer_system(P, mode):\n"
              "    rows = [(a, b.numerator // b.denominator) for a, b in P.facets]\n"
              "    return rows, P.integer_facets, P.integer_vertices[0]\n")
    assert rational_reads(ast.parse(source)) == [2, 2, 2]


def unused_imports(tree):
    """Names, as "line name", that a module imports, at top level or inside
    a function, and never reads; a ``__future__`` import binds no name."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line} {name}" for line, name in sorted(imported) if name not in read]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    # __init__.py imports to re-export, and is left out
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = unused_imports(tree)
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_unused_import_is_found():
    source = ("from __future__ import annotations\n\nimport math\nimport os.path\n"
              "from fractions import Fraction\nfrom .core import determinant, vdot as dot\n"
              "from .errors import InternalError, ZeroVector\n\n"
              "def f(x) -> Fraction:\n    import latmin.gon\n"
              "    if not x:\n        raise InternalError(os.path.sep)\n    return dot(x, x)\n")
    assert unused_imports(ast.parse(source)) == [
        "3 math", "6 determinant", "7 ZeroVector", "10 latmin"]


def calls_of(tree, name):
    """The calls of ``name``, bare or read off a module."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def vertices_cleared(tree):
    """Lines of calls of ``clear_denominators`` that pass it ``<expr>.vertices``,
    bare or inside another expression: a body carries its integer vertices,
    so none is cleared again."""
    return [node.lineno for node in calls_of(tree, "clear_denominators")
            if any(isinstance(n, ast.Attribute) and n.attr == "vertices"
                   for arg in node.args for n in ast.walk(arg))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_denominators_cleared_off_vertices(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = vertices_cleared(tree)
    assert not lines, f"{path.name} clears the denominators of vertices at lines {lines}"


def test_vertices_cleared_is_found():
    source = ("from .core import clear_denominators\nfrom . import core\n\n"
              "def f(P, K, v):\n"
              "    a = clear_denominators(P.vertices)\n"
              "    b = core.clear_denominators([w for w in K.vertices])\n"
              "    c = clear_denominators([v])\n"
              "    return a, b, c, P.integer_vertices\n")
    assert vertices_cleared(ast.parse(source)) == [5, 6]


def wrapper_reads(tree):
    """Lines that read an attribute named ``body`` or ``polytope``, the
    wrappers in which a symmetric body or a moment polytope once kept its
    Polytope."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("body", "polytope")]


def test_body_types_are_polytopes():
    # a SymmetricBody or MomentPolytope is the Polytope itself, so every
    # function of a Polytope takes it and no wrapper comes back
    assert issubclass(SymmetricBody, Polytope) and issubclass(MomentPolytope, Polytope)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_wrapped_bodies_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = wrapper_reads(tree)
    assert not lines, f"{path.name} reads a wrapped body at lines {lines}"


def test_wrapped_body_read_is_found():
    source = ("from . import polytope\n\n"
              "def f(K, MP, P):\n"
              "    L, xs = K.body.integer_vertices\n"
              "    return polytope.volume(MP.polytope), P.vertices\n")
    assert wrapper_reads(ast.parse(source)) == [4, 5]


READERS = ("as_ratvec", "as_intvec")


def _called(node):
    """The name a call calls, bare or read off a module, or that of a bare
    or module-read name; None for anything else."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _reads(node):
    """Whether ``node`` is a call of ``as_ratvec`` or ``as_intvec``."""
    return isinstance(node, ast.Call) and _called(node) in READERS


def reread_lengths(tree):
    """Lines of ``if`` statements that raise DimensionMismatch on the len of
    a vector read by ``as_ratvec`` or ``as_intvec``, the call itself or a
    name bound to it in the same function: given d, the reader checks the
    length, so no caller does it again."""
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                and _reads(node.value) for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(fn):
            if not isinstance(node, ast.If):
                continue
            raises = any(isinstance(n, ast.Raise) and n.exc is not None
                         and _called(n.exc) == "DimensionMismatch" for n in ast.walk(node))
            lens = [call.args[0] for call in calls_of(node.test, "len") if call.args]
            if raises and any(getattr(v, "id", None) in read or _reads(v) for v in lens):
                lines.add(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "core.py"),
                         ids=lambda p: p.name)
def test_no_length_check_after_a_reader(path):
    # the readers take the dimension and check the length themselves
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = reread_lengths(tree)
    assert not lines, f"{path.name} checks the length of a vector it read at lines {lines}"


def test_length_check_after_a_reader_is_found():
    source = ("from .core import as_intvec, as_ratvec\nfrom . import core, errors\n"
              "from .errors import DimensionMismatch\n\n"
              "def f(P, points, x, u, d):\n"
              "    for p in points:\n"
              "        q = as_ratvec(p)\n"
              "        if len(q) != d:\n"
              "            raise DimensionMismatch(f'point of length {len(q)}')\n"
              "    if len(core.as_intvec(u)) != d:\n"
              "        raise errors.DimensionMismatch\n"
              "    w = as_ratvec(x, d)\n"
              "    if len(w) > 2:\n"
              "        raise errors.InvalidInput('too long')\n"
              "    if len(P.facets) != d:\n"
              "        raise DimensionMismatch('unread')\n"
              "    return w\n")
    assert reread_lengths(ast.parse(source)) == [8, 10]


def walks_own_points(call):
    """Whether a call's only argument is ``*integer_system(...)``: a walk of
    a polytope's own lattice points, which builds no gauge."""
    return (not call.keywords and len(call.args) == 1 and isinstance(call.args[0], ast.Starred)
            and isinstance(call.args[0].value, ast.Call)
            and _called(call.args[0].value) == "integer_system")


def minima_sites(tree):
    """Lines of the calls of ``lll_reduce`` and of the walk's ``runs``, but
    for the walks of a polytope's own lattice points."""
    return {name: sorted(node.lineno for node in calls_of(tree, name)
                         if not walks_own_points(node))
            for name in ("lll_reduce", "runs")}


def test_one_minima_routine():
    # the successive minima and the lattice width share one routine, so gon
    # reduces and enumerates at one site each: no second copy comes back;
    # flatness's walk of P's own interior points builds no gauge
    tree = ast.parse((SRC / "gon.py").read_text(encoding="utf-8"))
    sites = minima_sites(tree)
    assert all(len(lines) == 1 for lines in sites.values()), f"gon.py call sites: {sites}"


def test_second_minima_copy_is_found():
    source = ("from . import core\nfrom .walk import runs\n\n"
              "def minima(G, box):\n"
              "    return core.lll_reduce(G), list(runs(*box))\n\n"
              "def width(G, box):\n"
              "    B = core.lll_reduce(G)\n"
              "    return B, list(runs(*box))\n\n"
              "def interior(P):\n"
              "    return list(runs(*integer_system(P, 'interior')))\n")
    assert minima_sites(ast.parse(source)) == {"lll_reduce": [5, 8], "runs": [5, 9]}


def call_sites(sources, name):
    """The calls of ``name``, as "file:function" of the top-level function or
    class that makes each, in file and line order."""
    sites = []
    for file, text in sources:
        calls = sorted((call.lineno, getattr(node, "name", "<module>"))
                       for node in ast.parse(text, filename=file).body
                       for call in calls_of(node, name))
        sites += [f"{file}:{own}" for _, own in calls]
    return sites


def test_one_echelon_site():
    # the HNF kernel answers lattice questions only: every determinant goes
    # through the cofactor kernel, so the one echelon caller is the chart's U
    sources = [(p.name, p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))]
    assert call_sites(sources, "echelon") == ["polytope.py:_lattice_chart"]


def test_second_echelon_site_is_found():
    source = ("from .core import echelon\nfrom . import core\n\n"
              "def _lattice_chart(rows, n):\n    return echelon(rows, n)[0]\n\n"
              "def determinant(rows):\n    ech, pivots = core.echelon(rows, len(rows))\n"
              "    return ech, pivots\n")
    assert call_sites([("m.py", source)], "echelon") == ["m.py:_lattice_chart", "m.py:determinant"]


def test_one_cofactor_site_in_gon():
    # a body's minima passes read their boxes off the kept sides of its
    # reduction; only the bare-difference width, which has no polar vertices
    # to read, takes the cofactors of an ellipsoid box
    text = (SRC / "gon.py").read_text(encoding="utf-8")
    assert call_sites([("gon.py", text)], "cofactors") == ["gon.py:_ellipsoid_box"]


def test_second_cofactor_site_is_found():
    source = ("from .core import cofactors\nfrom . import core\n\n"
              "def _ellipsoid_box(cols):\n    return cofactors(cols)\n\n"
              "def dual_minima(K, k=None):\n    C, det = core.cofactors(K.basis)\n"
              "    return C, det, core.inverse_transpose(K.basis)\n")
    assert call_sites([("gon.py", source)], "cofactors") == [
        "gon.py:_ellipsoid_box", "gon.py:dual_minima"]


def untyped_raises(tree):
    """Lines that raise ValueError, TypeError or LatminError itself, called or
    not: errors that name no cause a caller can catch."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError", "LatminError"):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_untyped_raises(path):
    # every error the package raises is a typed LatminError subclass
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = untyped_raises(tree)
    assert not lines, f"{path.name} raises untyped errors at lines {lines}"
