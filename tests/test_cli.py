import hashlib
import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from counting import time_limit
from latmin import core, errors, gon, postulation, toric
from latmin.cli import SUITES, run
from latmin.generate import SuiteConfig


def invoke(*argv):
    code, out = run(list(argv))
    return code, json.loads(out.decode("utf-8"))


def polytope_json(vertices, dim):
    return json.dumps({"dim": dim, "vertices": [[str(c) for c in v] for v in vertices]})


SQUARE5 = polytope_json([(0, 0), (5, 0), (0, 5), (5, 5)], 2)
BOX32 = polytope_json([(0, 0), (3, 0), (0, 2), (3, 2)], 2)
CROSS = polytope_json([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)


class TestCommands:
    def test_width(self):
        code, out = invoke("width", "--inline", SQUARE5)
        assert code == 0
        assert out == {"width": "5", "witness": [1, 0]}

    def test_width_from_file(self, tmp_path):
        f = tmp_path / "square5.json"
        f.write_text(SQUARE5)
        code, out = invoke("width", "--in", str(f))
        assert code == 0
        assert out["width"] == "5"

    def test_toric_eps(self):
        code, out = invoke("toric-eps", "--inline", BOX32, "--vertex", "0,0")
        assert code == 0
        assert out == {"eps": [
            {"exact": "5", "provenance": "invariant_point"},
            {"exact": "2", "provenance": "invariant_point"},
        ]}

    def test_toric_bracket(self):
        code, out = invoke("toric-bracket", "--inline", BOX32)
        assert code == 0
        assert out["eps"][0] == {"lo": "3", "hi": "6"}
        assert out["eps"][1] == {"lo": "2", "hi": "2"}

    def test_volume(self):
        code, out = invoke("volume", "--inline", BOX32)
        assert code == 0
        assert out == {"volume": "6"}

    def test_points(self):
        code, out = invoke("points", "--inline", BOX32, "--mode", "interior")
        assert code == 0
        assert out == {"mode": "interior", "count": 2, "points": [[1, 1], [2, 1]]}

    def test_minima_and_polar(self):
        code, out = invoke("minima", "--inline", CROSS)
        assert code == 0
        assert out["lambdas"] == ["1", "1"]
        code, out = invoke("polar", "--inline", CROSS)
        assert code == 0
        assert out == {"dim": 2, "vertices": [["-1", "-1"], ["-1", "1"],
                                              ["1", "-1"], ["1", "1"]]}

    def test_postulation_box(self):
        code, out = invoke("postulation", "--inline", json.dumps({"t": ["5/2", "1"]}))
        assert code == 0
        assert out["count"] == 5
        assert out["volume"] == "2"
        assert out["verdict"] == "holds"

    def test_postulation_flag(self):
        code, out = invoke("postulation", "--inline",
                           json.dumps({"d": 2, "p": [1, 1], "q": 2}))
        assert code == 0
        assert out == {"h0": 3}

    def test_out_file(self, tmp_path):
        f = tmp_path / "report.json"
        code, out = run(["volume", "--inline", BOX32, "--out", str(f)])
        assert code == 0
        assert f.read_bytes() == out


class TestVerify:
    def test_sharp2d_suite(self):
        code, out = invoke("verify", "--suite", "sharp2d", "--seed", "7",
                           "--count", "40")
        assert code == 0
        assert out["holds"] == 40
        assert out["violated"] == 0
        num, _, den = out["max_product"].partition("/")
        assert int(num) * 2 <= 3 * int(den or 1)

    def test_each_suite_runs_clean(self):
        for suite in ("minkowski", "transference", "flatness", "m2m", "postulation"):
            code, out = invoke("verify", "--suite", suite, "--seed", "3",
                               "--count", "8", "--dim", "2", "--bound", "4")
            assert code == 0, out
            assert out["violated"] == 0

    def test_m2m_width_witness_is_checked(self, monkeypatch):
        # a planted width witness that does not attain the width, here twice
        # the true one, fails the bracket instances of the m2m suite
        real = gon.lattice_width

        def planted(P):
            res = real(P)
            return gon.WidthResult(res.width, tuple(2 * c for c in res.witness))

        argv = ("verify", "--suite", "m2m", "--seed", "3", "--count", "12", "--dim", "3",
                "--bound", "3")
        assert invoke(*argv)[1]["violated"] == 0
        monkeypatch.setattr(gon, "lattice_width", planted)
        code, out = invoke(*argv)
        assert code == 1
        assert 0 < out["violated"] < 12

    def test_planted_witness_fails_its_bracket_width_report(self, monkeypatch):
        # each bracket instance carries two reports: the volume sandwich
        # still holds, and the width clause names the planted witness
        real = gon.lattice_width

        def planted(P):
            res = real(P)
            return gon.WidthResult(res.width, tuple(2 * c for c in res.witness))

        monkeypatch.setattr(gon, "lattice_width", planted)
        reports_of, _ = SUITES["m2m"]
        cfg = SuiteConfig("m2m", 3, 12, 3, 3)
        reports = [reports_of(cfg, i) for i in range(cfg.count)]
        brackets = [r for r in reports if len(r) == 2]
        assert 0 < len(brackets) < cfg.count
        for m2m, width in brackets:
            assert (m2m.theorem, m2m.holds) == ("volume_vs_minima", True)
            assert (width.theorem, width.holds) == ("bracket_width", False)
            assert Fraction(width.quantities["extent"]) == 2 * Fraction(width.quantities["w"])
            # no tracked quantity counts from a bracket instance
            assert not {"ratio", "product"} & (m2m.quantities.keys() | width.quantities.keys())

    def test_inverted_bracket_is_an_internal_error(self, monkeypatch):
        # a planted fault, minima a hundred times too small, inverts the
        # brackets: that breaks transference, so it is a bug, not bad input
        real = toric.successive_minima

        def planted(K, k=None):
            sm = real(K, k)
            return gon.SuccessiveMinima(sm.d, tuple(x / 100 for x in sm.lambdas),
                                        sm.witnesses)

        monkeypatch.setattr(toric, "successive_minima", planted)
        square = toric.MomentPolytope.from_points([(0, 0), (1, 0), (0, 1), (1, 1)], 2)
        with pytest.raises(errors.InternalError, match="bracket 1 inverted"):
            toric.eps_bracket_general(square)
        code, out = invoke("verify", "--suite", "m2m", "--seed", "3", "--count", "12",
                           "--dim", "3")
        assert code == 2
        assert out["error"]["code"] == "InternalError"

    def test_byte_determinism(self):
        argv = ["verify", "--suite", "minkowski", "--seed", "99", "--count", "10",
                "--dim", "2", "--bound", "5"]
        assert run(argv) == run(argv)

    def test_distinct_seeds_differ(self):
        a = run(["verify", "--suite", "sharp2d", "--seed", "1", "--count", "10"])
        b = run(["verify", "--suite", "sharp2d", "--seed", "2", "--count", "10"])
        assert a != b


# sha256 of the stdout of ``verify --suite S --seed 7`` at (dim, bound, count);
# a rewrite of any kernel under a suite must leave these bytes as they are
VERIFY_STDOUT_SHA256 = [
    ("minkowski", 2, 6, 40, "5a3e61a6c9b75538eb0bba0c3919c920d623d771c4a7774a47e77f2882887544"),
    ("transference", 2, 6, 40, "093a2279e8a7bc696048f289bf3e5fb9e8083377131bb8e93482506b0c36ed52"),
    ("sharp2d", 2, 6, 40, "8c7d9261a19ff8a66b6a39649a70bf66cc481e972d79548bde57f1299049e66f"),
    ("flatness", 2, 6, 40, "7021ac69077e7f63e5a302cc9fb09b1ef7977c75acb4f914840c643a7a8df465"),
    ("m2m", 2, 6, 40, "1210d02e68e68931d53f1e603914dfb9847e1d235aa47feb2825d6f75a3e4937"),
    ("postulation", 2, 6, 40, "d041de405a9cc67902bc096f3636e83bc88c335cb89efe746e1204a11dccf336"),
    ("minkowski", 3, 4, 40, "77f2fef09620358288b804a8c3857d194d2e18f07dfca405a0d588a15d8a961f"),
    ("transference", 3, 4, 40, "24ec5dfb797cffae24dd09961de2445ccb9feaed9923254e65118ae83fe38482"),
    ("sharp2d", 3, 4, 40, "b4b88ed7113298a00b4f64ec4c34ef84b8e0bd9bdcc30ec45540780ca91a0ab6"),
    ("flatness", 3, 4, 40, "e7151b4a52ebd89724eda40a22a044524a46ec9dcb0bcaf1b76b6cadbc5ef201"),
    ("m2m", 3, 4, 40, "77894370b654531236f8a096a98c7313250c09b99266cc423efcd54f4a321c3a"),
    ("postulation", 3, 4, 40, "f5993c60918c39e27f1e1e902b38a274fab344f110ca6169ebe8e75dadf0935f"),
    ("minkowski", 4, 3, 10, "6559c54f6543854223062a8afab837c83ade9d091e2c603c9316fc129efed91a"),
    ("transference", 4, 3, 10, "e0ab0694658376e483a446b14db279b8bc2fe77b8ff16378acac247544b83dc7"),
    ("sharp2d", 4, 3, 10, "fcbfe95c722810514d5858f311b110339f96d1bbaa7240bf429f6c0fbcbd4784"),
    ("flatness", 4, 3, 10, "12f167c64371b0335877334b46bae8c348c018e65dd92ae14f11e66906621dcc"),
    ("m2m", 4, 3, 10, "262d267ffec8d5c5c3206a550adc4b3af309bec5c2a61da25bc710900b875054"),
    ("postulation", 4, 3, 10, "6d6ba290f0313ab0e714a7c3ac052a0b2d3a06b75b06e0665d2d3676e248623f"),
    ("minkowski", 4, 8, 10, "a6f5f675f29b0eb888c7739655fe99ddeac182670ea0048401d73640e993ab69"),
    ("transference", 4, 8, 10, "761b831afd12105f9b6d9840e41e3942f2c1f626c23bd698f818e79cd13b682b"),
    ("sharp2d", 4, 8, 10, "072ffd431ca1083a7b6153ae3b4899929f006cbaa497da71e3e15af6d77aa227"),
    ("flatness", 4, 8, 10, "730a6e3047870fcef358c210ae7ba136cbdac6676fbe79f1dbc48cb647e02e5a"),
    ("m2m", 4, 8, 10, "40bec4a89677275aa3f1a3e983ea1dfed9f26a623ce3e5df3996c5ab9483163b"),
    ("postulation", 4, 8, 10, "ffbc5b4b7631ffd9cbeb607d5f33446af2b883d27c805b2b31c87ac46dbf8a80"),
]


@pytest.mark.parametrize("suite, dim, bound, count, digest", VERIFY_STDOUT_SHA256)
def test_verify_stdout_pinned(suite, dim, bound, count, digest):
    code, out = run(["verify", "--suite", suite, "--seed", "7", "--dim", str(dim),
                     "--bound", str(bound), "--count", str(count)])
    assert code == 0
    assert hashlib.sha256(out).hexdigest() == digest, out


class TestErrors:
    def test_usage_error(self):
        code, out = invoke("width")
        assert code == 2
        assert out["error"]["code"] == "usage"

    def test_unknown_command(self):
        code, out = invoke("frobnicate")
        assert code == 2

    def test_bad_json(self):
        code, out = invoke("width", "--inline", "{not json")
        assert code == 2
        assert out["error"]["code"] == "input"

    def test_domain_error(self):
        tri = polytope_json([(0, 0), (1, 0), (0, 1)], 2)
        code, out = invoke("minima", "--inline", tri)
        assert code == 2
        assert out["error"]["code"] == "NotSymmetric"

    def test_degenerate_polytope(self):
        seg = polytope_json([(0, 0), (2, 2)], 2)
        code, out = invoke("width", "--inline", seg)
        assert code == 2
        assert out["error"]["code"] == "DimensionDeficient"

    def test_missing_file(self):
        code, out = invoke("width", "--in", "/nonexistent/p.json")
        assert code == 2
        assert out["error"]["code"] == "input"

    def test_not_a_vertex(self):
        code, out = invoke("toric-eps", "--inline", BOX32, "--vertex", "1,1")
        assert code == 2
        assert out["error"]["code"] == "NotAVertex"

    @pytest.mark.parametrize("vertex", ["0,0,0", "0"])
    def test_vertex_of_another_length(self, vertex):
        code, out = invoke("toric-eps", "--inline", BOX32, "--vertex", vertex)
        assert code == 2
        assert out["error"]["code"] == "DimensionMismatch"


# non-integer integer fields, then inexact or overlong rational tokens
HALF_INTEGER_TRIANGLE = {"dim": 2, "vertices": [["0", "0"], ["1/2", "0"], ["0", "1"]]}

INVALID_INPUTS = [
    ("width", {"dim": 2.9, "vertices": [[0, 0], [1, 0], [0, 1]]}),
    ("width", {"dim": True, "vertices": [[0], [1]]}),
    ("width", {"dim": "2", "vertices": [[0, 0], [1, 0], [0, 1]]}),
    ("postulation", {"d": 2.7, "p": [1, 1], "q": 2.9}),
    ("postulation", {"d": 2, "p": [1, 1], "q": 2.0}),
    ("postulation", {"d": True, "p": [1], "q": 2}),
    ("postulation", {"d": 2, "p": [1, 1.5], "q": 2}),
    ("postulation", {"d": 2, "p": [1, False], "q": 2}),
    ("postulation", {"d": 2, "p": ["1", 1], "q": 2}),
    ("volume", {"dim": 1, "vertices": [["1/0"], ["0"]]}),
    ("volume", {"dim": 1, "vertices": [["1e400"], ["0"]]}),
    ("volume", {"dim": 1, "vertices": [[0.5], [0]]}),
    ("volume", {"dim": 1, "vertices": [["1.5"], ["0"]]}),
    ("volume", {"dim": 1, "vertices": [[True], [0]]}),
    ("postulation", {"t": [0.1, 2]}),
    ("postulation", {"t": ["1/0"]}),
    ("volume", {"dim": 1, "vertices": [["9" * 4301], ["0"]]}),
    ("postulation", {"t": ["1/" + "9" * 5000]}),
    # integer literals past the 4,300-digit limit, as raw JSON text
    pytest.param("volume", '{"dim": 1, "vertices": [[%s], [0]]}' % ("9" * 4301),
                 id="volume-literal-4301-digits"),
    pytest.param("postulation", '{"d": 2, "p": [1, 1], "q": %s}' % ("1" * 5000),
                 id="postulation-literal-5000-digits"),
    pytest.param("width", '{"dim": %s, "vertices": [[0], [1]]}' % ("2" * 4301),
                 id="width-literal-4301-digits"),
    # a moment polytope needs integer vertices
    pytest.param("toric-eps --vertex 0,0", HALF_INTEGER_TRIANGLE, id="toric-eps-half-integer-vertex"),
    pytest.param("toric-bracket", HALF_INTEGER_TRIANGLE, id="toric-bracket-half-integer-vertex"),
    # a string or an object where a list is expected is refused, not iterated
    pytest.param("points", {"dim": 2, "vertices": ["12", "30"]}, id="points-vertex-as-string"),
    pytest.param("points", {"dim": 1, "vertices": "12"}, id="points-vertices-as-string"),
    pytest.param("points", {"dim": 1, "vertices": {"1": 0}}, id="points-vertices-as-object"),
    pytest.param("postulation", {"t": "12"}, id="postulation-t-as-string"),
    pytest.param("postulation", {"t": {"3": 1, "2": 0}}, id="postulation-t-as-object"),
    # flag counts need d >= 1 and exactly d multiplicities
    pytest.param("postulation", {"d": 2, "p": [1], "q": 2}, id="postulation-multiplicity-count"),
    pytest.param("postulation", {"d": 0, "p": [], "q": 2}, id="postulation-d-zero"),
    # a value that is not iterable where a list is expected, and a top level
    # that is not an object
    pytest.param("points", {"dim": 1, "vertices": [5]}, id="points-vertex-as-int"),
    pytest.param("points", {"dim": 2, "vertices": None}, id="points-vertices-null"),
    pytest.param("postulation", {"t": None}, id="postulation-t-null"),
    pytest.param("postulation", {"d": 2, "p": 5, "q": 1}, id="postulation-p-as-int"),
    pytest.param("postulation", "5", id="postulation-top-level-int"),
    pytest.param("width", "5", id="width-top-level-int"),
    pytest.param("width", "[1, 2]", id="width-top-level-list"),
    pytest.param("width", {"dim": 2}, id="width-missing-vertices"),
    pytest.param("postulation", {"d": 2, "p": [1, 1]}, id="postulation-missing-q"),
    # an empty parameter list has nothing negative in it
    pytest.param("postulation", {"t": []}, id="postulation-t-empty"),
]


@pytest.mark.parametrize("command, doc", INVALID_INPUTS)
def test_non_integer_json_refused(command, doc):
    code, out = invoke(*command.split(), "--inline", doc if isinstance(doc, str) else json.dumps(doc))
    assert code == 2
    assert out["error"]["code"] == "InvalidInput"


@pytest.mark.parametrize("doc, message", [
    ({"d": 2, "p": [1, -1], "q": 2}, "q and the multiplicities must be nonnegative"),
    ({"d": 1, "p": [0], "q": -1}, "q and the multiplicities must be nonnegative"),
    ({"t": ["1", "-1"]}, "negative box parameter in (1, -1)"),
    ({"t": ["5/2", "-1/3", "0"]}, "negative box parameter in (5/2, -1/3, 0)"),
])
def test_negative_postulation_parameters(doc, message):
    code, out = invoke("postulation", "--inline", json.dumps(doc))
    assert code == 2
    assert out["error"] == {"code": "NegativeParameter", "message": message}


def test_each_vertex_coordinate_read_once(monkeypatch):
    # the CLI hands the raw vertices to convex_hull, whose as_ratvec reads
    # each of the square's 8 coordinates once
    calls = []
    real = core.parse_rat
    monkeypatch.setattr(core, "parse_rat", lambda x: calls.append(x) or real(x))
    code, out = invoke("width", "--inline", SQUARE5)
    assert (code, out["width"]) == (0, "5")
    assert len(calls) == 8


@pytest.mark.parametrize("vertices", [[["1/0"], ["0"]], [[0.5], [0]], ["12", "30"]])
def test_dimension_refused_before_a_malformed_vertex(vertices):
    # the library's order: convex_hull refuses dim 0 before it reads a vertex
    code, out = invoke("volume", "--inline", json.dumps({"dim": 0, "vertices": vertices}))
    assert code == 2
    assert out["error"] == {"code": "DimensionMismatch",
                            "message": "ambient dimension must be positive"}


@pytest.mark.parametrize("command, vertices, message", [
    ("minima", [[0, 0], [1, 0], [0, 1]], "vertex (0, 1) has no mirror image"),
    ("polar", [[1, 0], [-1, 0], [0, 1]], "vertex (0, 1) has no mirror image"),
    ("minima", [["1/2", "0"], ["-1/2", "0"], ["0", "2/3"]], "vertex (0, 2/3) has no mirror image"),
])
def test_missing_mirror_image_named_in_rationals(command, vertices, message):
    code, out = invoke(command, "--inline", json.dumps({"dim": 2, "vertices": vertices}))
    assert code == 2
    assert out["error"] == {"code": "NotSymmetric", "message": message}


def test_answer_past_the_int_str_digit_limit():
    # each token has 1,201 digits; the count and volume about 4,800
    t = [10 ** 1200] * 4
    code, raw = run(["postulation", "--inline", json.dumps({"t": [str(x) for x in t]})])
    assert code == 0
    count, vol = postulation.box_count(t), postulation.box_volume(t)
    assert count > 10 ** 4400 and vol > 10 ** 4400
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        out = json.loads(raw)
        got_vol = Fraction(out["volume"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert out["count"] == count and got_vol == vol


@pytest.mark.parametrize("vertex", ["0_0,0", " 0,+0", "\u0660,0", "0,0.0", "1/2,0", "0,", "0,0x0",
                                    pytest.param("1" * 4301 + ",0", id="4301-digits")])
def test_vertex_tokens_are_strict(vertex):
    code, out = invoke("toric-eps", "--inline", BOX32, "--vertex", vertex)
    assert code == 2
    assert out["error"]["code"] == "InvalidInput"


def test_vertex_as_fraction_token():
    assert invoke("toric-eps", "--inline", BOX32, "--vertex", "0/5,0/1") == \
        invoke("toric-eps", "--inline", BOX32, "--vertex", "0,0")


def test_json_nested_past_the_recursion_limit(tmp_path):
    # the decoder's RecursionError is an input error with exit 2, not a traceback
    depth = 100 * sys.getrecursionlimit()
    f = tmp_path / "deep.json"
    f.write_text('{"a":' * depth + "1" + "}" * depth)
    for source in (["--inline", "[" * depth + "]" * depth], ["--in", str(f)]):
        code, out = invoke("width", *source)
        assert code == 2
        assert out["error"] == {"code": "input", "message": "JSON nested too deeply: "
                                                            "line 1 column 1 (char 0)"}


class TestRoundTrip:
    def test_polar_output_reparses_canonically(self):
        code, out = invoke("polar", "--inline", CROSS)
        assert code == 0
        code2, out2 = invoke("polar", "--inline", json.dumps(out))
        assert code2 == 0
        assert out2 == {"dim": 2, "vertices": [["-1", "0"], ["0", "-1"],
                                               ["0", "1"], ["1", "0"]]}


# ---------------------------------------------------------------------------
# every JSON input ends in an answer or in a typed refusal

# exit 2 names a LatminError class, "usage" or "generation"; "input" is kept
# for JSON that does not decode and files that cannot be read or written,
# and every document below is valid JSON
TYPED_CODES = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.LatminError)} | {
    "usage", "generation"}

junk = st.one_of(st.none(), st.booleans(), st.floats(-4, 4, allow_nan=False), st.text(max_size=3),
                 st.sampled_from(["1/0", "0.5", "1e9", "", "x"]), st.just([]), st.just({"1": 0}),
                 st.just([[1]]))
number = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/2", "0", "2", "-1"]))


@st.composite
def one_defect(draw, doc):
    """``doc`` as it is, half the time, or with one defect: a key dropped or
    set to junk, an entry of one of its lists set to junk or cut short, or
    junk for the whole document."""
    if draw(st.booleans()):
        return doc
    kind = draw(st.sampled_from(["drop", "key", "entry", "short", "whole"]))
    if kind == "whole" or not doc:
        return draw(junk)
    key = draw(st.sampled_from(sorted(doc)))
    doc = dict(doc)
    if kind == "drop":
        del doc[key]
    elif kind == "key" or not isinstance(doc[key], list) or not doc[key]:
        doc[key] = draw(junk)
    else:
        items = list(doc[key])
        i = draw(st.integers(0, len(items) - 1))
        if kind == "short" and isinstance(items[i], list):
            items[i] = items[i][:-1]
        elif isinstance(items[i], list) and items[i]:
            items[i] = [*items[i][:-1], draw(junk)]
        else:
            items[i] = draw(junk)
        doc[key] = items
    return doc


@st.composite
def polytope_docs(draw):
    """{"dim": d, "vertices": [...]} with small integer or rational
    coordinates, mirrored now and then so that symmetric bodies occur, and
    with one defect half the time."""
    d = draw(st.integers(1, 4))
    vertices = draw(st.lists(st.lists(number, min_size=d, max_size=d), max_size=7))
    if draw(st.booleans()):
        vertices += [[-c if isinstance(c, int) else str(-Fraction(c)) for c in v]
                     for v in vertices]
    return draw(one_defect({"dim": d, "vertices": vertices}))


@st.composite
def postulation_docs(draw):
    """{"t": [...]} or {"d": d, "p": [...], "q": q}, with one defect half the
    time."""
    if draw(st.booleans()):
        doc = {"t": draw(st.lists(number, max_size=4))}
    else:
        d = draw(st.integers(0, 4))
        doc = {"d": d, "p": draw(st.lists(st.integers(-1, 4), min_size=d, max_size=d)),
               "q": draw(st.integers(-1, 8))}
    return draw(one_defect(doc))


VERTEX_ARGS = st.one_of(st.sampled_from(["0,0", "0,0,0", "1,0", "0,1", "1,1", "0", "", "a,b"]),
                        st.text(alphabet="0123456789,-/ ", max_size=6))


@pytest.mark.parametrize("command", ["width", "minima", "polar", "volume", "points",
                                     "points --mode interior", "toric-eps", "toric-bracket",
                                     "postulation"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_json_inputs_end_in_an_answer_or_a_typed_error(command, data):
    doc = data.draw(postulation_docs() if command == "postulation" else polytope_docs())
    argv = [*command.split(), "--inline", json.dumps(doc)]
    if command == "toric-eps":
        # one of the input's integer vertices now and then, else any tokens
        vertices = doc.get("vertices") if isinstance(doc, dict) else None
        tokens = [",".join(map(str, v)) for v in vertices if isinstance(v, list)
                  and all(type(c) is int for c in v)] if isinstance(vertices, list) else []
        argv += ["--vertex", data.draw(st.one_of(st.sampled_from(tokens or ["0,0"]), VERTEX_ARGS))]
    with time_limit(10):
        code, raw = run(argv)
    out = json.loads(raw)
    assert code in (0, 2), out
    if code == 2:
        assert out["error"]["code"] in TYPED_CODES, (argv, out)


def test_undecodable_input_file_is_an_input_error(tmp_path):
    f = tmp_path / "latin1.json"
    f.write_bytes(b'{"dim": 1, "vertices": [["\xe9"]]}')
    code, out = invoke("width", "--in", str(f))
    assert code == 2
    assert out["error"]["code"] == "input"
