"""Fuzzing of the input surface: market files and command lines.

Any decoded JSON value either parses or raises ParseError/MarketError, and
any market file with any argument list ends in exit code 0, 1 or 2 with a
message, never an uncaught exception.
"""

import cmath
import contextlib
import io
import itertools
import json
import tempfile
import warnings
from dataclasses import MISSING
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exact_hilbert import exact_value
from netexposure.laws import LAWS
from netexposure.cli import main
from netexposure.io import ParseError, _parse_link, parse_market_data
from netexposure.market import Link, MarketError
from netexposure.transforms import ROUTES

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12)

names = st.sampled_from(["a", "b", "c", "d"])


def well_typed_or_junk(strategy):
    """Mostly the well-typed field, sometimes any JSON value."""
    return st.one_of(strategy, strategy, strategy, json_values)


params = st.one_of(st.floats(-2.0, 3.0), st.integers(-1, 3),
                   st.just(float("nan")), st.just(float("inf")))

dists = st.fixed_dictionaries(
    {"type": well_typed_or_junk(st.sampled_from(
        ["laplace", "normal", "uniform", "gamma", "exponential", "cauchy"]))},
    optional={key: well_typed_or_junk(params)
              for key in ("scale", "sigma", "half_width", "shape")})

conventions = st.fixed_dictionaries(
    {"type": well_typed_or_junk(st.sampled_from(
        ["bilateral", "multilateral", "custom", "ring"]))},
    optional={
        "class": well_typed_or_junk(st.integers(-1, 3)),
        "sets": well_typed_or_junk(st.lists(well_typed_or_junk(
            st.fixed_dictionaries({
                "owner": well_typed_or_junk(names),
                "links": well_typed_or_junk(st.lists(well_typed_or_junk(
                    st.integers(-2, 6)), max_size=4)),
            })), max_size=4)),
    })

links = st.fixed_dictionaries(
    {"from": well_typed_or_junk(names), "to": well_typed_or_junk(names),
     "class": well_typed_or_junk(st.integers(0, 3))},
    optional={"directed": well_typed_or_junk(st.booleans()),
              "weight": well_typed_or_junk(params)})

markets = st.fixed_dictionaries(
    {"participants": well_typed_or_junk(
        st.lists(well_typed_or_junk(names), min_size=1, max_size=4)),
     "classes": well_typed_or_junk(st.integers(0, 3)),
     "links": well_typed_or_junk(
         st.lists(well_typed_or_junk(links), max_size=6))},
    optional={"convention": well_typed_or_junk(conventions),
              "dist": well_typed_or_junk(dists)})


@st.composite
def valid_markets(draw):
    """Well-formed files over 2-4 participants, to reach the numerics."""
    parts = draw(st.lists(names, min_size=2, max_size=4, unique=True))
    k = draw(st.integers(1, 2))
    pairs = [(a, b, c) for i, a in enumerate(parts) for b in parts[i + 1:]
             for c in range(1, k + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5,
                           unique=True))
    links = []
    for a, b, c in chosen:
        if draw(st.booleans()):
            a, b = b, a
        links.append({"from": a, "to": b, "class": c,
                      "directed": draw(st.booleans())})
    law = draw(st.sampled_from(["laplace", "normal", "uniform",
                                "exponential"]))
    dist = {"type": law}
    for name in LAWS[law]._fields:
        # ordinary scales and the extremes of the float range
        dist[name] = draw(st.sampled_from(
            [0.5, 2, 5e-324, 1e-300, 1e307, 1e308, 1.5e308]))
    data = {"participants": parts, "classes": k, "links": links,
            "dist": dist}
    if draw(st.booleans()):
        data["convention"] = draw(conventions)
    return data


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(json_values, markets, valid_markets()))
def test_parse_market_data_raises_only_input_errors(data):
    try:
        parse_market_data(data)
    except (ParseError, MarketError):
        pass


LINK_FIELDS = {"from": str, "to": str, "class": int, "directed": bool,
               "weight": float}
LINK_DEFAULTS = {"directed": False, "weight": None}


def reference_link(obj, i: int) -> Link:
    """A link object read field by field from the table above: an absent
    or null field takes its default, a bool is no number, and an int
    weight becomes a float."""
    where = f"$.links[{i}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, "
                         f"got {type(obj).__name__}")
    for key in obj:
        if key not in LINK_FIELDS:
            raise ParseError(f"{where}.{key}: unknown key (allowed: "
                             f"class, directed, from, to, weight)")
    values = []
    for key, kind in LINK_FIELDS.items():
        value = obj.get(key)
        if value is None and key in LINK_DEFAULTS:
            value = LINK_DEFAULTS[key]
        elif key not in obj:
            raise ParseError(f"{where}.{key}: missing")
        elif kind is float and type(value) is int:
            try:
                value = float(value)
            except OverflowError:
                raise ParseError(f"{where}.{key}: integer outside the "
                                 f"float range") from None
        elif type(value) is not kind:
            raise ParseError(f"{where}.{key}: expected {kind.__name__}, "
                             f"got {type(value).__name__}")
        values.append(value)
    return Link(*values)


# one value of each JSON type, and ints as wide as JSON allows
field_values = (None, True, 2, 10 ** 400, -10 ** 400, 0.5, float("nan"),
                "a", [], {})
# a key dropped (MISSING) or given one of those values, unknown keys included
edits = st.sampled_from([(key, value)
                         for key in (*LINK_FIELDS, "Weight")
                         for value in (MISSING, *field_values)])


@st.composite
def link_objects(draw):
    """A well-formed link object with up to two edits, or any JSON
    value."""
    if not draw(st.integers(0, 7)):
        return draw(json_values)
    obj = {"from": draw(names), "to": draw(names),
           "class": draw(st.integers(0, 3))}
    if draw(st.booleans()):
        obj["directed"] = draw(st.booleans())
    if draw(st.booleans()):
        obj["weight"] = draw(st.floats() | st.integers(-3, 3))
    for key, value in draw(st.lists(edits, max_size=2)):
        if value is MISSING:
            obj.pop(key, None)
        else:
            obj[key] = value
    return obj


LINK = {"from": "a", "to": "b", "class": 1}


@settings(max_examples=500, deadline=None)
@given(obj=link_objects(), i=st.integers(0, 12))
@example(obj={**LINK, "class": True}, i=0)
@example(obj={**LINK, "directed": None, "weight": None}, i=0)
@example(obj={**LINK, "directed": 1}, i=0)
@example(obj={**LINK, "weight": False}, i=0)
@example(obj={**LINK, "weight": 2}, i=0)
@example(obj={**LINK, "weight": 10 ** 400}, i=0)
@example(obj={"from": "a", "class": 1}, i=3)
@example(obj={**LINK, "to": None}, i=0)
@example(obj={**LINK, "weight": 1.5, "sign": 1}, i=0)
@example(obj=["a", "b", 1], i=0)
def test_link_parser_follows_the_field_table(obj, i):
    try:
        expected = reference_link(obj, i)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _parse_link(obj, i)
        assert str(got.value) == str(exc)
    else:
        # repr tells 1 from 1.0 and True, -0.0 from 0.0, and shows nan
        assert repr(_parse_link(obj, i)) == repr(expected)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


conv_texts = st.sampled_from(["bilateral", "multilateral:1",
                              "multilateral:2", "multilateral:9",
                              "multilateral:x", "ring"])
small_ints = st.integers(-2, 4)
# ordinary points and the float edges, where a transform or its
# truncation may overflow (--omega=v, so that -1e4 is no option name)
omegas = params | st.sampled_from(
    [s * w for s in (1, -1) for w in (1e4, 1e6, 1e12, 1e15, 1e308)])
dist_args = st.tuples(
    st.sampled_from(["laplace", "normal", "uniform", "gamma", "exponential",
                     "cauchy"]).map(lambda d: ["--dist", d]),
    _opt("--scale", params), _opt("--sigma", params),
    _opt("--half-width", params), _opt("--shape", params),
).map(lambda parts: sum(parts, []))


def _commands(path):
    market = ["--market", path]
    return st.one_of(
        st.tuples(st.just(["analyze"] + market), _opt("--convention",
                  conv_texts), _opt("--format", st.sampled_from(
                      ["json", "table", "csv"]))),
        st.tuples(st.sampled_from(["compare-netting", "advantage"]).map(
            lambda c: [c] + market), _opt("--class", small_ints)),
        st.tuples(st.just(["mc-check"] + market),
                  _opt("--convention", conv_texts),
                  _opt("--samples", st.integers(-1, 30)),
                  _opt("--seed", st.integers(-3, 2**70))),
        st.tuples(st.just(["advantage-table"]), dist_args,
                  _opt("--kmax", st.integers(-1, 2))),
        st.tuples(st.just(["hilbert-eval"]), dist_args,
                  _opt("--power", small_ints),
                  st.one_of(st.just([]), omegas.map(
                      lambda v: [f"--omega={v}"])),
                  _opt("--side", st.sampled_from(["pos", "neg", "mid"])),
                  _opt("--method", st.sampled_from(
                      ["auto", "residue", "dawson", "onesided",
                       "closed-form", "pv"]))),
        st.lists(st.text(max_size=6), max_size=4).map(lambda a: (a,)),
    ).map(lambda parts: sum(parts, []))


tols = st.sampled_from([[], ["--tol", "1e-5"], ["--tol", "0"],
                        ["--tol", "-1"], ["--tol", "nan"], ["--tol", "inf"],
                        ["--tol", "x"]])


@settings(max_examples=200, deadline=None)
@given(market=st.one_of(valid_markets(), markets, json_values),
       data=st.data())
def test_cli_exits_with_a_code_for_any_input(market, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "market.json"
        path.write_text(json.dumps(market))
        argv = data.draw(tols) + data.draw(_commands(str(path)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors and --help
                code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())


@st.composite
def hilbert_commands(draw):
    """Well-formed hilbert-eval command lines: every one gets past the
    argument checks, so the draws reach the transforms."""
    law = draw(st.sampled_from(list(LAWS)))
    argv = ["hilbert-eval", "--dist", law]
    for name in LAWS[law]._fields:
        argv.append(f"--{name.replace('_', '-')}="
                    f"{draw(st.floats(1e-3, 1e3))!r}")
    power = draw(st.integers(1, 4))
    # left out: a forced pv on one uniform factor, with or without a side,
    # takes 0.7-2.4 s per call (its c.f. decays only like 1/t)
    slow = law == "uniform" and power == 1
    method = draw(st.sampled_from(
        ["auto", *(r for r in ROUTES if not (slow and r == "pv"))]))
    side = draw(st.sampled_from([[], ["--side", "pos"], ["--side", "neg"]]))
    omega = draw(st.floats(-1e6, 1e6))
    return argv + [f"--power={power}", "--method", method, *side,
                   f"--omega={omega!r}"]


@settings(max_examples=150, deadline=None)
@given(argv=hilbert_commands())
def test_well_formed_hilbert_eval_prints_a_result_or_one_reason(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # only a forced route that does not fit the c.f. is invalid input
    assert code in ((0, 2) if "auto" in argv else (0, 1, 2)), argv
    lines = (out if code == 0 else err).getvalue().splitlines()
    assert len(lines) == (3 if code == 0 else 1), (argv, lines)
    assert (err if code == 0 else out).getvalue() == "", argv


@pytest.mark.parametrize("omega", ["1e12", "-1e12", "1e15", "-1e15",
                                   "1e308", "-1e308"])
def test_hilbert_eval_at_the_float_edges_prints_a_result_or_one_reason(
        omega):
    # every law, side, route and power: random draws rarely get past the
    # argument checks to these points
    for law, side, method, power in itertools.product(
            LAWS, ([], ["--side", "pos"], ["--side", "neg"]),
            ("auto", *ROUTES), ("1", "3")):
        argv = ["hilbert-eval", "--dist", law, f"--omega={omega}",
                "--method", method, "--power", power, *side]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        lines = (out if code == 0 else err).getvalue().splitlines()
        assert len(lines) == (3 if code == 0 else 1), (argv, lines)
        assert (err if code == 0 else out).getvalue() == "", argv


def _finite_result_or_one_reason(argv):
    """Exit 0 with a finite printed value, or exit 2 with one line; any
    warning is an error here."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    lines = (out if code == 0 else err).getvalue().splitlines()
    assert len(lines) == (3 if code == 0 else 1), (argv, lines)
    assert (err if code == 0 else out).getvalue() == "", argv
    if code == 0:
        printed = lines[0].split(" = ")[1]
        assert cmath.isfinite(complex(printed.replace("i", "j"))), argv


@pytest.mark.parametrize("args", [
    # the scaled constant (4i)^512 left the float range before the residue
    # tier took the unit constant i^512
    ["--shape", "512", "--scale", "0.25", "--omega", "0"],
    # (1 - 65536i)^-64 lies below the float range: 0, not nan
    ["--shape", "64", "--scale", "256", "--method", "onesided",
     "--omega", "256"],
])
def test_extreme_gamma_laws_print_a_result_or_one_reason(args):
    _finite_result_or_one_reason(["hilbert-eval", "--dist", "gamma", *args])


def test_gamma_shape_scale_edges_print_a_result_or_one_reason():
    # a non-integer shape, and integer shapes whose scaled rational
    # constant b^-shape would lie far outside the float range on either
    # side of unit scale; at power 2 the product multiplies two of them
    for shape, scale, omega, method, power in itertools.product(
            ("0.5", "3", "64", "512"), ("1e-3", "0.25", "256", "1e3"),
            ("0", "256"), ("auto", "onesided"), ("1", "2")):
        _finite_result_or_one_reason([
            "hilbert-eval", "--dist", "gamma", "--shape", shape,
            "--scale", scale, f"--omega={omega}", "--method", method,
            "--power", power])


EDGE_LAWS = {"laplace": ["--scale"], "normal": ["--sigma"],
             "uniform": ["--half-width"], "gamma": ["--shape", "3", "--scale"],
             "exponential": ["--scale"]}


def _run(argv):
    """(exit code, stdout lines, stderr lines) of an in-process main;
    any warning is an error here, and a traceback fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue().splitlines()


@pytest.mark.parametrize("law", EDGE_LAWS)
def test_edge_grid_answers_as_the_unit_law_at_scale_times_omega(law):
    # by the dilation rule H{phi(b .)}(w) = H{phi}(b w), the law at scale b
    # prints what the unit law prints at b * omega (the same float in both
    # runs), or it refuses in one line; Laplace and normal laws always
    # answer, and the rational laws at powers 1 and 3 match the exact
    # oracle (higher powers at these non-dyadic scales take it minutes)
    for scale, power, side, omega in itertools.product(
            ("1e-300", "1e-3", "1", "1e3", "1e300"), (1, 3, 100, 1000),
            ([], ["--side", "pos"], ["--side", "neg"]),
            ("-1e3", "-1", "-1e-3", "1e-3", "1", "1e3")):
        head = ["hilbert-eval", "--dist", law, *EDGE_LAWS[law]]
        tail = ["--power", str(power), *side]
        argv = head + [scale, f"--omega={omega}", *tail]
        code, out, err = _run(argv)
        assert (code, len(out), len(err)) in ((0, 3, 0), (2, 0, 1)), argv
        w = float(scale) * float(omega)
        if scale != "1":
            unit = _run(head + ["1", f"--omega={w!r}", *tail])
            assert unit[0] == code, (argv, err)
            if code == 0:
                assert unit[1][1:] == out[1:], argv
                assert unit[1][0].split(" = ")[1] == out[0].split(" = ")[1]
        if law in ("laplace", "normal"):
            assert code == 0, (argv, err)
        if code == 0 and law not in ("normal", "uniform") and power < 100:
            value = complex(out[0].split(" = ")[1].replace("i", "j"))
            error = float(out[2].split(": ")[1])
            exact = exact_value(
                "laplace" if law == "laplace" else "gamma", float(scale),
                float(omega), power=power, shape=3 if law == "gamma" else 1,
                side=side[1] if side else None)
            assert abs(value - exact) <= error + 1e-11 * abs(exact), argv
