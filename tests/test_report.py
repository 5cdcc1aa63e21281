"""Rendered exposure reports against the JSON encoder.

``format_report(report, "json")`` writes the text directly; the dict view
below is the layout it must reproduce byte for byte, as
``json.dumps(report_dict(report), indent=2)``.
"""

import json
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from netexposure import (
    Bilateral,
    ExposureReport,
    LaplaceSym,
    Market,
    Multilateral,
    NormalSym,
    SetExposure,
    UniformSym,
    expected_market,
)
from netexposure.io import format_report
from test_market import random_custom, shaped_markets


def report_dict(report) -> dict:
    """ExposureReport as a JSON-ready dict, method provenance included."""
    return {
        "convention": report.convention,
        "market_total": report.market_total,
        "market_total_exact": (str(report.market_total_exact)
                               if report.market_total_exact is not None
                               else None),
        "per_participant": dict(sorted(report.per_participant.items())),
        "components": report.components,
        "pairs": {f"{a}~{b}": value
                  for (a, b), value in sorted(report.pair_view.items())},
        "netting_sets": [
            {
                "owner": e.owner,
                "kind": e.kind,
                "links": list(e.links),
                "expected_exposure": e.value,
                "method": e.method,
                "error_estimate": e.error,
                "exact": str(e.exact) if e.exact is not None else None,
            }
            for e in report.per_netting_set
        ],
    }


def _report(sets, per_participant=None, total=0.0, exact=None,
            components=None, pairs=None) -> ExposureReport:
    return ExposureReport("custom", tuple(sets), per_participant or {},
                          total, exact, components or {}, pairs or {})


def _assert_json_layout(report):
    text = format_report(report, "json")
    assert text == json.dumps(report_dict(report), indent=2)
    return text


def test_report_without_sets():
    report = _report([], {"b": 0.0, "a": 1.5}, 1.5, Fraction(3, 2),
                     {"bilateral": 1.5}, {("a", "b"): 1.5})
    assert '"netting_sets": []' in _assert_json_layout(report)
    assert '"per_participant": {}' in _assert_json_layout(_report([]))


def test_set_with_empty_links():
    e = SetExposure("a", "custom", (), 0.0, "closed-form", 0.0, Fraction(0))
    assert '"links": [],' in _assert_json_layout(_report([e], {"a": 0.0}))


def test_zero_and_negative_zero_sharing_method_and_error():
    error, method = 0.0, "numeric"
    sets = [SetExposure("a", "k", (0,), 0.0, method, error, None),
            SetExposure("a", "k", (1,), -0.0, method, error, None),
            SetExposure("b", "k", (2,), 0.0, method, error, None)]
    text = _assert_json_layout(_report(sets, {"a": 0.0, "b": -0.0}))
    assert text.count('"expected_exposure": -0.0,') == 1
    rows = format_report(_report(sets), "table").splitlines()[3:6]
    assert [row.split()[3] for row in rows] == ["0.00000000", "-0.00000000",
                                               "0.00000000"]


def test_non_finite_errors_keep_json_spelling():
    sets = [SetExposure("a", "k", (0,), 1.0, "numeric", math.nan, None),
            SetExposure("a", "k", (1,), 1.0, "numeric", math.inf, None),
            SetExposure("a", "k", (2,), math.inf, "numeric", -math.inf,
                        None)]
    text = _assert_json_layout(_report(sets, {"a": math.nan}, math.nan))
    for spelling in ("NaN", "Infinity", "-Infinity"):
        assert f'"error_estimate": {spelling}' in text


def test_escapes_match_the_encoder():
    names = ["Zürich", "東京", 'q"\\\n\t', "\U0001f642"]
    sets = [SetExposure(v, f"bilateral:{w}", (i,), 0.5, "closed-form", 0.0,
                        Fraction(1, 2))
            for i, (v, w) in enumerate(zip(names, names[1:]))]
    text = _assert_json_layout(_report(
        sets, {v: 0.5 for v in names}, pairs={(names[0], names[1]): 0.5}))
    assert text.isascii() and "\\ud83d\\ude42" in text


@st.composite
def renamed_markets(draw):
    """Shaped markets whose participants carry arbitrary text ids ("~"
    excluded: it joins the two ids of a pair key)."""
    m = draw(shaped_markets())
    names = draw(st.lists(st.text(st.characters(blacklist_characters="~"),
                                  min_size=1, max_size=4),
                          min_size=len(m.participants),
                          max_size=len(m.participants), unique=True))
    rename = dict(zip(m.participants, names))
    links = tuple(a._replace(source=rename[a.source],
                             target=rename[a.target]) for a in m.links)
    return Market(tuple(names), m.n_classes, links)


@settings(max_examples=100, deadline=None)
@given(renamed_markets(), st.randoms(use_true_random=False),
       st.sampled_from([LaplaceSym(1.5), UniformSym(0.5), NormalSym(1.0)]))
def test_json_report_is_the_indented_dump_of_its_dict_view(m, rng, dist):
    conventions = [Bilateral(), random_custom(m, rng),
                   *(Multilateral(c) for c in range(1, m.n_classes + 1))]
    for convention in conventions:
        report = expected_market(m, dist, convention)
        text = format_report(report, "json")
        assert json.dumps(json.loads(text), indent=2) == text
        assert json.loads(text) == report_dict(report)
