"""Market-file round trips, diagnostics, and the command-line surface."""

import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from netexposure import (
    Bilateral,
    Custom,
    Exponential,
    Gamma,
    LaplaceSym,
    Multilateral,
    NormalSym,
    UniformSym,
    charfn_of,
    hilbert_deriv_at_zero,
    hilbert_eval,
    netting_set_cf,
    netting_sets,
    parse_market,
    pos_abs_cf,
    serialize_market,
)
from netexposure.transforms import ToleranceError
from netexposure.cli import main
from netexposure.io import MarketFile, ParseError, write_market
from conftest import (
    complete_market,
    illustrative_market,
    path_market,
    triangle_directed,
    two_tier,
    two_vertex_market,
)


def market_file(tmp_path, market, convention=None, dist=None,
                name="market.json"):
    path = tmp_path / name
    write_market(MarketFile(market, convention, dist), path)
    return path


# ---------------------------------------------------------------------------
# Parsing and serialisation
# ---------------------------------------------------------------------------

def test_round_trip_identity(tmp_path):
    cases = [
        MarketFile(illustrative_market(), Multilateral(1), LaplaceSym(1.0)),
        MarketFile(two_tier(True), Bilateral(), NormalSym(0.5)),
        MarketFile(two_vertex_market(2),
                   Custom(sets=(("v", (0, 1)), ("w", (0,)), ("w", (1,)))),
                   UniformSym(2.0)),
    ]
    for mf in cases:
        path = tmp_path / "roundtrip.json"
        write_market(mf, path)
        again = parse_market(path)
        assert again == mf
        assert serialize_market(again) == serialize_market(mf)


def test_weights_survive_round_trip(tmp_path):
    import dataclasses

    m = two_vertex_market(1)
    m = dataclasses.replace(
        m, links=(dataclasses.replace(m.links[0], weight=2.5),))
    path = market_file(tmp_path, m)
    assert parse_market(path).market.links[0].weight == 2.5


def test_malformed_json_reports_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError, match="malformed"):
        parse_market(path)


def test_unknown_class_is_validation_error(tmp_path):
    path = tmp_path / "badclass.json"
    path.write_text(json.dumps({
        "participants": ["a", "b"], "classes": 2,
        "links": [{"from": "a", "to": "b", "class": 3, "directed": False}],
    }))
    from netexposure import MarketError

    with pytest.raises(MarketError, match="unknown class 3"):
        parse_market(path)


def test_missing_field_diagnostic_carries_json_path(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({
        "participants": ["a", "b"], "classes": 1,
        "links": [{"from": "a", "class": 1}],
    }))
    with pytest.raises(ParseError, match=r"\$\.links\[0\]\.to"):
        parse_market(path)


def test_unknown_distribution_rejected(tmp_path):
    path = tmp_path / "baddist.json"
    path.write_text(json.dumps({
        "participants": ["a", "b"], "classes": 1, "links": [],
        "dist": {"type": "cauchy"},
    }))
    with pytest.raises(ParseError, match="unknown distribution"):
        parse_market(path)


def _path_market_json() -> dict:
    """a -> b -> c, Laplace, pooled class 1: total 3/2."""
    return {"participants": ["a", "b", "c"], "classes": 1,
            "links": [{"from": "a", "to": "b", "class": 1, "directed": True},
                      {"from": "b", "to": "c", "class": 1, "directed": True}],
            "convention": {"type": "multilateral", "class": 1},
            "dist": {"type": "laplace", "scale": 1.0}}


def _rename(obj: dict, old: str, new: str) -> None:
    obj[new] = obj.pop(old)


@pytest.mark.parametrize("typo, where", [
    (lambda d: [_rename(link, "directed", "directd") for link in d["links"]],
     "$.links[0].directd"),
    (lambda d: _rename(d, "convention", "conventoin"), "$.conventoin"),
    (lambda d: _rename(d["convention"], "class", "clas"),
     "$.convention.clas"),
    (lambda d: _rename(d, "links", "link"), "$.link"),
    (lambda d: d["links"][1].update(note="x"), "$.links[1].note"),
    (lambda d: d.update(convention={"type": "bilateral", "class": 1}),
     "$.convention.class"),
    (lambda d: d.update(convention={"type": "custom", "set": []}),
     "$.convention.set"),
    (lambda d: d.update(convention={"type": "custom", "sets": [
        {"owner": "a", "links": [0], "link": [1]}]}),
     "$.convention.sets[0].link"),
], ids=["link", "top-level", "multilateral", "links", "extra-link-key",
        "bilateral", "custom", "custom-block"])
def test_unknown_market_keys_exit_one(tmp_path, capsys, typo, where):
    path = tmp_path / "typo.json"
    data = _path_market_json()
    path.write_text(json.dumps(data))
    assert main(["analyze", "--market", str(path)]) == 0
    assert "(= 3/2)" in capsys.readouterr().out
    typo(data)
    path.write_text(json.dumps(data))
    assert main(["analyze", "--market", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {where}: unknown key (allowed: ")
    assert captured.out == ""


def test_empty_links_market_is_valid(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({
        "participants": ["a", "b"], "classes": 1, "links": [],
        "dist": {"type": "laplace", "scale": 1.0},
    }))
    mf = parse_market(path)
    assert mf.market.links == ()
    from netexposure import expected_bilateral_market

    assert expected_bilateral_market(mf.market,
                                     LaplaceSym(1.0)).market_total == 0.0


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def test_analyze_reproduces_illustrative_value(tmp_path, capsys):
    path = market_file(tmp_path, illustrative_market(), Multilateral(1),
                       LaplaceSym(1.0))
    assert main(["analyze", "--market", str(path)]) == 0
    out = capsys.readouterr().out
    assert "95/16" in out
    assert "5.93750000" in out


def test_analyze_json_format(tmp_path, capsys):
    path = market_file(tmp_path, illustrative_market(), Multilateral(1),
                       LaplaceSym(1.0))
    assert main(["analyze", "--market", str(path),
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["market_total"] == pytest.approx(95 / 16)
    assert data["market_total_exact"] == "95/16"
    methods = {s["method"] for s in data["netting_sets"]}
    assert methods == {"closed-form"}
    assert all("error_estimate" in s for s in data["netting_sets"])


def test_analyze_convention_override(tmp_path, capsys):
    path = market_file(tmp_path, two_tier(False), None, LaplaceSym(1.0))
    assert main(["analyze", "--market", str(path),
                 "--convention", "multilateral:1"]) == 0
    assert "8.87500000" in capsys.readouterr().out


def test_compare_netting_verdict(tmp_path, capsys):
    path = market_file(tmp_path, two_tier(False), None, LaplaceSym(1.0))
    assert main(["compare-netting", "--market", str(path),
                 "--class", "1"]) == 0
    out = capsys.readouterr().out
    assert "not advantageous" in out
    assert "7.50000000" in out and "8.87500000" in out


def test_advantage_table_row(capsys):
    assert main(["advantage-table", "--dist", "laplace",
                 "--kmax", "10"]) == 0
    out = capsys.readouterr().out
    ns = [int(line.split()[1]) for line in out.splitlines()[1:] if line]
    assert ns == [2, 6, 10, 14, 18, 22, 26, 30, 34, 38]


def test_mc_check_runs(tmp_path, capsys):
    path = market_file(tmp_path, two_tier(True), Bilateral(),
                       LaplaceSym(1.0))
    assert main(["mc-check", "--market", str(path),
                 "--samples", "20000", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "max |z|" in out


def test_hilbert_eval_residue(capsys):
    assert main(["hilbert-eval", "--dist", "laplace", "--power", "1",
                 "--omega", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "method: residue" in out
    assert "+0.5" in out


def test_hilbert_eval_forced_pv(capsys):
    assert main(["--tol", "1e-8", "hilbert-eval", "--dist", "normal",
                 "--power", "2", "--omega", "0.5",
                 "--method", "pv"]) == 0
    out = capsys.readouterr().out
    assert "method: pv" in out


def test_hilbert_eval_forced_closed_form(capsys):
    assert main(["--tol", "1e-13", "hilbert-eval", "--dist", "uniform",
                 "--omega", "1", "--method", "closed-form"]) == 0
    assert capsys.readouterr().out == ("H{phi^1}(1) = +0.459697694132+0i\n"
                                       "method: closed-form\n"
                                       "error estimate: 0.00e+00\n")
    for omega in ("1", "0"):
        assert main(["hilbert-eval", "--dist", "laplace", "--omega", omega,
                     "--method", "closed-form"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "no closed-form transform" in err


def test_missing_file_exits_one(capsys):
    assert main(["analyze", "--market", "/nonexistent.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_invalid_market_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "participants": ["a"], "classes": 1,
        "links": [{"from": "a", "to": "a", "class": 1, "directed": False}],
        "dist": {"type": "laplace"},
    }))
    assert main(["analyze", "--market", str(path)]) == 1
    assert "self-link" in capsys.readouterr().err


def test_numeric_failure_exits_two(monkeypatch, capsys):
    import netexposure.transforms as transforms

    monkeypatch.setattr(transforms, "_PV_MAX_PANELS", 20)
    code = main(["--tol", "1e-10", "hilbert-eval", "--dist", "uniform",
                 "--power", "1", "--omega", "1.0", "--method", "pv"])
    assert code == 2
    assert "numeric failure" in capsys.readouterr().err


def test_abs_mean_stall_raises_tolerance_error(monkeypatch):
    # E|Y| of an unbalanced normal set by quadrature of its c.f., capped
    # well below the panels that tol 1e-13 needs (market sets take the
    # cosine series instead)
    import netexposure.transforms as transforms

    monkeypatch.setattr(transforms, "_PV_MAX_PANELS", 200)
    parsed = parse_market(Path(__file__).parent / "data" / "golden"
                          / "normal-5.json")
    m = parsed.market
    unbalanced = [s for sets in netting_sets(m, Bilateral()).values()
                  for s in sets if s.signs.count(1) != s.signs.count(-1)
                  and s.signs.count(-1)]
    f = netting_set_cf(m, unbalanced[0], parsed.dist)
    with pytest.raises(ToleranceError, match="quadrature stalled"):
        hilbert_deriv_at_zero(f, 1e-13)


def test_tight_tol_on_a_normal_market_takes_no_quadrature(monkeypatch,
                                                          capsys):
    # below the series' rounding floor (about 9e-13 per unit sigma here)
    # the analysis stops at once, with no adaptive panel; above it, it
    # answers
    import netexposure.transforms as tr

    panels = []
    integrals = tr._panel_integrals

    def counting(g, lo, hi):
        panels.append(lo.size)
        return integrals(g, lo, hi)

    monkeypatch.setattr(tr, "_panel_integrals", counting)
    market = Path(__file__).parent / "data" / "golden" / "normal-5.json"
    assert main(["--tol", "1e-13", "analyze", "--market", str(market)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rounding floor" in captured.err
    assert main(["--tol", "1e-11", "analyze", "--market", str(market)]) == 0
    assert panels == []


def test_missing_dist_in_file_exits_one(tmp_path, capsys):
    path = market_file(tmp_path, two_vertex_market(1), Bilateral(), None)
    assert main(["analyze", "--market", str(path)]) == 1
    assert "dist" in capsys.readouterr().err


def test_write_report_renders_both_formats(tmp_path):
    from netexposure import expected_multilateral_market
    from netexposure.io import format_report, write_report

    report = expected_multilateral_market(illustrative_market(),
                                          LaplaceSym(1.0), ccp_class=1)
    table = format_report(report, "table")
    assert "95/16" in table and "multilateral:1" in table
    out = tmp_path / "report.json"
    write_report(report, out, fmt="json")
    data = json.loads(out.read_text())
    assert data["market_total_exact"] == "95/16"
    with pytest.raises(ValueError, match="format"):
        format_report(report, "xml")


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_nonpositive_tol_exits_one(tmp_path, capsys, tol):
    path = market_file(tmp_path, two_tier(True), Bilateral(),
                       NormalSym(1.0))
    assert main(["--tol", tol, "analyze", "--market", str(path)]) == 1
    assert "--tol must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "1", "-5"])
def test_mc_check_needs_two_samples(tmp_path, capsys, samples):
    path = market_file(tmp_path, two_tier(True), Bilateral(),
                       LaplaceSym(1.0))
    assert main(["mc-check", "--market", str(path),
                 "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert "--samples must be at least 2" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("index", [5, -1])
def test_custom_link_index_out_of_range_exits_one(tmp_path, capsys, index):
    path = tmp_path / "badindex.json"
    path.write_text(json.dumps({
        "participants": ["a", "b"], "classes": 1,
        "links": [{"from": "a", "to": "b", "class": 1, "directed": False}],
        "convention": {"type": "custom",
                       "sets": [{"owner": "a", "links": [0]},
                                {"owner": "b", "links": [index]}]},
        "dist": {"type": "laplace", "scale": 1.0},
    }))
    assert main(["analyze", "--market", str(path)]) == 1
    captured = capsys.readouterr()
    assert f"link {index} in a netting set of 'b'" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("power", ["0", "-2"])
def test_hilbert_eval_power_below_one_exits_one(capsys, power):
    assert main(["hilbert-eval", "--dist", "laplace", "--power", power,
                 "--omega", "1.0"]) == 1
    captured = capsys.readouterr()
    assert "--power must be at least 1" in captured.err
    assert "decay" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("power", ["1001", "100000000", "10000000000"])
def test_hilbert_eval_power_above_1000_exits_one(capsys, power):
    # these ran for minutes, or ended in a MemoryError, before the cap
    assert main(["hilbert-eval", "--dist", "normal", "--power", power,
                 "--omega", "1.0"]) == 1
    assert capsys.readouterr() == (
        "", f"error: --power must be at most 1000, got {power}\n")


def hilbert_cli(capsys, *argv) -> tuple[str, str, float]:
    """The value as printed, the method and the error estimate of one
    successful hilbert-eval run."""
    assert main(["hilbert-eval", *argv]) == 0
    value, method, error = capsys.readouterr().out.splitlines()
    return (value.split(" = ")[1], method.removeprefix("method: "),
            float(error.removeprefix("error estimate: ")))


def as_complex(printed: str) -> complex:
    return complex(printed.replace("i", "j"))


@pytest.mark.parametrize("law", ["normal", "uniform", "laplace"])
def test_hilbert_eval_takes_power_1000(capsys, law):
    argv = ["--dist", law, "--power", "1000", "--omega", "1"]
    value, method, _ = hilbert_cli(capsys, *argv)
    if law == "laplace":
        # the residue tier answers, within the principal value's estimate
        pv, _, error = hilbert_cli(capsys, *argv, "--method", "pv")
        assert method == "residue"
        assert abs(as_complex(value) - as_complex(pv)) <= error


@pytest.mark.parametrize("omega", ["-0.35", "1", "1e3"])
@pytest.mark.parametrize("power", ["1", "3", "100", "515", "1000"])
def test_hilbert_eval_of_an_even_cf_is_real(capsys, power, omega):
    # the transform of a real function is real, whatever the rounding of
    # the residue sum
    value, method, _ = hilbert_cli(capsys, "--dist", "laplace", "--power",
                                   power, "--omega", omega)
    assert (method, value[-3:]) == ("residue", "+0i")


@pytest.mark.parametrize("exc, reason", [
    (MemoryError(), "out of memory"),
    (MemoryError("cannot allocate 80 GB"), "cannot allocate 80 GB")])
def test_memory_error_names_a_reason(monkeypatch, capsys, exc, reason):
    import netexposure.transforms as transforms

    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(transforms, "hilbert_eval", exhausted)
    assert main(["hilbert-eval", "--dist", "normal", "--omega", "1"]) == 2
    assert capsys.readouterr() == ("", f"numeric failure: {reason}\n")


def test_help_states_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert ("exit codes: 0 ok, 1 invalid input, 2 numeric failure"
            in capsys.readouterr().out)


def test_readme_lists_the_hilbert_eval_methods(capsys):
    # the README's CLI synopsis names the parser's subcommands, and its
    # hilbert-eval line the parser's --method choices
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    documented = re.search(r"netexposure hilbert-eval .*\n"
                           r"\s*\[--method ([\w|-]+)\]", readme)
    with pytest.raises(SystemExit):
        main(["hilbert-eval", "--help"])
    parsed = re.search(r"--method \{([^}]*)\}", capsys.readouterr().out)
    assert documented and parsed
    assert documented.group(1).split("|") == parsed.group(1).split(",")
    synopsis = readme.split("## Command line", 1)[1].split("```")[1]
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out)
    assert re.findall(r"^netexposure ([\w-]+)", synopsis, re.M) == (
        commands.group(1).split(","))


@pytest.mark.parametrize("argv", [
    ["--tol", "inf", "hilbert-eval", "--dist", "laplace", "--omega", "1"],
    ["hilbert-eval", "--dist", "laplace", "--omega", "nan"],
    ["hilbert-eval", "--dist", "uniform", "--omega=-inf"],
    ["advantage-table", "--dist", "gamma", "--shape", "inf"],
    ["advantage-table", "--dist", "laplace", "--scale", "inf"],
])
def test_non_finite_numbers_exit_one(capsys, argv):
    assert main(argv) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("data, where", [
    (None, r"\$: expected an object"),
    ([], r"\$: expected an object"),
    ({"participants": ["a", "b"], "classes": 1, "links": [["a", "b", 1]]},
     r"\$\.links\[0\]: expected an object"),
    ({"participants": ["a", "b"], "classes": 1,
      "links": [{"from": "a", "to": "b", "class": 1, "directed": "yes"}]},
     r"\$\.links\[0\]\.directed: expected bool"),
    ({"participants": ["a", "b"], "classes": 1,
      "links": [{"from": "a", "to": "b", "class": 1, "weight": True}]},
     r"\$\.links\[0\]\.weight: expected float"),
    ({"participants": ["a"], "classes": 1, "links": [],
      "dist": ["laplace"]}, r"\$\.dist: expected an object"),
    ({"participants": ["a"], "classes": 1, "links": [],
      "dist": {"type": "laplace", "scale": "2"}},
     r"\$\.dist\.scale: expected float"),
    ({"participants": ["a"], "classes": 1, "links": [],
      "convention": "bilateral"}, r"\$\.convention: expected an object"),
    ({"participants": ["a"], "classes": 1, "links": [],
      "convention": {"type": "custom", "sets": [["a", [0]]]}},
     r"\$\.convention\.sets\[0\]: expected an object"),
    ({"participants": ["a"], "classes": 1, "links": [],
      "convention": {"type": "custom",
                     "sets": [{"owner": "a", "links": ["0"]}]}},
     r"\$\.convention\.sets\[0\]\.links: expected integer"),
])
def test_malformed_fields_raise_parse_errors(data, where):
    from netexposure.io import parse_market_data

    with pytest.raises(ParseError, match=where):
        parse_market_data(data)


@pytest.mark.parametrize("dist, message", [
    ({"type": "normal", "scale": 50},
     "$.dist.scale: unknown parameter of normal (sigma)"),
    ({"type": "gamma", "shape": 2, "scale": 1, "sigma": 1},
     "$.dist.sigma: unknown parameter of gamma (shape, scale)"),
], ids=["normal", "gamma"])
def test_unknown_dist_parameter_is_rejected(tmp_path, capsys, dist, message):
    from netexposure.io import parse_market_data

    data = {"participants": ["a", "b"], "classes": 1,
            "links": [{"from": "a", "to": "b", "class": 1}], "dist": dist}
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        parse_market_data(data)
    path = tmp_path / "market.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--market", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_null_dist_parameter_takes_the_default():
    from netexposure.io import parse_market_data

    mf = parse_market_data({"participants": ["a"], "classes": 1,
                            "links": [], "dist": {"type": "normal",
                                                  "sigma": None}})
    assert mf.dist == NormalSym(1.0)


@pytest.mark.parametrize("content", [None, b"\xff\xfe{"])
def test_unreadable_market_file_exits_one(tmp_path, capsys, content):
    path = tmp_path / "market.json"
    if content is None:
        path.mkdir()  # a directory cannot be read as a file
    else:
        path.write_bytes(content)
    assert main(["analyze", "--market", str(path)]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_advantage_table_at_a_tiny_half_width(capsys):
    assert main(["advantage-table", "--dist", "uniform", "--kmax", "2"]) == 0
    unit = capsys.readouterr().out
    assert main(["advantage-table", "--dist", "uniform", "--half-width",
                 "1e-300", "--kmax", "2"]) == 0
    assert capsys.readouterr().out == unit


@pytest.mark.parametrize("dist", [NormalSym(1e12), UniformSym(1e12),
                                  UniformSym(1e150), UniformSym(1e300)])
def test_scale_beyond_the_tolerance_stops_at_the_rounding_floor(
        tmp_path, capsys, monkeypatch, dist):
    # E|Y| is about the law's scale, so an absolute tol of 1e-7 is below
    # its rounding error; the quadrature must say so, not refine for
    # seconds up to its panel cap
    import netexposure.transforms as tr

    panels = []
    integrals = tr._panel_integrals

    def counting(g, lo, hi):
        panels.append(lo.size)
        return integrals(g, lo, hi)

    monkeypatch.setattr(tr, "_panel_integrals", counting)
    m = triangle_directed()
    path = market_file(tmp_path, m, Multilateral(1), dist)
    if isinstance(dist, NormalSym):
        assert main(["analyze", "--market", str(path)]) == 2
        assert "rounding floor" in capsys.readouterr().err
    else:
        # uniform sets are exact at any half width; the quadrature they
        # no longer take still stops at its floor on the same c.f.
        assert main(["analyze", "--market", str(path)]) == 0
        total = 3 * Fraction(1, 6) * Fraction(dist.half_width)
        assert f"(= {total})" in capsys.readouterr().out
        s = netting_sets(m, Multilateral(1))[m.participants[0]][0]
        with pytest.raises(ToleranceError, match="rounding floor"):
            hilbert_deriv_at_zero(netting_set_cf(m, s, dist), 1e-7)
    assert sum(panels) < 10_000


@pytest.mark.parametrize("market, convention, dist", [
    (two_tier(True), Multilateral(1), NormalSym(1e300)),
    # undirected normal sets take the closed form, not the c.f.
    (two_tier(False), Bilateral(), NormalSym(1e160)),
])
def test_float_overflow_is_a_numeric_failure(tmp_path, capsys, market,
                                             convention, dist):
    path = market_file(tmp_path, market, convention, dist)
    assert main(["analyze", "--market", str(path)]) == 2
    assert ("numeric failure: the variance of NormalSym"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, message", [
    (["--scale", "1e-300"], "the variance of LaplaceSym"),
    (["--scale", "1e150", "--power", "3"], "residue sum outside"),
    (["--scale", "1e-150", "--power", "3"], "residue sum outside"),
])
def test_float_underflow_is_a_numeric_failure(capsys, argv, message):
    assert main(["hilbert-eval", "--dist", "laplace", "--omega", "1"]
                + argv) == 2
    assert f"numeric failure: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--dist", "uniform", "--half-width", "1e-12", "--method", "pv"],
    ["--dist", "laplace", "--scale", "1e-13", "--method", "pv"],
], ids=["uniform", "laplace-pv"])
def test_decay_beyond_the_truncation_limit_is_a_numeric_failure(capsys,
                                                                argv):
    # catalog c.f.s decay, but these only beyond _PV_TMAX
    assert main(["hilbert-eval", "--omega", "0.5"] + argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "numeric failure" in err and "_PV_TMAX = 1e+13" in err


@pytest.mark.parametrize("dist", ["normal", "laplace", "uniform", "gamma"])
def test_pv_beyond_the_truncation_limit_names_omega(capsys, dist):
    # refused before any sample, so no overflow warning leaks
    assert main(["hilbert-eval", "--dist", dist, "--omega", "1e308",
                 "--method", "pv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "numeric failure: |omega| = 1e+308 is beyond the truncation limit "
        "_PV_TMAX = 1e+13"]


def test_closed_stdout_exits_one_without_a_traceback():
    # as `analyze ... | head -1` does, but the reader is gone before the
    # command writes
    read_end, write_end = os.pipe()
    os.close(read_end)
    market = Path(__file__).parent / "data" / "golden" / "laplace-12.json"
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "netexposure.cli", "analyze", "--market",
             str(market)], stdout=write_end, stderr=subprocess.PIPE,
            env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("market, dist", [
    (complete_market(10, 3), LaplaceSym(1.7e308)),
    (triangle_directed(), LaplaceSym(1.7e308)),
    (complete_market(10, 3), UniformSym(1.7e308)),
], ids=["undirected-laplace", "directed-laplace", "uniform"])
@pytest.mark.parametrize("command", [
    ["analyze", "--convention", "bilateral"],
    ["analyze", "--convention", "multilateral:1"],
    ["compare-netting", "--class", "1"],
], ids=" ".join)
def test_exposure_beyond_the_float_range_is_a_numeric_failure(
        tmp_path, capsys, market, dist, command):
    # the exact values are finite Fractions, but a set value or the
    # market total does not fit in a float
    path = market_file(tmp_path, market, None, dist)
    assert main(command[:1] + ["--market", str(path)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("numeric failure: exposure outside the "
                            "floating-point range\n")
    assert "inf" not in captured.out


@pytest.mark.parametrize("dist, message", [
    # every squared draw underflows, so the sample shows no spread
    (UniformSym(1e-300), "standard error is 0,"),
    # every squared draw overflows
    (LaplaceSym(1e300), "standard error is inf,"),
    # the exact totals fit in a float, but the draws' range does not
    (UniformSym(1.7e308), "overflows a float"),
])
def test_mc_check_beyond_the_float_range_is_a_numeric_failure(
        tmp_path, capsys, dist, message):
    path = market_file(tmp_path, triangle_directed(), None, dist)
    assert main(["mc-check", "--market", str(path), "--samples", "50",
                 "--convention", "multilateral:1"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, reason", [
    (["hilbert-eval", "--dist", "laplace", "--scale", "1e-150", "--power",
      "3", "--omega", "1"], "residue sum outside the floating-point range"),
    (["mc-check", "--samples", "50", "--convention", "multilateral:1"],
     "the Monte Carlo standard error is inf, so the z-score is undefined"),
], ids=["residue", "mc-stderr"])
def test_float_overflow_prints_only_the_reason(tmp_path, capsys, argv,
                                               reason):
    if argv[0] == "mc-check":
        path = market_file(tmp_path, triangle_directed(), None,
                           LaplaceSym(1e300))
        argv = argv + ["--market", str(path)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err == f"numeric failure: {reason}\n"
    assert captured.out == ""


@pytest.mark.parametrize("dist", [
    LaplaceSym(1e307), LaplaceSym(1e308), LaplaceSym(1.5e308),
    UniformSym(5e307), UniformSym(8e307)], ids=repr)
@pytest.mark.parametrize("convention", ["bilateral", "multilateral:1"])
def test_mc_check_at_extreme_scales_prints_one_reason(tmp_path, capsys, dist,
                                                      convention):
    # overflowing draws and their invalid sums warn nothing before the
    # reason line
    path = market_file(tmp_path, triangle_directed(), None, dist)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["mc-check", "--market", str(path), "--samples", "50",
                     "--convention", convention]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""


def test_unallocatable_sample_count_is_a_numeric_failure(tmp_path, capsys):
    # 8e15 bytes per draw vector exceed any user address space, so the
    # allocation fails at once
    path = market_file(tmp_path, triangle_directed(), None, LaplaceSym())
    assert main(["mc-check", "--market", str(path), "--samples",
                 "1000000000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("numeric failure: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""


@pytest.mark.parametrize("convention", ["multilateral:x", "multilateral:",
                                        "multilateral:1:2", "multilateral"])
def test_malformed_convention_exits_one(tmp_path, capsys, convention):
    path = market_file(tmp_path, triangle_directed(), None, LaplaceSym())
    assert main(["analyze", "--market", str(path), "--convention",
                 convention]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: unknown convention {convention!r} "
                            "(use bilateral or multilateral:<class>)\n")
    assert captured.out == ""


def test_mc_check_failure_on_a_later_set_prints_no_partial_table(
        tmp_path, capsys):
    # u's all-debt set passes with z = 0; v's claim then has a standard
    # error of 0, because every squared draw underflows
    path = market_file(tmp_path, path_market(), None, UniformSym(1e-300))
    assert main(["mc-check", "--market", str(path), "--samples", "50",
                 "--convention", "bilateral"]) == 2
    captured = capsys.readouterr()
    assert "standard error is 0," in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("dist", ["gamma", "exponential"])
def test_advantage_table_needs_a_two_sided_law(capsys, dist):
    assert main(["advantage-table", "--dist", dist, "--kmax", "3"]) == 1
    captured = capsys.readouterr()
    assert "needs a two-sided law" in captured.err
    assert captured.out == ""


def pooled_custom_market(tmp_path):
    """a->b, b->c, c->a in class 1 and a->b in class 2, each owner's
    links pooled into one custom set."""
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({
        "participants": ["a", "b", "c"], "classes": 2,
        "links": [{"from": "a", "to": "b", "class": 1, "directed": True},
                  {"from": "b", "to": "c", "class": 1, "directed": True},
                  {"from": "c", "to": "a", "class": 1, "directed": True},
                  {"from": "a", "to": "b", "class": 2, "directed": True}],
        "convention": {"type": "custom", "sets": [
            {"owner": "a", "links": [0, 2, 3]},
            {"owner": "b", "links": [0, 1, 3]},
            {"owner": "c", "links": [1, 2]}]},
        "dist": {"type": "laplace", "scale": 1.0}}))
    return path


def test_mc_check_under_a_custom_convention_checks_the_sets_only(
        tmp_path, capsys):
    # the oracle's bilateral total (4 here) is no reference for the
    # custom partition's analytic total (2)
    assert main(["mc-check", "--market", str(pooled_custom_market(tmp_path)),
                 "--samples", "20000", "--seed", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == ("market total: analytic 2.00000000 (no independent "
                         "Monte Carlo total for a custom partition)")
    set_z = [abs(float(line.split()[-1])) for line in lines[1:-2]]
    assert len(set_z) == 3
    assert lines[-1] == (f"max |z| = {max(set_z):.2f} over 20000 samples "
                         "(seed 1)")


@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["analyze", "--market", "m.json", "--format", "yaml"],
    ["hilbert-eval", "--dist", "bogus", "--omega", "1"],
    ["mc-check", "--market", "m.json", "--samples", "abc"],
    ["--tol", "x", "analyze", "--market", "m.json"],
    ["frobnicate"],
    [],
])
def test_usage_errors_exit_one(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "usage: netexposure" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("half_width", ["1e307", "1.7e308"])
@pytest.mark.parametrize("power", ["1", "3"])
def test_hilbert_eval_at_an_overflowing_uniform_width_prints_one_reason(
        capsys, half_width, power):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["hilbert-eval", "--dist", "uniform", "--half-width",
                     half_width, "--power", power, "--omega", "0.7",
                     "--method", "pv"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    width = float(half_width)
    assert captured.err == (f"numeric failure: half width {width:g} times t "
                            "leaves the floating-point range\n")
    assert captured.out == ""


# ---------------------------------------------------------------------------
# Input error paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("classes", [0, -3])
def test_class_count_below_one_exits_one(tmp_path, capsys, classes):
    from netexposure import MarketError
    from netexposure.io import parse_market_data

    data = {"participants": ["a"], "classes": classes, "links": [],
            "dist": {"type": "laplace"}}
    with pytest.raises(MarketError, match="at least one derivative class"):
        parse_market_data(data)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", "--market", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: market needs at least one derivative "
                            "class\n")
    assert captured.out == ""


@pytest.mark.parametrize("text, shown", [("NaN", "nan"), ("Infinity", "inf"),
                                         ("-Infinity", "-inf"),
                                         ("1e400", "inf")])
def test_non_finite_weight_exits_one(tmp_path, capsys, text, shown):
    # Python's json reads NaN, Infinity and an overflowing literal
    path = tmp_path / "m.json"
    path.write_text('{"participants": ["a", "b"], "classes": 1, "links": '
                    '[{"from": "a", "to": "b", "class": 1, "weight": '
                    f'{text}}}], "dist": {{"type": "laplace"}}}}')
    assert main(["analyze", "--market", str(path)]) == 1
    assert capsys.readouterr().err == (f"error: links[0]: realised weight "
                                       f"{shown} is not finite\n")


@pytest.mark.parametrize("argv", [
    ["compare-netting", "--class", "9"],
    ["mc-check", "--convention", "multilateral:0", "--samples", "100"],
])
def test_unknown_pooled_class_exits_one(tmp_path, capsys, argv):
    path = market_file(tmp_path, triangle_directed(), None, LaplaceSym(1.0))
    assert main([*argv, "--market", str(path)]) == 1
    captured = capsys.readouterr()
    assert "unknown class" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("sets, message", [
    ((("z", (0,)),), "unknown participant 'z' in custom partition"),
    ((("v", (0,)), ("v", ())), "empty netting set for 'v'"),
])
def test_malformed_custom_partition_exits_one(tmp_path, capsys, sets,
                                              message):
    path = market_file(tmp_path, two_vertex_market(1), Custom(sets=sets),
                       LaplaceSym(1.0))
    assert main(["analyze", "--market", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("dist", [Gamma(2.0, 1.0), Exponential(1.0)],
                         ids=repr)
@pytest.mark.parametrize("argv", [
    ["analyze"],
    ["compare-netting", "--class", "1"],
    ["mc-check", "--samples", "100"],
])
def test_one_sided_market_law_exits_one(tmp_path, capsys, dist, argv):
    path = market_file(tmp_path, triangle_directed(), None, dist)
    assert main([*argv, "--market", str(path)]) == 1
    captured = capsys.readouterr()
    assert ("market positions need a two-sided symmetric distribution"
            in captured.err)
    assert captured.out == ""


@pytest.mark.parametrize("dist, flags", [
    (LaplaceSym(1.0), ["laplace"]),
    (NormalSym(0.7), ["normal", "--sigma", "0.7"]),
    (UniformSym(2.0), ["uniform", "--half-width", "2"]),
], ids=["laplace", "normal", "uniform"])
def test_hilbert_eval_of_the_positive_side(capsys, dist, flags):
    assert main(["hilbert-eval", "--dist", *flags, "--side", "pos",
                 "--omega", "0.7"]) == 0
    value = hilbert_eval(pos_abs_cf(charfn_of(dist)), 0.7).value
    assert capsys.readouterr().out.splitlines()[0] == (
        f"H{{phi^1}}(0.7) = {value.real:+.12g}{value.imag:+.12g}i")


def test_module_entry_point_prints_help():
    import subprocess
    import sys
    from pathlib import Path

    import netexposure

    src = str(Path(netexposure.__file__).parents[1])
    result = subprocess.run([sys.executable, "-m", "netexposure.cli",
                             "--help"], capture_output=True, text=True,
                            env={"PYTHONPATH": src}, timeout=60)
    assert result.returncode == 0
    assert result.stdout.startswith("usage: netexposure")
