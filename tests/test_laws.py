"""The law catalog: one table gives every law's JSON ``type``, its
parameters and their defaults, its CLI flags and its range check."""

import math
from dataclasses import MISSING, fields

import pytest

import netexposure.charfn as charfn
import netexposure.cli as cli
from netexposure.charfn import charfn_of
from netexposure.laws import LAWS, Distribution
from netexposure.io import (
    ParseError,
    dist_from_json,
    dist_to_json,
    parse_market_data,
)


def _with_params(name, values):
    """``LAWS[name]`` built from ``values``, one per field in order."""
    law = LAWS[name]
    return law(*values[:len(fields(law))])


def test_catalog_lists_every_law():
    assert set(LAWS.values()) == set(Distribution.__subclasses__())


@pytest.mark.parametrize("name", list(LAWS))
def test_json_round_trip_keeps_the_law_and_key_order(name):
    d = _with_params(name, [1.5, 2.25])
    data = dist_to_json(d)
    assert list(data) == ["type"] + [f.name for f in fields(d)]
    assert data["type"] == name
    back = dist_from_json(data)
    assert back == d and type(back) is type(d)
    assert dist_to_json(back) == data


@pytest.mark.parametrize("name", list(LAWS))
def test_json_int_parameter_is_a_float(name):
    data = {"type": name, **{f.name: 2 for f in fields(LAWS[name])}}
    d = dist_from_json(data)
    assert d == _with_params(name, [2.0, 2.0])
    assert all(type(getattr(d, f.name)) is float for f in fields(d))


@pytest.mark.parametrize("name", [
    n for n, law in LAWS.items()
    if all(f.default is not MISSING for f in fields(law))])
def test_json_null_or_absent_parameter_takes_the_default(name):
    nulls = {"type": name, **{f.name: None for f in fields(LAWS[name])}}
    assert dist_from_json(nulls) == LAWS[name]()
    assert dist_from_json({"type": name}) == LAWS[name]()


def test_gamma_has_no_default_shape():
    with pytest.raises(ParseError) as exc:
        dist_from_json({"type": "gamma", "scale": 1.0}, "$.dist")
    assert str(exc.value) == "$.dist.shape: missing"


def test_bad_parameter_type_names_its_path_once():
    with pytest.raises(ParseError) as exc:
        parse_market_data({"participants": ["a"], "classes": 1, "links": [],
                           "dist": {"type": "laplace", "scale": "2"}})
    assert str(exc.value) == "$.dist.scale: expected float, got str"


@pytest.mark.parametrize("value", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("name", list(LAWS))
def test_every_parameter_is_positive_and_finite(name, value):
    for k, f in enumerate(fields(LAWS[name])):
        params = [1.0] * len(fields(LAWS[name]))
        params[k] = value
        with pytest.raises(ValueError, match=f"^{f.name} must be positive "
                                             "and finite, got "):
            LAWS[name](*params)
        data = {"type": name, **{g.name: p for g, p in
                                 zip(fields(LAWS[name]), params)}}
        with pytest.raises(ParseError, match=rf"^\$\.dist: {f.name} must "):
            dist_from_json(data, "$.dist")


def _cli_law(monkeypatch, argv):
    """The law ``hilbert-eval`` builds from ``argv``."""
    seen = []

    def record(dist):
        seen.append(dist)
        return charfn_of(dist)

    monkeypatch.setattr(charfn, "charfn_of", record)
    assert cli.main(["hilbert-eval", "--omega", "1"] + argv) == 0
    (dist,) = seen
    return dist


@pytest.mark.parametrize("name", list(LAWS))
def test_cli_flags_give_the_json_law(monkeypatch, capsys, name):
    names = [f.name for f in fields(LAWS[name])]
    # the CLI defaults every flag to 1.0
    assert (_cli_law(monkeypatch, ["--dist", name])
            == dist_from_json({"type": name, **dict.fromkeys(names, 1.0)}))
    values = {"scale": 2.0, "sigma": 3.0, "half_width": 4.0, "shape": 5.0}
    argv = [f"--{key.replace('_', '-')}={v:g}" for key, v in values.items()]
    assert (_cli_law(monkeypatch, ["--dist", name] + argv)
            == dist_from_json({"type": name,
                               **{key: values[key] for key in names}}))
