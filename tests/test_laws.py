"""The law catalog: one table gives every law's JSON ``type``, its
parameters and their defaults, its CLI flags and its range check."""

import math

import pytest

import netexposure.charfn as charfn
import netexposure.cli as cli
from netexposure.charfn import charfn_of
from netexposure.laws import (LAWS, Distribution, Exponential, Gamma,
                              LaplaceSym, UniformSym)
from netexposure.io import (
    ParseError,
    dist_from_json,
    dist_to_json,
    parse_market_data,
)


def _with_params(name, values):
    """``LAWS[name]`` built from ``values``, one per field in order."""
    law = LAWS[name]
    return law(*values[:len(law._fields)])


def test_catalog_lists_every_law():
    assert set(LAWS.values()) == set(Distribution.__subclasses__())


def test_laws_compare_and_hash_by_type_and_value():
    # a law is a named tuple that equals laws of its own type only
    laws = [_with_params(name, [1.0, 1.0]) for name in LAWS]
    for a in laws:
        for b in laws:
            assert (a == b) is (a is b) and (a != b) is (a is not b)
        assert a != tuple(a) and tuple(a) != a and not a == tuple(a)
        twin = type(a)(*a)
        assert twin == a and not twin != a and hash(twin) == hash(a)
    assert LaplaceSym(1.0) != UniformSym(1.0) != LaplaceSym(1.0)
    assert len({LaplaceSym(2.0), LaplaceSym(2.0), Exponential(2.0)}) == 2
    assert [repr(law) for law in laws] == [
        "LaplaceSym(scale=1.0)", "NormalSym(sigma=1.0)",
        "UniformSym(half_width=1.0)", "Gamma(shape=1.0, scale=1.0)",
        "Exponential(scale=1.0)"]
    copy = Gamma(2.0, 3.0)._replace(scale=4.0)
    assert type(copy) is Gamma and copy == Gamma._make([2.0, 4.0])


@pytest.mark.parametrize("name", list(LAWS))
def test_json_round_trip_keeps_the_law_and_key_order(name):
    d = _with_params(name, [1.5, 2.25])
    data = dist_to_json(d)
    assert list(data) == ["type", *d._fields]
    assert data["type"] == name
    back = dist_from_json(data)
    assert back == d and type(back) is type(d)
    assert dist_to_json(back) == data


@pytest.mark.parametrize("name", list(LAWS))
def test_json_int_parameter_is_a_float(name):
    data = {"type": name, **dict.fromkeys(LAWS[name]._fields, 2)}
    d = dist_from_json(data)
    assert d == _with_params(name, [2.0, 2.0])
    assert all(type(value) is float for value in d)


@pytest.mark.parametrize("name", [
    n for n, law in LAWS.items()
    if len(law._field_defaults) == len(law._fields)])
def test_json_null_or_absent_parameter_takes_the_default(name):
    nulls = {"type": name, **dict.fromkeys(LAWS[name]._fields)}
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
    law = LAWS[name]
    names = law._fields
    for k, field in enumerate(names):
        params = [1.0] * len(names)
        params[k] = value
        # the named tuple's _make and _replace take the constructor's check
        for make in (lambda: law(*params), lambda: law._make(params),
                     lambda: law(*[1.0] * len(names))._replace(
                         **{field: value})):
            with pytest.raises(ValueError, match=f"^{field} must be "
                                                 "positive and finite, got "):
                make()
        data = {"type": name, **dict(zip(names, params))}
        with pytest.raises(ParseError, match=rf"^\$\.dist: {field} must "):
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
    names = LAWS[name]._fields
    # the CLI defaults every flag to 1.0
    assert (_cli_law(monkeypatch, ["--dist", name])
            == dist_from_json({"type": name, **dict.fromkeys(names, 1.0)}))
    values = {"scale": 2.0, "sigma": 3.0, "half_width": 4.0, "shape": 5.0}
    argv = [f"--{key.replace('_', '-')}={v:g}" for key, v in values.items()]
    assert (_cli_law(monkeypatch, ["--dist", name] + argv)
            == dist_from_json({"type": name,
                               **{key: values[key] for key in names}}))
