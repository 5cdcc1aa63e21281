"""Market file parsing and serialisation.

Markets travel as JSON link lists (not adjacency matrices), mirroring the
netting-set formalism: participants, a class count, links with optional
realised weights, an optional netting convention, and an optional global
position distribution (positions are i.i.d., so one law per market).
Parsing and serialisation round-trip on the canonical form.
"""

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .charfn import LAWS, Distribution
from .market import (
    Bilateral,
    Convention,
    Custom,
    Link,
    Market,
    Multilateral,
    require_valid,
)

__all__ = ["MarketFile", "ParseError", "parse_market", "parse_market_data",
           "serialize_market", "write_market", "dist_from_json",
           "dist_to_json", "format_report", "write_report"]


class ParseError(ValueError):
    """Malformed market file; the message carries the JSON path."""


@dataclass(frozen=True)
class MarketFile:
    market: Market
    convention: Convention | None
    dist: Distribution | None


def _object(obj, where: str) -> dict:
    """``obj`` itself, which must be a JSON object."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, "
                         f"got {type(obj).__name__}")
    return obj


def _need(obj: dict, key: str, kind, where: str, default=MISSING):
    """``obj[key]`` checked against ``kind`` (bools are not numbers); an
    absent or null key gives ``default`` when one is given."""
    value = obj.get(key)
    if type(value) is kind:
        return value
    if value is None and default is not MISSING:
        return default
    if key not in obj:
        raise ParseError(f"{where}.{key}: missing")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ParseError(f"{where}.{key}: expected {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def dist_from_json(obj: dict, where: str = "dist") -> Distribution:
    kind = _need(_object(obj, where), "type", str, where)
    law = LAWS.get(kind)
    if law is None:
        raise ParseError(f"{where}.type: unknown distribution {kind!r}")
    params = [_need(obj, f.name, float, where, f.default)
              for f in fields(law)]
    try:
        return law(*params)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def dist_to_json(dist: Distribution) -> dict:
    for name, law in LAWS.items():
        if type(dist) is law:
            return {"type": name, **asdict(dist)}
    raise TypeError(f"unknown distribution spec: {dist!r}")


def _convention_from_json(obj: dict, where: str) -> Convention:
    kind = _need(_object(obj, where), "type", str, where)
    if kind == "bilateral":
        return Bilateral()
    if kind == "multilateral":
        return Multilateral(cls=_need(obj, "class", int, where))
    if kind == "custom":
        sets = obj.get("sets")
        if not isinstance(sets, list):
            raise ParseError(f"{where}.sets: expected a list of blocks")
        blocks = []
        for i, block in enumerate(sets):
            at = f"{where}.sets[{i}]"
            owner = _need(_object(block, at), "owner", str, at)
            links = _need(block, "links", list, at)
            if not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in links):
                raise ParseError(f"{at}.links: expected integer link "
                                 "indices")
            blocks.append((owner, tuple(links)))
        return Custom(sets=tuple(blocks))
    raise ParseError(f"{where}.type: unknown convention {kind!r}")


def _convention_to_json(conv: Convention) -> dict:
    if isinstance(conv, Bilateral):
        return {"type": "bilateral"}
    if isinstance(conv, Multilateral):
        return {"type": "multilateral", "class": conv.cls}
    if isinstance(conv, Custom):
        return {"type": "custom",
                "sets": [{"owner": owner, "links": list(block)}
                         for owner, block in conv.sets]}
    raise TypeError(f"unknown convention: {conv!r}")


def _parse_link(obj, i: int) -> Link:
    where = f"$.links[{i}]"
    _object(obj, where)
    return Link(_need(obj, "from", str, where), _need(obj, "to", str, where),
                _need(obj, "class", int, where),
                _need(obj, "directed", bool, where, False),
                _need(obj, "weight", float, where, None))


def parse_market_data(data: dict) -> MarketFile:
    """Build a validated market from decoded JSON."""
    participants = _need(_object(data, "$"), "participants", list, "$")
    for i, p in enumerate(participants):
        if not isinstance(p, str):
            raise ParseError(f"$.participants[{i}]: expected str")
    n_classes = _need(data, "classes", int, "$")
    raw_links = _need(data, "links", list, "$")
    links = [_parse_link(obj, i) for i, obj in enumerate(raw_links)]
    market = Market(
        participants=tuple(participants),
        n_classes=n_classes,
        links=tuple(links),
        directed=any(a.directed for a in links),
    )
    require_valid(market)
    convention = None
    if "convention" in data:
        convention = _convention_from_json(data["convention"], "$.convention")
    dist = None
    if "dist" in data:
        dist = dist_from_json(data["dist"], "$.dist")
    return MarketFile(market=market, convention=convention, dist=dist)


def parse_market(path: str | Path) -> MarketFile:
    """Parse and validate a market file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: malformed JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return parse_market_data(data)


def serialize_market(mf: MarketFile) -> dict:
    """Canonical JSON form; parsing it back reproduces the input."""
    links = []
    for a in mf.market.links:
        obj = {"from": a.source, "to": a.target, "class": a.cls,
               "directed": a.directed}
        if a.weight is not None:
            obj["weight"] = a.weight
        links.append(obj)
    data = {
        "participants": list(mf.market.participants),
        "classes": mf.market.n_classes,
        "links": links,
    }
    if mf.convention is not None:
        data["convention"] = _convention_to_json(mf.convention)
    if mf.dist is not None:
        data["dist"] = dist_to_json(mf.dist)
    return data


def write_market(mf: MarketFile, path: str | Path) -> None:
    Path(path).write_text(json.dumps(serialize_market(mf), indent=2) + "\n")


def _scalar(x) -> str:
    """``json.dumps(x, default=str)``; strs and finite floats go direct."""
    if type(x) is str:
        return encode_basestring_ascii(x)
    if type(x) is float and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x, default=str)


def _json_object(items) -> str:
    """(str key, scalar) pairs as a JSON object nested one level."""
    body = ",\n    ".join(f"{_scalar(k)}: {_scalar(v)}" for k, v in items)
    return f"{{\n    {body}\n  }}" if body else "{}"


def _with_values(sets, render):
    """(set, ``render(set)``), rendered once per signature: its sets share
    one cached tuple's objects, whose identity keeps 0.0 and -0.0 apart."""
    done = {}
    for e in sets:
        key = id(e.value), id(e.method), id(e.error), id(e.exact)
        if key not in done:
            done[key] = render(e)
        yield e, done[key]


def format_report(report, fmt: str = "table") -> str:
    """Render an ExposureReport as indent-2 JSON or a readable table."""
    if fmt == "json":
        blocks = []
        for e, values in _with_values(report.per_netting_set, lambda e: (
                f'      "expected_exposure": {_scalar(e.value)},\n'
                f'      "method": {_scalar(e.method)},\n'
                f'      "error_estimate": {_scalar(e.error)},\n'
                f'      "exact": {_scalar(e.exact)}\n    }}')):
            links = ",\n        ".join(map(str, e.links))
            links = f"[\n        {links}\n      ]" if e.links else "[]"
            blocks.append(f'\n    {{\n      "owner": {_scalar(e.owner)},\n'
                          f'      "kind": {_scalar(e.kind)},\n'
                          f'      "links": {links},\n{values}')
        netting = f"[{','.join(blocks)}\n  ]" if blocks else "[]"
        pairs = ((f"{a}~{b}", value)
                 for (a, b), value in sorted(report.pair_view.items()))
        return (f'{{\n  "convention": {_scalar(report.convention)},\n'
                f'  "market_total": {_scalar(report.market_total)},\n'
                f'  "market_total_exact": '
                f'{_scalar(report.market_total_exact)},\n  "per_participant": '
                f'{_json_object(sorted(report.per_participant.items()))},\n'
                f'  "components": {_json_object(report.components.items())},\n'
                f'  "pairs": {_json_object(pairs)},\n'
                f'  "netting_sets": {netting}\n}}')
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")
    lines = [f"convention: {report.convention}"]
    header = (f"{'owner':<10} {'netting set':<22} {'links':<14} "
              f"{'exposure':>12} {'method':<12} {'error':>9}")
    lines.append(header)
    lines.append("-" * len(header))
    for e, values in _with_values(report.per_netting_set, lambda e: (
            f"{e.value:>12.8f} {e.method:<12} {e.error:>9.1e}")):
        links = ",".join(map(str, e.links))
        lines.append(f"{e.owner:<10} {e.kind:<22} {links:<14} {values}")
    lines.append("-" * len(header))
    for v, total in sorted(report.per_participant.items()):
        lines.append(f"{v:<10} total {total:.8f}")
    for name, value in report.components.items():
        lines.append(f"component {name}: {value:.8f}")
    exact = (f" (= {report.market_total_exact})"
             if report.market_total_exact is not None else "")
    lines.append(f"market total: {report.market_total:.8f}{exact}")
    return "\n".join(lines)


def write_report(report, path: str | Path, fmt: str = "json") -> None:
    """Write a rendered report to disk."""
    Path(path).write_text(format_report(report, fmt) + "\n")
