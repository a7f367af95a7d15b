"""Loading a workspace of named objects from one JSON document.

The document holds named quantaloids, semicategories, semidistributors and
semifunctors (plus optional posets and Omega-sets); every cross-reference
must resolve and every object passes its validator before any command runs.

Formats:

* quantaloid: ``"2"``, ``"3"``, ``"frame:<lattice>"`` or
  ``{"objects": [...], "homs": {"X>Y": {"size": n, "leq": [[i, j], ...]}},
  "compose": {"X>Y>Z": [[k, ...], ...]}, "id": {"X": i}}`` where the
  composition table entry ``[g][f]`` is the composite of arrow ``g`` of
  hom(Y, Z) after arrow ``f`` of hom(X, Y).
* semicategory: ``{"base": "Q", "objects": [{"name": "a", "type": "X"},
  ...], "hom": [["a1", "a0", elem], ...]}``; omitted entries are bottom.
* semidistributor: ``{"dom": "A", "cod": "B", "mat": [["b", "a", elem], ...]}``.
* semifunctor: ``{"dom": "A", "cod": "B", "map": {"a": "b", ...}}``.
* poset: ``{"elements": [...], "pairs": [[x, y], ...]}``.
* omega_set: ``{"frame": <lattice name or spec>, "elements": [...],
  "eq": [[a, b, elem], ...]}``.
"""

from __future__ import annotations

import json

from .errors import EnumerationCapExceeded, ParseError, QsError
from .instances import validate_omega_set, validate_poset
from .lattice import named_lattice, validate_sup_lattice
from .quantaloid import Quantaloid, builtin_quantaloid, from_frame
from .semicat import (
    DEFAULT_CAP,
    validate_semicategory,
    validate_semidistributor,
    validate_semifunctor,
)


def _need(doc, key, where):
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object", witness=doc)
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}", witness=key)
    return doc[key]


def _need_list(doc, key, where):
    value = _need(doc, key, where)
    if not isinstance(value, list):
        raise ParseError(f"{where}: {key!r} must be a list", witness=value)
    return value


def _need_dict(doc, key, where):
    value = _need(doc, key, where)
    if not isinstance(value, dict):
        raise ParseError(f"{where}: {key!r} must be an object", witness=value)
    return value


def _pairs(doc, key, where):
    """The ``[x, y]`` entries listed under ``key``."""
    out = []
    for pair in _need_list(doc, key, where):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"{where}: bad {key} pair {pair!r}", witness=pair)
        out.append(tuple(pair))
    return out


def _elem(value, where):
    """A JSON integer; floats, strings and booleans are refused, not converted."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{where}: element {value!r} is not an integer", witness=value)
    return value


def _triples(spec, key, where):
    """The ``[x, y, elem]`` entries listed under ``key``, keyed ``(x, y)``;
    a pair listed twice is an error witnessed by the pair."""
    entries = spec.get(key, [])
    if not isinstance(entries, list):
        raise ParseError(f"{where}: {key!r} must be a list of triples", witness=entries)
    out = {}
    for triple in entries:
        if not isinstance(triple, list) or len(triple) != 3:
            raise ParseError(f"{where}: bad {key} triple {triple!r}", witness=triple)
        x, y, elem = triple
        pair = (str(x), str(y))
        elem = _elem(elem, where)
        if pair in out:
            raise ParseError(f"{where}: {key} entry {pair!r} listed twice", witness=pair)
        out[pair] = elem
    return out


def parse_lattice(spec, where="lattice", cap=DEFAULT_CAP):
    """A built-in lattice name or ``{"size": n, "leq": [[i, j], ...]}``.

    Validating an explicit lattice builds tables in O(n³) steps, so n³ is
    held against ``cap`` before any of them is built.
    """
    if isinstance(spec, str):
        try:
            return named_lattice(spec)
        except KeyError as exc:
            raise ParseError(f"{where}: {exc}", witness=spec) from None
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: expected a name or an object", witness=spec)
    size = _elem(_need(spec, "size", where), where)
    if size**3 > cap:
        raise EnumerationCapExceeded(
            f"{where}: lattice of size {size} needs {size**3} steps, over cap {cap}",
            witness=size,
        )
    pairs = [(_elem(i, where), _elem(j, where)) for i, j in _pairs(spec, "leq", where)]
    try:
        return validate_sup_lattice(size, pairs)
    except ValueError as exc:  # a negative size or an order pair out of range
        raise ParseError(f"{where}: {exc}", witness=spec) from None


def _frame(spec, where, cap) -> Quantaloid:
    """The frame of an Omega-set as a one-object quantaloid.  A built-in
    lattice name resolves through :func:`builtin_quantaloid`, so each named
    frame is checked and built once per process."""
    if isinstance(spec, str):
        try:
            return builtin_quantaloid(f"frame:{spec}")
        except KeyError as exc:
            raise ParseError(f"{where}: {exc}", witness=spec) from None
    return from_frame(parse_lattice(spec, where, cap))


def parse_quantaloid(spec, where="quantaloid", cap=DEFAULT_CAP) -> Quantaloid:
    if isinstance(spec, str):
        try:
            return builtin_quantaloid(spec)
        except KeyError as exc:
            raise ParseError(f"{where}: {exc}", witness=spec) from None
    if not isinstance(spec, dict):
        raise ParseError(f"{where}: expected a name or an object", witness=spec)
    objects = [str(x) for x in _need_list(spec, "objects", where)]
    homs = {}
    for key, lat_spec in _need_dict(spec, "homs", where).items():
        parts = key.split(">")
        if len(parts) != 2:
            raise ParseError(f"{where}: bad hom key {key!r}", witness=key)
        homs[(parts[0], parts[1])] = parse_lattice(lat_spec, f"{where}.homs[{key}]", cap)
    compose = {}
    for key, table in _need_dict(spec, "compose", where).items():
        parts = key.split(">")
        if len(parts) != 3:
            raise ParseError(f"{where}: bad compose key {key!r}", witness=key)
        if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
            raise ParseError(f"{where}: compose table {key!r} must be a list of rows", witness=key)
        compose[(parts[0], parts[1], parts[2])] = [[_elem(v, where) for v in row] for row in table]
    identities = {str(x): _elem(e, where) for x, e in _need_dict(spec, "id", where).items()}
    from .quantaloid import validate_quantaloid

    return validate_quantaloid(objects, homs, compose, identities)


class Workspace:
    """Named, validated objects loaded from one document."""

    def __init__(self):
        self.quantaloids = {}
        self.semicategories = {}
        self.semidistributors = {}
        self.semifunctors = {}
        self.posets = {}
        self.omega_sets = {}

    def quantaloid(self, name):
        if name in self.quantaloids:
            return self.quantaloids[name]
        try:
            return builtin_quantaloid(name)
        except KeyError:
            raise ParseError(f"unknown quantaloid {name!r}", witness=name) from None

    def semicategory(self, name):
        if name not in self.semicategories:
            raise ParseError(f"unknown semicategory {name!r}", witness=name)
        return self.semicategories[name]


def _iter_entries(doc, section):
    entries = doc.get(section, {})
    if not isinstance(entries, dict):
        raise ParseError(f"section {section!r} must map names to objects", witness=section)
    return entries.items()


def load_workspace(doc, cap=DEFAULT_CAP) -> Workspace:
    """Validate a whole document; raises on the first invalid object."""
    ws = Workspace()
    for kind, name, build in plan_workspace(doc, cap):
        build(ws)
    return ws


def plan_workspace(doc, cap=DEFAULT_CAP):
    """The validation plan: (kind, name, build) triples in dependency order.

    ``build`` validates one object and stores it into the workspace it is
    given; callers wanting per-object verdicts run the plan themselves and
    catch the errors.  ``cap`` bounds the size of each explicit lattice
    (see :func:`parse_lattice`).
    """
    if not isinstance(doc, dict):
        raise ParseError("workspace document must be an object", witness=type(doc).__name__)
    plan = []

    for name, spec in _iter_entries(doc, "quantaloids"):
        def build_q(ws, name=name, spec=spec):
            ws.quantaloids[name] = parse_quantaloid(spec, f"quantaloids.{name}", cap)
        plan.append(("quantaloid", name, build_q))

    for name, spec in _iter_entries(doc, "semicategories"):
        def build_sc(ws, name=name, spec=spec):
            where = f"semicategories.{name}"
            base = ws.quantaloid(str(_need(spec, "base", where)))
            objects = []
            for entry in _need_list(spec, "objects", where):
                objects.append((str(_need(entry, "name", where)), str(_need(entry, "type", where))))
            for obj_name, obj_type in objects:
                if obj_type not in base.objects:
                    raise ParseError(
                        f"{where}: dangling type name {obj_type!r}", witness=obj_type
                    )
            hom = _triples(spec, "hom", where)
            ws.semicategories[name] = validate_semicategory(base, objects, hom)
        plan.append(("semicategory", name, build_sc))

    for name, spec in _iter_entries(doc, "semidistributors"):
        def build_sd(ws, name=name, spec=spec):
            where = f"semidistributors.{name}"
            dom = ws.semicategory(str(_need(spec, "dom", where)))
            cod = ws.semicategory(str(_need(spec, "cod", where)))
            mat = _triples(spec, "mat", where)
            ws.semidistributors[name] = validate_semidistributor(dom, cod, mat)
        plan.append(("semidistributor", name, build_sd))

    for name, spec in _iter_entries(doc, "semifunctors"):
        def build_sf(ws, name=name, spec=spec):
            where = f"semifunctors.{name}"
            dom = ws.semicategory(str(_need(spec, "dom", where)))
            cod = ws.semicategory(str(_need(spec, "cod", where)))
            mapping = {str(k): str(v) for k, v in _need_dict(spec, "map", where).items()}
            ws.semifunctors[name] = validate_semifunctor(dom, cod, mapping)
        plan.append(("semifunctor", name, build_sf))

    for name, spec in _iter_entries(doc, "posets"):
        def build_p(ws, name=name, spec=spec):
            where = f"posets.{name}"
            elements = [str(x) for x in _need_list(spec, "elements", where)]
            pairs = [(str(x), str(y)) for x, y in _pairs(spec, "pairs", where)]
            ws.posets[name] = validate_poset(elements, pairs)
        plan.append(("poset", name, build_p))

    for name, spec in _iter_entries(doc, "omega_sets"):
        def build_o(ws, name=name, spec=spec):
            where = f"omega_sets.{name}"
            frame = _frame(_need(spec, "frame", where), f"{where}.frame", cap)
            elements = [str(x) for x in _need_list(spec, "elements", where)]
            eq = _triples(spec, "eq", where)
            ws.omega_sets[name] = validate_omega_set(frame, elements, eq)
        plan.append(("omega_set", name, build_o))

    return plan


def validate_report(doc, cap=DEFAULT_CAP):
    """Run the plan leniently, returning one verdict per object.

    Objects whose dependencies failed report the dependency error.
    """
    ws = Workspace()
    verdicts = []
    for kind, name, build in plan_workspace(doc, cap):
        try:
            build(ws)
            verdicts.append(
                {"kind": kind, "name": name, "valid": True, "error": None, "witness": None}
            )
        except QsError as exc:
            verdicts.append(
                {
                    "kind": kind,
                    "name": name,
                    "valid": False,
                    "error": f"{type(exc).__name__}: {exc}",
                    "witness": repr(exc.witness) if exc.witness is not None else None,
                }
            )
    return ws, verdicts


def load_path(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
