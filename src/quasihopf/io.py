"""Structure-constant files: canonical JSON serialization with exact
coefficients, kind-tagged payloads, and hash-checked companion links.

Coefficients are decimal integers or "num/den" strings over the
rationals, residue integers over a prime field (the file then carries
{"fp": p} as its field descriptor).  Canonical bytes sort all indices
and keys, so emit-parse round-trips are byte-identical.

Each kind's keys, their leg dims and the arity of each map are stated
once, in ``LAYOUTS``; ``emit_value`` writes and ``parse`` reads every
kind by walking that table, so the two cannot drift apart.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from .comodule import BicomoduleAlgebra, ComoduleAlgebra
from .errors import HashMismatch, ParseError, ShapeMismatch
from .fields import QQ, FpElement, PrimeField, field_from_tag
from .hopf import GaugeTransformation, QuasiHopfAlgebra
from .modcoalg import ModuleCoalgebra
from .smash import ProductAlgebra
from .tensor import FinAlgebra, LinMap, Tensor

FORMAT = "qha.v1"
SUFFIX = ".qha.json"

# The keys of a structure in reading order, as (key, legs, source legs).
# The key is the attribute of the value and the keyword of its
# constructor.  Legs spell the leg dims, "d" for the carrier dim and "h"
# for the base dim, or map each side to them; a side left out has no
# such key.  Source legs count the legs a map takes, None for an element.
ALGEBRA = (("mult", "ddd", 2), ("unit", "d", None))
LAYOUTS = {
    "quasi-hopf": ("algebra", (
        ("comult", "ddd", 1), ("counit", "d", 1),
        ("reassoc", "ddd", None), ("reassoc_inv", "ddd", None),
        ("antipode", "dd", 1), ("alpha", "d", None), ("beta", "d", None))),
    "comodule-algebra": ("algebra", (
        ("coaction", {"left": "dhd", "right": "ddh"}, 1),
        ("reassoc", {"left": "hhd", "right": "dhh"}, None),
        ("reassoc_inv", {"left": "hhd", "right": "dhh"}, None))),
    "bicomodule-algebra": ("algebra", (
        ("left_coaction", "dhd", 1), ("right_coaction", "ddh", 1),
        ("reassoc_left", "hhd", None), ("reassoc_right", "dhh", None),
        ("reassoc_mixed", "hdh", None), ("reassoc_left_inv", "hhd", None),
        ("reassoc_right_inv", "dhh", None), ("reassoc_mixed_inv", "hdh", None))),
    "module-coalgebra": ("dim", (
        ("comult", "ddd", 1), ("counit", "d", 1),
        ("left_action", {"left": "hdd", "bi": "hdd"}, 2),
        ("right_action", {"right": "dhd", "bi": "dhd"}, 2))),
}
# the kind of each class of value, in the order emit_value tries them
KINDS = ((QuasiHopfAlgebra, "quasi-hopf"), (ComoduleAlgebra, "comodule-algebra"),
         (BicomoduleAlgebra, "bicomodule-algebra"), (ModuleCoalgebra, "module-coalgebra"),
         (GaugeTransformation, "gauge"), (ProductAlgebra, "product-algebra"))
_CLASSES = {kind: cls for cls, kind in KINDS}


def canonical_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _tensor_rows(field, t: Tensor):
    return [list(idx) + [field.fmt(v)] for idx, v in t.entries()]


def side_rows(value):
    """One side of a failed check in the coefficient syntax of the files:
    the rows of a tensor, the coefficients of a flat vector, or a single
    coefficient; a plain integer (a rank, a count) stays a number."""
    if isinstance(value, Tensor):
        return _tensor_rows(value.field, value)
    if isinstance(value, (list, tuple)):
        return [side_rows(v) for v in value]
    if isinstance(value, FpElement):
        return PrimeField(value.p).fmt(value)
    if isinstance(value, Fraction):
        return QQ.fmt(value)
    return value


def _sides(keys):
    return {side for _, legs, _ in keys if isinstance(legs, dict) for side in legs}


def _legs(legs, side):
    return legs.get(side) if isinstance(legs, dict) else legs


def _rows_of(field, value, keys, side=None) -> dict:
    """The rows of each of ``keys`` that ``value`` has on ``side``."""
    out = {}
    for key, legs, n_src in keys:
        if _legs(legs, side) is not None:
            t = getattr(value, key)
            out[key] = _tensor_rows(field, t if n_src is None else t.as_tensor())
    return out


def _read(payload, key, where, cast=None):
    """``payload[key]``, through ``cast`` if given; a missing key, or a
    value that ``cast`` rejects, is a ParseError."""
    try:
        value = payload[key]
    except (KeyError, TypeError) as exc:
        raise ParseError("missing key %r" % (key,), where=where) from exc
    if cast is None:
        return value
    try:
        return cast(value)
    except (TypeError, ValueError) as exc:
        raise ParseError("bad %s %r: %s" % (key, value, exc), where=where) from exc


def _ints(values):
    return tuple(int(v) for v in values)


def _parse_row(field, row, dims, where):
    """The index tuple and the coefficient of one row, the index checked
    against ``dims``."""
    try:
        idx = tuple(int(i) for i in row[:-1])
        value = field.parse(str(row[-1]))
    except (ValueError, TypeError, IndexError) as exc:
        raise ParseError(str(exc), where=where) from exc
    if len(idx) != len(dims):
        raise ParseError("row %r has wrong index count" % (row,), where=where)
    if not all(0 <= i < n for i, n in zip(idx, dims)):
        raise ParseError("row %r has an index out of range for %r" % (row, dims),
                         where=where)
    return idx, value


def _tensor_from_rows(field, dims, rows, where):
    if not isinstance(rows, list):
        raise ParseError("rows %r are not a list" % (rows,), where=where)
    data = dict(_parse_row(field, row, dims, where) for row in rows)
    try:
        return Tensor(field, dims, data)
    except ShapeMismatch as exc:
        raise ParseError(str(exc), where=where) from exc


def _read_keys(field, payload, keys, d, h, side, where) -> dict:
    """The value of each of ``keys`` on ``side``, read in order."""
    out = {}
    for key, legs, n_src in keys:
        legs = _legs(legs, side)
        if legs is not None:
            dims = tuple(d if leg == "d" else h for leg in legs)
            t = _tensor_from_rows(field, dims, _read(payload, key, where), where)
            out[key] = t if n_src is None else LinMap.from_tensor(t, n_src)
    return out


def _alg_payload(field, alg: FinAlgebra):
    return dict(_rows_of(field, alg, ALGEBRA), dim=alg.dim)


def _read_algebra(field, payload, where) -> FinAlgebra:
    payload = _read(payload, "algebra", where)
    dim = _read(payload, "dim", where, int)
    return FinAlgebra(field, dim, validate=False,
                      **_read_keys(field, payload, ALGEBRA, dim, dim, None, where))


def load_payload(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(str(exc), path=path) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc, path=path) from exc
    if not isinstance(payload, dict) or payload.get("format") != FORMAT:
        raise ParseError("not a %s structure file" % FORMAT, path=path)
    return payload


def _base_ref(payload):
    """The companion reference "base" of a structure file, or None."""
    companions = payload.get("companions") or {}
    if not isinstance(companions, dict):
        raise ParseError("companions %r are not an object" % (companions,),
                         where=payload.get("kind"))
    return companions.get("base")


def _resolve_companion(payload, path):
    ref = _base_ref(payload)
    if ref is None:
        raise ParseError("missing companion reference 'base'", path=path)
    rel = _read(ref, "path", "companions", str)
    base_path = os.path.join(os.path.dirname(os.path.abspath(path)), rel)
    try:
        with open(base_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise HashMismatch("companion %r not found" % rel, path=path) from exc
    if content_hash(text) != ref.get("sha256"):
        raise HashMismatch("companion %r content hash differs" % rel, path=path)
    return base_path


def parse(path: str):
    """Parse a structure file into its domain value.

    Shape validation happens on construction; axioms are *not* checked
    here (run the verifiers for that).  Companion references are
    resolved relative to the file and hash-checked.
    """
    payload = load_payload(path)
    kind = payload.get("kind")
    if kind not in _CLASSES:
        raise ParseError("unknown kind %r" % (kind,), path=path)
    field = _read(payload, "field", kind, field_from_tag)
    if kind == "gauge":
        base = parse(_resolve_companion(payload, path)) if _base_ref(payload) else None
        dims = _read(payload, "dims", kind, _ints)
        t, inv = (_tensor_from_rows(field, dims, _read(payload, key, kind), kind)
                  for key in ("gauge", "gauge_inv"))
        if base is None:
            raise ParseError("gauge file needs its base companion", path=path)
        return GaugeTransformation(base, t, inv)
    if kind == "product-algebra":
        alg = _read_algebra(field, payload, kind)
        factors = _read(payload, "factors", kind, _ints) if "factors" in payload \
            else (alg.dim, 1)
        return ProductAlgebra(alg, factors, payload.get("name", "product"))
    carrier, keys = LAYOUTS[kind]
    args = {"name": payload.get("name", "")}
    if kind != "quasi-hopf":
        args["H"] = parse(_resolve_companion(payload, path))
    if carrier == "algebra":
        args["alg"] = _read_algebra(field, payload, kind)
        d = args["alg"].dim
    else:
        d = args["dim"] = _read(payload, "dim", kind, int)
    side, sides = None, _sides(keys)
    if sides:
        side = args["side"] = payload.get("side")
        if side not in sides:
            raise ParseError("side %r is not one of %s" % (side, ", ".join(sorted(sides))),
                             where=kind)
    h = args["H"].dim if "H" in args else d
    args.update(_read_keys(field, payload, keys, d, h, side, kind))
    return _CLASSES[kind](**args)


def emit_value(value, path: str, base_path: str = None) -> str:
    """Serialize a domain value canonically; returns the content hash.

    Values that reference a base require ``base_path`` pointing at an
    already-emitted base file.
    """
    kind = next((k for cls, k in KINDS if isinstance(value, cls)), None)
    if kind is None:
        raise ParseError("cannot serialize %r" % (value,))
    payload = {"format": FORMAT, "kind": kind}
    if kind not in ("quasi-hopf", "product-algebra"):
        if base_path is None:
            raise ParseError("this kind of value needs a base_path companion")
        with open(base_path, "r", encoding="utf-8") as fh:
            payload["companions"] = {"base": {
                "path": os.path.relpath(base_path, os.path.dirname(path) or "."),
                "sha256": content_hash(fh.read())}}
    field = value.H.field if kind == "gauge" else value.field
    payload["field"] = {"fp": field.characteristic} if field.characteristic else "q"
    if kind == "gauge":
        payload.update(name="", dims=list(value.t.dims),
                       gauge=_tensor_rows(field, value.t),
                       gauge_inv=_tensor_rows(field, value.inv))
    elif kind == "product-algebra":
        payload.update(name=value.provenance, factors=list(value.factor_dims),
                       algebra=_alg_payload(field, value.carrier))
    else:
        carrier, keys = LAYOUTS[kind]
        payload["name"] = value.name or ""
        payload[carrier] = _alg_payload(field, value.alg) if carrier == "algebra" \
            else value.dim
        if _sides(keys):
            payload["side"] = value.side
        if kind == "quasi-hopf":
            payload["basis"] = ["e%d" % i for i in range(value.dim)]
        payload.update(_rows_of(field, value, keys, getattr(value, "side", None)))
    text = canonical_dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return content_hash(text)
