"""Structure-constant files: canonical JSON serialization with exact
coefficients, kind-tagged payloads, and hash-checked companion links.

Coefficients are decimal integers or "num/den" strings over the
rationals, residue integers over a prime field (the file then carries
{"fp": p} as its field descriptor).  Canonical bytes sort all indices
and keys, so emit-parse round-trips are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction

from .comodule import BicomoduleAlgebra, ComoduleAlgebra
from .errors import HashMismatch, ParseError, ShapeMismatch
from .fields import QQ, FieldError, FpElement, PrimeField, field_from_tag
from .hopf import GaugeTransformation, QuasiHopfAlgebra
from .modcoalg import ModuleCoalgebra
from .smash import ProductAlgebra
from .tensor import FinAlgebra, LinMap, Tensor

FORMAT = "qha.v1"
SUFFIX = ".qha.json"


def canonical_dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


def content_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _field_tag(field):
    if field.characteristic == 0:
        return "q"
    return {"fp": field.characteristic}


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


def _parse_row(field, row, dims, where):
    """The index tuple and the coefficient of one row, the index checked
    against ``dims``."""
    try:
        idx = tuple(int(i) for i in row[:-1])
        value = field.parse(str(row[-1]))
    except (FieldError, ValueError, TypeError, IndexError) as exc:
        raise ParseError(str(exc), where=where) from exc
    if len(idx) != len(dims):
        raise ParseError("row %r has wrong index count" % (row,), where=where)
    if not all(0 <= i < n for i, n in zip(idx, dims)):
        raise ParseError("row %r has an index out of range for %r" % (row, dims),
                         where=where)
    return idx, value


def _tensor_from_rows(field, dims, rows, where):
    data = dict(_parse_row(field, row, dims, where) for row in rows)
    try:
        return Tensor(field, dims, data)
    except ShapeMismatch as exc:
        raise ParseError(str(exc), where=where) from exc


def _alg_payload(field, alg: FinAlgebra):
    return {
        "dim": alg.dim,
        "mult": _tensor_rows(field, alg.mult.as_tensor()),
        "unit": _tensor_rows(field, alg.unit),
    }


def _alg_from_payload(field, payload, where):
    dim = int(payload["dim"])
    mult = LinMap.from_tensor(_tensor_from_rows(field, (dim,) * 3, payload["mult"], where), 2)
    unit = _tensor_from_rows(field, (dim,), payload["unit"], where)
    return FinAlgebra(field, dim, mult, unit, validate=False)


def quasi_hopf_payload(H: QuasiHopfAlgebra, name="") -> dict:
    field = H.field
    d = H.dim
    payload = {
        "format": FORMAT,
        "kind": "quasi-hopf",
        "field": _field_tag(field),
        "name": name or H.name or "",
        "basis": ["e%d" % i for i in range(d)],
        "algebra": _alg_payload(field, H.alg),
        "comult": _tensor_rows(field, H.comult.as_tensor()),
        "counit": _tensor_rows(field, H.counit.as_tensor()),
        "reassoc": _tensor_rows(field, H.reassoc),
        "reassoc_inv": _tensor_rows(field, H.reassoc_inv),
        "antipode": _tensor_rows(field, H.antipode.as_tensor()),
        "alpha": _tensor_rows(field, H.alpha),
        "beta": _tensor_rows(field, H.beta),
    }
    return payload


def _quasi_hopf_from_payload(payload, where):
    field = field_from_tag(payload["field"])
    alg = _alg_from_payload(field, payload["algebra"], where)
    d = alg.dim
    comult = LinMap.from_tensor(_tensor_from_rows(field, (d,) * 3, payload["comult"], where), 1)
    counit = LinMap.from_tensor(_tensor_from_rows(field, (d,), payload["counit"], where), 1)
    reassoc = _tensor_from_rows(field, (d, d, d), payload["reassoc"], where)
    reassoc_inv = _tensor_from_rows(field, (d, d, d), payload["reassoc_inv"], where)
    antipode = LinMap.from_tensor(_tensor_from_rows(field, (d, d), payload["antipode"], where), 1)
    alpha = _tensor_from_rows(field, (d,), payload["alpha"], where)
    beta = _tensor_from_rows(field, (d,), payload["beta"], where)
    return QuasiHopfAlgebra(alg, comult, counit, reassoc, antipode, alpha, beta,
                            reassoc_inv=reassoc_inv,
                            name=payload.get("name", ""))


def gauge_payload(F: GaugeTransformation, name="", companion=None) -> dict:
    field = F.H.field
    payload = {
        "format": FORMAT,
        "kind": "gauge",
        "field": _field_tag(field),
        "name": name,
        "dims": list(F.t.dims),
        "gauge": _tensor_rows(field, F.t),
        "gauge_inv": _tensor_rows(field, F.inv),
    }
    if companion:
        payload["companions"] = companion
    return payload


def comodule_algebra_payload(X: ComoduleAlgebra, base_ref: dict, name="") -> dict:
    field = X.field
    return {
        "format": FORMAT,
        "kind": "comodule-algebra",
        "side": X.side,
        "field": _field_tag(field),
        "name": name or X.name or "",
        "algebra": _alg_payload(field, X.alg),
        "coaction": _tensor_rows(field, X.coaction.as_tensor()),
        "reassoc": _tensor_rows(field, X.reassoc),
        "reassoc_inv": _tensor_rows(field, X.reassoc_inv),
        "companions": {"base": base_ref},
    }


def bicomodule_algebra_payload(X: BicomoduleAlgebra, base_ref: dict, name="") -> dict:
    field = X.field
    return {
        "format": FORMAT,
        "kind": "bicomodule-algebra",
        "field": _field_tag(field),
        "name": name or X.name or "",
        "algebra": _alg_payload(field, X.alg),
        "left_coaction": _tensor_rows(field, X.left_coaction.as_tensor()),
        "right_coaction": _tensor_rows(field, X.right_coaction.as_tensor()),
        "reassoc_left": _tensor_rows(field, X.reassoc_left),
        "reassoc_right": _tensor_rows(field, X.reassoc_right),
        "reassoc_mixed": _tensor_rows(field, X.reassoc_mixed),
        "reassoc_left_inv": _tensor_rows(field, X.reassoc_left_inv),
        "reassoc_right_inv": _tensor_rows(field, X.reassoc_right_inv),
        "reassoc_mixed_inv": _tensor_rows(field, X.reassoc_mixed_inv),
        "companions": {"base": base_ref},
    }


def module_coalgebra_payload(C: ModuleCoalgebra, base_ref: dict, name="") -> dict:
    field = C.field
    payload = {
        "format": FORMAT,
        "kind": "module-coalgebra",
        "side": C.side,
        "field": _field_tag(field),
        "name": name or C.name or "",
        "dim": C.dim,
        "comult": _tensor_rows(field, C.comult.as_tensor()),
        "counit": _tensor_rows(field, C.counit.as_tensor()),
        "companions": {"base": base_ref},
    }
    if C.left_action is not None:
        payload["left_action"] = _tensor_rows(field, C.left_action.as_tensor())
    if C.right_action is not None:
        payload["right_action"] = _tensor_rows(field, C.right_action.as_tensor())
    return payload


def product_algebra_payload(P: ProductAlgebra, name="") -> dict:
    field = P.field
    return {
        "format": FORMAT,
        "kind": "product-algebra",
        "field": _field_tag(field),
        "name": name or P.provenance,
        "factors": list(P.factor_dims),
        "algebra": _alg_payload(field, P.carrier),
    }


def write_payload(payload: dict, path: str) -> str:
    text = canonical_dumps(payload)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return content_hash(text)


def file_reference(path: str, relative_to: str = None) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    rel = os.path.basename(path) if relative_to is None else \
        os.path.relpath(path, relative_to)
    return {"path": rel, "sha256": content_hash(text)}


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


def _resolve_companion(payload, path, key="base"):
    ref = (payload.get("companions") or {}).get(key)
    if ref is None:
        raise ParseError("missing companion reference %r" % key, path=path)
    base_path = os.path.join(os.path.dirname(os.path.abspath(path)), ref["path"])
    try:
        with open(base_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise HashMismatch("companion %r not found" % ref["path"], path=path) from exc
    if content_hash(text) != ref.get("sha256"):
        raise HashMismatch("companion %r content hash differs" % ref["path"],
                           path=path)
    return base_path


def parse(path: str):
    """Parse a structure file into its domain value.

    Shape validation happens on construction; axioms are *not* checked
    here (run the verifiers for that).  Companion references are
    resolved relative to the file and hash-checked.
    """
    payload = load_payload(path)
    kind = payload.get("kind")
    where = kind or "?"
    if kind == "quasi-hopf":
        return _quasi_hopf_from_payload(payload, where)
    field = field_from_tag(payload["field"])
    if kind == "gauge":
        base = parse(_resolve_companion(payload, path)) if \
            (payload.get("companions") or {}).get("base") else None
        dims = tuple(int(x) for x in payload["dims"])
        t = _tensor_from_rows(field, dims, payload["gauge"], where)
        inv = _tensor_from_rows(field, dims, payload["gauge_inv"], where)
        if base is None:
            raise ParseError("gauge file needs its base companion", path=path)
        return GaugeTransformation(base, t, inv)
    if kind == "comodule-algebra":
        base = parse(_resolve_companion(payload, path))
        alg = _alg_from_payload(field, payload["algebra"], where)
        d, dh = alg.dim, base.dim
        side = payload.get("side")
        dst = (d, dh) if side == "right" else (dh, d)
        re_dims = (d, dh, dh) if side == "right" else (dh, dh, d)
        coaction = LinMap.from_tensor(
            _tensor_from_rows(field, (d,) + dst, payload["coaction"], where), 1)
        reassoc = _tensor_from_rows(field, re_dims, payload["reassoc"], where)
        reassoc_inv = _tensor_from_rows(field, re_dims, payload["reassoc_inv"], where)
        return ComoduleAlgebra(base, side, alg, coaction, reassoc, reassoc_inv,
                               name=payload.get("name", ""))
    if kind == "bicomodule-algebra":
        base = parse(_resolve_companion(payload, path))
        alg = _alg_from_payload(field, payload["algebra"], where)
        d, dh = alg.dim, base.dim
        lam = LinMap.from_tensor(
            _tensor_from_rows(field, (d, dh, d), payload["left_coaction"], where), 1)
        rho = LinMap.from_tensor(
            _tensor_from_rows(field, (d, d, dh), payload["right_coaction"], where), 1)
        return BicomoduleAlgebra(
            base, alg, lam, rho,
            _tensor_from_rows(field, (dh, dh, d), payload["reassoc_left"], where),
            _tensor_from_rows(field, (d, dh, dh), payload["reassoc_right"], where),
            _tensor_from_rows(field, (dh, d, dh), payload["reassoc_mixed"], where),
            _tensor_from_rows(field, (dh, dh, d), payload["reassoc_left_inv"], where),
            _tensor_from_rows(field, (d, dh, dh), payload["reassoc_right_inv"], where),
            _tensor_from_rows(field, (dh, d, dh), payload["reassoc_mixed_inv"], where),
            name=payload.get("name", ""))
    if kind == "module-coalgebra":
        base = parse(_resolve_companion(payload, path))
        d = int(payload["dim"])
        dh = base.dim
        side = payload.get("side")
        comult = LinMap.from_tensor(
            _tensor_from_rows(field, (d,) * 3, payload["comult"], where), 1)
        counit = LinMap.from_tensor(_tensor_from_rows(field, (d,), payload["counit"], where), 1)
        left = right = None
        if "left_action" in payload:
            left = LinMap.from_tensor(
                _tensor_from_rows(field, (dh, d, d), payload["left_action"], where), 2)
        if "right_action" in payload:
            right = LinMap.from_tensor(
                _tensor_from_rows(field, (d, dh, d), payload["right_action"], where), 2)
        return ModuleCoalgebra(base, side, d, comult, counit,
                               left_action=left, right_action=right,
                               name=payload.get("name", ""))
    if kind == "product-algebra":
        alg = _alg_from_payload(field, payload["algebra"], where)
        factors = tuple(int(x) for x in payload.get("factors", (alg.dim, 1)))
        return ProductAlgebra(alg, factors, payload.get("name", "product"))
    raise ParseError("unknown kind %r" % (kind,), path=path)


def emit_value(value, path: str, base_path: str = None) -> str:
    """Serialize a domain value canonically; returns the content hash.

    Values that reference a base require ``base_path`` pointing at an
    already-emitted base file.
    """
    if isinstance(value, QuasiHopfAlgebra):
        return write_payload(quasi_hopf_payload(value), path)
    if isinstance(value, ProductAlgebra):
        return write_payload(product_algebra_payload(value), path)
    if base_path is None:
        raise ParseError("this kind of value needs a base_path companion")
    if isinstance(value, GaugeTransformation):
        ref = {"base": file_reference(base_path, os.path.dirname(path) or ".")}
        return write_payload(gauge_payload(value, companion=ref), path)
    ref = file_reference(base_path, os.path.dirname(path) or ".")
    if isinstance(value, ComoduleAlgebra):
        return write_payload(comodule_algebra_payload(value, ref), path)
    if isinstance(value, BicomoduleAlgebra):
        return write_payload(bicomodule_algebra_payload(value, ref), path)
    if isinstance(value, ModuleCoalgebra):
        return write_payload(module_coalgebra_payload(value, ref), path)
    raise ParseError("cannot serialize %r" % (value,))
