"""Structure files of every kind and side: emit -> parse -> emit is
byte-identical, and the first emit has pinned canonical bytes, so the
layout of each kind cannot drift."""

import hashlib

import pytest

from quasihopf import io
from quasihopf.fixtures import c2, h2, regular_comodule_algebra
from quasihopf.smash import koppinen_smash

from test_hopf import seeded_gauge, sweedler


def _comodule(side):
    def build(field):
        H = h2(field)
        return regular_comodule_algebra(H, side), H
    return build


def _left_module_coalgebra(field):
    C = c2(field).reflect("op")
    return C, C.H


def _gauge(field):
    H = sweedler(field)
    return seeded_gauge(H, 7), H


def _product(field):
    C = c2(field)
    return koppinen_smash(C, regular_comodule_algebra(C.H, "left")), None


CASES = {
    "comodule-left": _comodule("left"),
    "comodule-right": _comodule("right"),
    "module-coalgebra-left": _left_module_coalgebra,
    "gauge": _gauge,
    "product": _product,
}

# sha256 of the first emit, keyed by case and field characteristic
DIGESTS = {
    ("comodule-left", 0): "09051241be38de5d4da46eadb27dd5c54f48a44aa97d67132ba3ef472032b69f",
    ("comodule-left", 10007): "486c653af3ab2d2b00dac7b393f8c09c514bc13b8e9f7c5d02afb8143bd167df",
    ("comodule-right", 0): "25b626f5491e37d8d1f2a7131dc2478e7820a417fcceffdcb8c12051ca3ed530",
    ("comodule-right", 10007): "072124cacba16dd68121f0bf2a501ef77332be6a7a81ee8ddd73c70eab222a43",
    ("gauge", 0): "fc2c6f7cfa6e2463b05e1b4d0c3cd9540a40fcb34f58163ba237a2dfe3634741",
    ("gauge", 10007): "9378bcbbfd7bf92cba10db75be0ced55ea0949a23c6679f2fb15fc8c14c59d9a",
    ("module-coalgebra-left", 0):
        "e1675081a91b52751cfa365d547149676d83cf2fa49b75df702c29e0a4de26c7",
    ("module-coalgebra-left", 10007):
        "e806dd7dc8437dfcdc859cfff6ef917ccb3f1f367280f6f76ba95c04c680d205",
    ("product", 0): "363f5671ed3fcf1eb3038e00f506df5f74ab8aaeed2e55113811842e9de60130",
    ("product", 10007): "46300a26f507082aa5743e320f46fd85030b3dde4a900ed99b8d018fcde0138a",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_emit_parse_emit_is_byte_identical(tmp_path, field, case):
    value, base = CASES[case](field)
    path = str(tmp_path / ("value" + io.SUFFIX))
    base_path = None
    if base is not None:
        base_path = str(tmp_path / ("base" + io.SUFFIX))
        io.emit_value(base, base_path)
    io.emit_value(value, path, base_path=base_path)
    first = open(path, "rb").read()
    assert hashlib.sha256(first).hexdigest() == DIGESTS[case, field.characteristic]
    io.emit_value(io.parse(path), path, base_path=base_path)
    assert open(path, "rb").read() == first
