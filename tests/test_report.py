import os
import random
import subprocess
import sys

import pytest

import quasihopf
from quasihopf.errors import ShapeMismatch
from quasihopf.fields import QQ, PrimeField
from quasihopf.fixtures import h2, h2_bimodule_coalgebra, hh_bicomodule
from quasihopf.comodule import BicomoduleAlgebra, canonical_elements
from quasihopf.modcoalg import ModuleAlgebra, dualize, verify_module_algebra
from quasihopf.report import CheckRecord, CheckReport
from quasihopf.tensor import LinMap, Tensor, all_indices


def test_sweep_pass_records_once_without_witness():
    report = CheckReport("s")
    record = report.sweep("id", [(0,), (1,), (2,)], lambda item: (item, item))
    assert report.records == [record]
    assert record.passed and record.fatal
    assert record.witness is None and record.lhs is None and record.rhs is None


def test_sweep_stops_at_first_failure():
    calls = []

    def fn(item):
        calls.append(item)
        return item[0] * 2, 4 if item[0] < 5 else 10

    report = CheckReport("s")
    record = report.sweep("id", [(i,) for i in range(8)], fn)
    assert report.records == [record]
    assert not record.passed
    assert record.witness == (0,)
    assert (record.lhs, record.rhs) == (0, 4)
    assert calls == [(0,)]


def test_sweep_witness_is_first_failing_item_in_order():
    calls = []

    def fn(item):
        calls.append(item)
        side, i = item
        return i, (i if (side, i) != ("right", 1) else -1)

    items = [(side, i) for i in range(3) for side in ("left", "right")]
    record = CheckReport("s").sweep("id", items, fn)
    assert record.witness == ("right", 1)
    assert (record.lhs, record.rhs) == (1, -1)
    assert calls == items[:4]


def test_sweep_advisory_flag_passes_through():
    report = CheckReport("s")
    report.add("ok", True, fatal=False)
    report.add("bad", False, (0,), 1, 2, fatal=False)
    ok, bad = report.records
    assert not ok.fatal and not bad.fatal
    assert not bad.passed
    assert report.passed


def test_sweep_over_no_items_passes():
    record = CheckReport("s").sweep("id", [], lambda item: (0, 1))
    assert record.passed


def _side(field, dims, data):
    return Tensor(field, dims, {k: field.from_int(v) for k, v in data.items()})


def test_sweep_all_pass_records_once_without_witness():
    t = _side(QQ, (2, 3), {(0, 1): 1, (1, 2): 4})
    report = CheckReport("s")
    record = report.sweep_all("id", (2,), t, t)
    assert report.records == [record]
    assert record.passed and record.fatal
    assert record.witness is None and record.lhs is None and record.rhs is None


def test_sweep_all_witness_is_first_failing_item_in_row_major_order():
    # item (0, 1) differs only at its last index, item (1, 0) at its first;
    # the earlier item wins although the later one differs at a smaller index
    lhs = _side(QQ, (2, 2, 3), {(0, 0, 0): 1, (0, 1, 2): 5, (1, 0, 0): 7})
    rhs = _side(QQ, (2, 2, 3), {(0, 0, 0): 1, (0, 1, 2): 6, (1, 0, 0): 8})
    record = CheckReport("s").sweep_all("id", (2, 2), lhs, rhs)
    assert not record.passed
    assert record.witness == (0, 1)


def test_sweep_all_records_slices_over_the_remaining_legs():
    lhs = _side(QQ, (3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 2, (1, 1, 0): 3, (2, 0, 0): 9})
    rhs = _side(QQ, (3, 2, 2), {(0, 0, 0): 1, (1, 0, 1): 2, (2, 0, 0): 8})
    record = CheckReport("s").sweep_all("id", (3,), lhs, rhs)
    assert record.witness == (1,)
    assert record.lhs == _side(QQ, (2, 2), {(0, 1): 2, (1, 0): 3})
    assert record.rhs == _side(QQ, (2, 2), {(0, 1): 2})
    assert isinstance(record.lhs, Tensor) and isinstance(record.rhs, Tensor)


def test_sweep_all_equals_sweep_on_the_slices():
    field = PrimeField(10007)
    rng = random.Random(4)
    dims = (3, 2, 2, 2)
    failed = 0
    for _ in range(40):
        data = {idx: rng.randrange(3) for idx in all_indices(dims)}
        lhs = _side(field, dims, data)
        bumped = dict(data)
        for _ in range(rng.randrange(3)):
            idx = tuple(rng.randrange(d) for d in dims)
            bumped[idx] += rng.randrange(1, 3)
        rhs = _side(field, dims, bumped)

        def pair(item):
            return tuple(Tensor(field, dims[2:], {idx[2:]: v for idx, v in t.data.items()
                                                  if idx[:2] == item}) for t in (lhs, rhs))

        want = CheckReport("s").sweep("id", all_indices(dims[:2]), pair)
        assert CheckReport("s").sweep_all("id", dims[:2], lhs, rhs) == want
        failed += not want.passed
    assert 10 <= failed <= 30


def test_sweep_all_rejects_sides_off_the_items():
    t = _side(QQ, (2, 3), {(0, 1): 1})
    with pytest.raises(ShapeMismatch):
        CheckReport("s").sweep_all("id", (3,), t, t)
    with pytest.raises(ShapeMismatch):
        CheckReport("s").sweep_all("id", (2,), t, _side(QQ, (2, 2), {}))


def _ids(report):
    return [r.check_id for r in report.records]


def test_failing_module_algebra_keeps_every_check_id():
    # doubling the left action breaks the left laws; the right-side records
    # are still present, in the order of the passing report
    H = h2(QQ)
    A = dualize(h2_bimodule_coalgebra(QQ, H))
    left = LinMap(QQ, A.left_action.src, A.left_action.dst,
                  {k: {i: 2 * v for i, v in col.items()}
                   for k, col in A.left_action.cols.items()})
    bad = ModuleAlgebra(H, "bi", A.alg, left, A.right_action)
    report = verify_module_algebra(bad)
    assert not report.passed
    assert _ids(report) == _ids(verify_module_algebra(A))
    failed = {r.check_id for r in report.records if not r.passed}
    assert "action-distributive-left" in failed


def test_failing_canonical_elements_keep_every_check_id():
    H = h2(QQ)
    A = hh_bicomodule(QQ, H)
    # scale the left coaction: both slide-through identities fail
    lam = LinMap(QQ, A.left_coaction.src, A.left_coaction.dst,
                 {k: {i: 3 * v for i, v in col.items()}
                  for k, col in A.left_coaction.cols.items()})
    bad = BicomoduleAlgebra(H, A.alg, lam, A.right_coaction, A.reassoc_left,
                            A.reassoc_right, A.reassoc_mixed, A.reassoc_left_inv,
                            A.reassoc_right_inv, A.reassoc_mixed_inv)
    report = canonical_elements(bad).report
    assert _ids(report) == _ids(canonical_elements(A).report)
    by_id = {r.check_id: r for r in report.records}
    for law in ("p", "q"):
        record = by_id["coaction-slides-through-" + law]
        assert not record.passed and record.witness is not None
        assert record.lhs != record.rhs


def test_package_import_starts_no_thread_pool():
    # a pool reintroduced by accident would pull concurrent.futures in
    src = os.path.dirname(os.path.dirname(quasihopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, quasihopf, quasihopf.cli, quasihopf.io; "
            "sys.exit('concurrent.futures' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_records_compare_field_by_field():
    record = CheckRecord("id", False, (1, 0), QQ.one, QQ.zero)
    assert record == CheckRecord("id", False, (1, 0), QQ.one, QQ.zero, True)
    for other in (CheckRecord("id", False, (1, 0), QQ.one, QQ.zero, False),
                  CheckRecord("id", False, (0, 1), QQ.one, QQ.zero)):
        assert record != other
    assert repr(record) == ("CheckRecord(check_id='id', passed=False, witness=(1, 0), "
                            "lhs=Fraction(1, 1), rhs=Fraction(0, 1), fatal=True)")
    report = CheckReport("s")
    report.records.append(record)
    assert report == CheckReport("s", [record]) != CheckReport("t", [record])
    assert report != CheckReport("s") and record != ("id", False)


def test_package_import_loads_no_dataclasses():
    # dataclasses pulls in inspect, ast and dis: about 1 MB of resident
    # memory in every process that imports the package
    src = os.path.dirname(os.path.dirname(quasihopf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, quasihopf, quasihopf.cli, quasihopf.io; "
            "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0 and done.stdout.split() == []
