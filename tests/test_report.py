import os
import subprocess
import sys

import quasihopf
from quasihopf.fields import QQ
from quasihopf.fixtures import h2, h2_bimodule_coalgebra, hh_bicomodule
from quasihopf.comodule import BicomoduleAlgebra, canonical_elements
from quasihopf.modcoalg import ModuleAlgebra, dualize, verify_module_algebra
from quasihopf.report import CheckReport
from quasihopf.tensor import LinMap


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
    ok = report.sweep("ok", [(0,)], lambda item: (1, 1), fatal=False)
    bad = report.sweep("bad", [(0,)], lambda item: (1, 2), fatal=False)
    assert not ok.fatal and not bad.fatal
    assert not bad.passed
    assert report.passed


def test_sweep_over_no_items_passes():
    record = CheckReport("s").sweep("id", [], lambda item: (0, 1))
    assert record.passed


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
