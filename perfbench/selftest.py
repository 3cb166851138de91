"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import quasihopf  # noqa: E402
import quasihopf.cli  # noqa: E402,F401
import quasihopf.io  # noqa: E402,F401
from quasihopf import fixtures  # noqa: E402
from quasihopf.fields import QQ, PrimeField  # noqa: E402
from quasihopf.hopf import gauge_twist, variant, verify_quasi_hopf  # noqa: E402
from quasihopf.tensor import Tensor, apply_linear_map, multiply, unit_tensor  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracer as tr  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_tree():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)
    root = t.begin_op(0, "op.x")                   # 0 .. 10
    clock.now = 1.0
    verify = t.open("hopf.verify_quasi_hopf")      # 1 .. 9
    clock.now = 2.0
    m1 = t.open("tensor.multiply")                 # 2 .. 5
    clock.now = 3.0
    inner = t.open("tensor.apply_linear_map")      # 3 .. 4
    clock.now = 4.0
    t.close(inner)
    clock.now = 5.0
    t.close(m1)
    clock.now = 6.0
    t._record("quasi-coassoc", True)               # charged 6 - 1 = 5
    m2 = t.open("tensor.multiply")                 # 6 .. 8
    clock.now = 8.0
    t.close(m2)
    t._record("cocycle", False)                    # charged 8 - 6 = 2
    clock.now = 9.0
    t.close(verify)
    clock.now = 10.0
    t.end_op(root)

    own = tr.self_times(t)
    assert own[m1] == 2.0            # 3 s long, 1 s in its child
    assert own[inner] == 1.0
    assert own[m2] == 2.0
    assert own[verify] == 8.0 - 3.0 - 2.0
    assert own[root] == 10.0 - 8.0
    assert tr.check_times(t) == [("quasi-coassoc", 5.0, verify), ("cocycle", 2.0, verify)]

    m = tr.summarize(t, passes=1)
    assert m["tensor.multiply.calls"][0] == 2
    assert m["tensor.multiply.self_s"][0] == 4.0
    assert m["hopf.verify_quasi_hopf.s"][0] == 8.0
    assert m["check.quasi-coassoc.s"][0] == 5.0
    assert m["check.cocycle.s"][0] == 2.0
    assert m["check.heavy_share_of_longest_verify"][0] == 7.0 / 8.0
    assert m["report.records"][0] == 2 and m["report.failed_records"][0] == 1


def test_nested_same_name_spans_count_once():
    clock = FakeClock()
    t = tr.Tracer(clock=clock)
    root = t.begin_op(0, "op.parse")
    outer = t.open("io.parse")
    clock.now = 1.0
    inner = t.open("io.parse")
    clock.now = 2.0
    t.close(inner)
    clock.now = 3.0
    t.close(outer)
    t.end_op(root)
    assert tr.summarize(t, passes=1)["io.parse.s"][0] == 3.0


def _bindings():
    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "quasihopf" or name.startswith("quasihopf."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    cls = quasihopf.report.CheckReport
    out[("CheckReport", "add")] = cls.add
    out[("CheckReport", "compare")] = cls.compare
    return out


def test_wrappers_are_gone_after_a_traced_run():
    before = _bindings()
    t = tr.Tracer()
    with t:
        assert quasihopf.tensor.multiply is not before[("quasihopf.tensor", "multiply")]
        assert quasihopf.hopf.multiply is quasihopf.tensor.multiply
        assert quasihopf.cli.multiply is quasihopf.tensor.multiply
        op = t.begin_op(0, "op.verify")
        assert verify_quasi_hopf is before[("quasihopf.hopf", "verify_quasi_hopf")]
        quasihopf.hopf.verify_quasi_hopf(fixtures.h2(QQ))
        t.end_op(op)
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert not changed, changed
    m = tr.summarize(t, passes=1)
    assert m["tensor.multiply.calls"][0] > 0
    assert m["check.quasi-coassoc.s"][0] > 0
    assert m["report.records"][0] == len(tr.QUASI_HOPF_CHECKS)


def _counit_normalized(H, F):
    unit = H.alg.unit
    return (apply_linear_map(H.counit, F.t, (0,)) == unit
            and apply_linear_map(H.counit, F.t, (1,)) == unit)


def test_generated_gauges_and_twisted_structures():
    for field in (QQ, PrimeField(10007)):
        for H in (inputs.sweedler(field), fixtures.h2(field)):
            assert verify_quasi_hopf(H).passed
            for seed in range(3):
                F = inputs.kernel_gauge(H, random.Random(seed))
                spaces = H.spaces(2)
                assert _counit_normalized(H, F)
                assert multiply(spaces, F.t, F.inv) == unit_tensor(spaces)
                assert multiply(spaces, F.inv, F.t) == unit_tensor(spaces)
                twisted = gauge_twist(H, F)
                assert verify_quasi_hopf(twisted).passed
    sw = inputs.sweedler(QQ)
    twisted = gauge_twist(sw, inputs.kernel_gauge(sw, random.Random(0)))
    for kind in ("op", "cop", "opcop"):
        assert verify_quasi_hopf(variant(twisted, kind)).passed


def test_sweedler_is_neither_commutative_nor_cocommutative():
    sw = inputs.sweedler(QQ)
    g = Tensor.basis(QQ, (4,), (1,))
    x = Tensor.basis(QQ, (4,), (2,))
    assert sw.alg.product(g, x) != sw.alg.product(x, g)
    flipped = variant(sw, "cop")
    assert flipped.comult.cols != sw.comult.cols


def test_mutations_are_caught():
    rng = random.Random(5)
    for field in (QQ, PrimeField(10007)):
        H = fixtures.h2(field)
        for value in (fixtures.kz2(field), H, fixtures.c2(field, H),
                      fixtures.hh_bicomodule(field, H),
                      fixtures.h2_bimodule_coalgebra(field, H)):
            module, name = inputs.verifier(value)
            verify = getattr(getattr(quasihopf, module), name)
            assert verify(inputs.rebuild(value)).passed
            for which in inputs.structure_maps(value):
                mutation = inputs.draw_mutation(value, rng, which)
                assert not verify(inputs.rebuild(value, mutation)).passed, mutation


def test_tail_percentile():
    assert run.tail(list(range(1, 101))) == (90, 90)
    q, value = run.tail(list(range(22)))
    assert q == 54 and value == 11
    assert run.tail([3.0, 1.0]) == (0, 1.0)


def test_harrell_davis_quantile():
    assert abs(run.hd_quantile([1, 2, 3, 4, 5], 0.5) - 3) < 1e-9
    assert run.hd_quantile([2.0], 0.9) == 2.0
    # one value trading ranks with its neighbour barely moves the estimate
    a = run.hd_quantile([1, 2, 3.0, 3.1, 5, 6], 0.5)
    b = run.hd_quantile([1, 2, 3.1, 3.2, 5, 6], 0.5)
    assert 0 < b - a < 0.1


def test_speed_normalization_arithmetic():
    s = speed.SpeedSampler(clock=FakeClock())
    # the reference loop took twice its nominal time: the machine ran at half speed
    s.starts = [0.0, 0.05, 0.10, 0.15]
    s.durations = [2 * speed.REF_NOMINAL_S] * 4
    # 0.2 s of wall time, minus the three loops that started inside, at half speed
    want = (0.2 - 3 * 2 * speed.REF_NOMINAL_S) * 0.5
    assert abs(s.normalize(0.04, 0.24) - want) < 1e-12
    assert s.busy(0.04, 0.24) == 3 * 2 * speed.REF_NOMINAL_S
    assert speed.SpeedSampler().speed(0.0, 1.0) == 1.0  # no samples: as timed
    # far from every sample, the nearest one decides
    s.durations[-1] = speed.REF_NOMINAL_S
    assert s.speed(10.0, 10.1) == 1.0


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d self-tests passed" % len(tests))
