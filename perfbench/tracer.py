"""Outside-in tracing of the ``quasihopf`` layers.

The tracer wraps public functions of the package from outside: every
module-level name in ``quasihopf.*`` that is bound to a traced function
is rebound to one wrapper, and ``CheckReport.add`` / ``compare`` are
replaced on the class.  ``remove`` puts every original back.  Nothing in
the package is edited, and an untraced run installs nothing.

Spans are kept in memory as flat lists (name, start, end, parent span,
op id, two counters) and written out when the run ends.  Kernels report
self time: a span's duration minus the time its direct child spans
cover (calls nest strictly in this single-threaded program, so the
children never overlap).  Orchestration spans report inclusive time,
counted once per outermost span of that name so recursion (``io.parse``
parses companion files) is not counted twice.

Per-check time comes from timestamps of ``CheckReport.add`` calls.  A
record belongs to the innermost enclosing verifier span; it is charged
the time since the previous record of that span, or since the span
started for the first record, so a verifier's shared preamble is charged
to its first check.

Which end-to-end metric each per-layer metric should move, and where
(workloads: scaled-verify = SV, cli-pipeline = CLI, mutation-sweep = MS):

* ``tensor.multiply.*``: ``wall_s`` on SV and ``op_p50_s`` on MS.
  ``pairs`` (sum of nnz(x) * nnz(y) over calls) moves with algorithmic
  changes, ``ns_per_pair`` (self time per pair, also per field) with
  kernel or scalar changes; ``out_per_pair`` is sum nnz(out) / pairs.
* ``tensor.invert_element.*``: ``wall_s`` on CLI (and ``setup_s`` on SV,
  where the gauge inverses are built); nothing else.  Its self time
  excludes the ``multiply`` and ``rref`` calls it makes; ``.s`` is
  inclusive.
* ``linalg.rref.*``: ``wall_s`` on CLI; ``cells`` is sum rows * cols.
* ``fields.fp_to_q_op_ratio`` (median op time on F_p over Q, untraced,
  MS only) and ``tensor.multiply.ns_per_pair.{q,fp}``: scalar changes.
* ``report.{records,failed_records}``, ``report.compare.self_s``:
  ``op_p50_s`` on MS, through the failure path.
* ``hopf.*.s`` and ``check.<id>.s``: ``wall_s`` on SV.  Their time in the
  dim-8 ops moves ``wall_s`` on SV and nothing else: only 2 of the 47 ops
  of a pass are dim-8, so the op at ``op_tail_s`` and the kinds around
  ``op_p50_s`` are dim-4 ops.  The heavy checks (``HEAVY_CHECKS``) inside
  the dim-4 verifies also move ``op_tail_s`` and ``op_p50_s`` on SV.
  ``check.heavy_share_of_longest_verify`` is their share of the longest
  ``verify_quasi_hopf`` span (the dim-8 one on SV).
* ``comodule``, ``modcoalg``, ``smash``, ``coring``, ``doihopf`` and
  ``yd`` spans: ``wall_s`` on CLI, and show which construction holds
  the inversions.
* ``io.*`` and ``cli.<command>.s``: ``op_p50_s`` and ``op_tail_s`` on CLI.

A metric of a layer a workload does not reach reads 0 on that workload.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

# (module, function): spans whose self time and counters are reported
KERNELS = (
    ("tensor", "multiply"),
    ("tensor", "apply_linear_map"),
    ("tensor", "invert_element"),
    ("linalg", "rref"),
)

# (module, function): orchestration spans, reported with inclusive time
SPANS = (
    ("hopf", "verify_quasi_hopf"), ("hopf", "drinfeld_twist"),
    ("hopf", "gauge_twist"), ("hopf", "variant"),
    ("comodule", "bicomodule_to_right_op_tensor"),
    ("comodule", "verify_comodule_algebra"),
    ("comodule", "verify_bicomodule_algebra"),
    ("modcoalg", "dualize"), ("modcoalg", "verify_module_coalgebra"),
    ("smash", "build_omega"), ("smash", "diagonal_crossed_product"),
    ("smash", "verify_product_algebra"), ("smash", "check_prop_3_10"),
    ("coring", "build_coring"), ("coring", "verify_coring"),
    ("doihopf", "induce_doi_hopf"), ("doihopf", "verify_doi_hopf"),
    ("doihopf", "adjunction_maps"),
    ("yd", "induce_yd"), ("yd", "verify_yd"), ("yd", "yd_to_doihopf"),
    ("yd", "doihopf_to_yd"),
    ("io", "parse"), ("io", "emit_value"),
)

# every check id verify_quasi_hopf records, in the order it records them
QUASI_HOPF_CHECKS = (
    "mult-associative", "unit-two-sided", "comult-multiplicative",
    "comult-unital", "counit-multiplicative", "counit-unital",
    "reassoc-invertible", "quasi-coassoc", "counit-comult", "cocycle",
    "reassoc-counit-middle", "reassoc-counit-left", "reassoc-counit-right",
    "antipode-antimultiplicative", "antipode-unital", "antipode-invertible",
    "antipode-cancel-left", "antipode-cancel-right", "zigzag-forward",
    "zigzag-backward", "alpha-beta-normalized",
)
HEAVY_CHECKS = ("quasi-coassoc", "cocycle", "reassoc-invertible")

COMPARE = "report.compare"


def _is_verifier(name: str) -> bool:
    fn = name.split(".", 1)[1]
    return fn.startswith("verify_") or fn in ("check_prop_3_10", "adjunction_maps")


def _counters(name, args, result):
    """Work counts of one call, taken from its arguments and result:
    (count a, count b, scalar characteristic)."""
    if name == "tensor.multiply":
        x, y = args[1], args[2]
        return len(x.data) * len(y.data), len(result.data), x.field.characteristic
    if name == "tensor.apply_linear_map":
        return len(args[1].data), 0, 0
    if name == "tensor.invert_element":
        n = 1
        for d in args[1].dims:
            n *= d
        return n, 0, 0
    if name == "linalg.rref":
        matrix = args[1]
        return len(matrix) * (len(matrix[0]) if matrix else 0), 0, 0
    if name == "io.emit_value":
        return os.path.getsize(args[1]), 0, 0
    return 0, 0, 0


class Tracer:
    """Span recorder.  ``install`` wraps, ``remove`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []     # per span
        self.starts = []
        self.ends = []
        self.parents = []   # index of the enclosing span, or -1
        self.ops = []       # op id the span ran under, or -1
        self.count_a = []
        self.count_b = []
        self.fields = []    # scalar characteristic, for multiply
        self.records = []   # (time, check id, passed, innermost verifier span, op)
        self._stack = []
        self._op = -1
        self._restore = []

    # -- recording ----------------------------------------------------------

    def open(self, name) -> int:
        i = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.count_a.append(0)
        self.count_b.append(0)
        self.fields.append(0)
        self._stack.append(i)
        return i

    def close(self, i):
        self.ends[i] = self.clock()
        self._stack.pop()

    def begin_op(self, op_id, name):
        """Open the root span of one benchmark op."""
        self._op = op_id
        return self.open(name)

    def end_op(self, i):
        self.close(i)
        self._op = -1

    def _record(self, check_id, passed):
        verifier = self._stack[-1] if self._stack else -1
        while verifier >= 0 and not _is_verifier(self.names[verifier]):
            verifier = self.parents[verifier]
        self.records.append((self.clock(), check_id, passed, verifier, self._op))

    # -- installing ---------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            # counted after the span closed, so the counting is not timed
            tracer.count_a[i], tracer.count_b[i], tracer.fields[i] = \
                _counters(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        """Wrap every traced function under every name that binds it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("quasihopf")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "quasihopf" or n.startswith("quasihopf."))]
        replace = {}
        for mod, fn_name in KERNELS + SPANS:
            fn = getattr(importlib.import_module("quasihopf." + mod), fn_name)
            replace[id(fn)] = (fn, self._wrap("%s.%s" % (mod, fn_name), fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

        report_cls = package.report.CheckReport
        add, compare = report_cls.add, report_cls.compare
        tracer = self

        def traced_add(rep, check_id, passed, *args, **kwargs):
            tracer._record(check_id, passed)
            return add(rep, check_id, passed, *args, **kwargs)

        self._restore.append((report_cls, "add", add))
        self._restore.append((report_cls, "compare", compare))
        report_cls.add = traced_add
        report_cls.compare = self._wrap(COMPARE, compare)

    def remove(self):
        """Put back every original binding."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- output ---------------------------------------------------------------

    def dump(self, path):
        """Write the spans as tab-separated lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\tcount_a\tcount_b\n")
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.ops, self.count_a, self.count_b):
                fh.write("%s\t%.9f\t%.9f\t%d\t%d\t%d\t%d\n" % row)


# -- summaries ------------------------------------------------------------------

def self_times(tracer: Tracer):
    """Per span: duration minus the durations of its direct children."""
    out = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            out[parent] -= tracer.ends[i] - tracer.starts[i]
    return out


def _outermost(tracer: Tracer, i: int) -> bool:
    name = tracer.names[i]
    p = tracer.parents[i]
    while p >= 0:
        if tracer.names[p] == name:
            return False
        p = tracer.parents[p]
    return True


def check_times(tracer: Tracer):
    """(check id, seconds, verifier span) per record, by the rule in the
    module docstring."""
    last = {}
    out = []
    for t, check_id, _passed, verifier, _op in tracer.records:
        if verifier < 0:
            continue
        prev = last.get(verifier, tracer.starts[verifier])
        out.append((check_id, t - prev, verifier))
        last[verifier] = t
    return out


def summarize(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per traced pass, from the spans of timed ops."""
    n = max(1, passes)
    own = self_times(tracer)
    calls, self_s, count_a, count_b, incl = {}, {}, {}, {}, {}
    max_n = 0
    pairs_by_field = {}
    for i, name in enumerate(tracer.names):
        if tracer.ops[i] < 0:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        count_a[name] = count_a.get(name, 0) + tracer.count_a[i]
        count_b[name] = count_b.get(name, 0) + tracer.count_b[i]
        if _outermost(tracer, i):
            incl[name] = incl.get(name, 0.0) + tracer.ends[i] - tracer.starts[i]
        if name == "tensor.invert_element":
            max_n = max(max_n, tracer.count_a[i])
        elif name == "tensor.multiply":
            key = "q" if tracer.fields[i] == 0 else "fp"
            agg = pairs_by_field.setdefault(key, [0, 0.0])
            agg[0] += tracer.count_a[i]
            agg[1] += own[i]

    m = {}

    def put(metric, value, unit):
        m[metric] = (value, unit)

    pairs = count_a.get("tensor.multiply", 0)
    mult_s = self_s.get("tensor.multiply", 0.0)
    put("tensor.multiply.calls", calls.get("tensor.multiply", 0) / n, "count")
    put("tensor.multiply.pairs", pairs / n, "count")
    put("tensor.multiply.self_s", mult_s / n, "s")
    put("tensor.multiply.ns_per_pair", 1e9 * mult_s / pairs if pairs else 0.0, "ns")
    put("tensor.multiply.out_per_pair",
        count_b.get("tensor.multiply", 0) / pairs if pairs else 0.0, "ratio")
    for key in ("q", "fp"):
        agg = pairs_by_field.get(key, [0, 0.0])
        put("tensor.multiply.ns_per_pair.%s" % key,
            1e9 * agg[1] / agg[0] if agg[0] else 0.0, "ns")
    put("tensor.apply_linear_map.calls", calls.get("tensor.apply_linear_map", 0) / n, "count")
    put("tensor.apply_linear_map.entries",
        count_a.get("tensor.apply_linear_map", 0) / n, "count")
    put("tensor.apply_linear_map.self_s", self_s.get("tensor.apply_linear_map", 0.0) / n, "s")
    put("tensor.invert_element.calls", calls.get("tensor.invert_element", 0) / n, "count")
    put("tensor.invert_element.max_n", max_n, "count")
    put("tensor.invert_element.self_s", self_s.get("tensor.invert_element", 0.0) / n, "s")
    put("tensor.invert_element.s", incl.get("tensor.invert_element", 0.0) / n, "s")
    put("linalg.rref.calls", calls.get("linalg.rref", 0) / n, "count")
    put("linalg.rref.cells", count_a.get("linalg.rref", 0) / n, "count")
    put("linalg.rref.self_s", self_s.get("linalg.rref", 0.0) / n, "s")

    in_ops = [r for r in tracer.records if r[4] >= 0]
    put("report.records", len(in_ops) / n, "count")
    put("report.failed_records", sum(1 for r in in_ops if not r[2]) / n, "count")
    put("report.compare.self_s", self_s.get(COMPARE, 0.0) / n, "s")

    for mod, fn in SPANS:
        name = "%s.%s" % (mod, fn)
        put(name + ".s", incl.get(name, 0.0) / n, "s")

    def duration(i):
        return tracer.ends[i] - tracer.starts[i]

    verifies = [i for i, name in enumerate(tracer.names)
                if name == "hopf.verify_quasi_hopf" and tracer.ops[i] >= 0]
    longest = max(verifies, key=duration, default=None)
    per_check, heavy = {}, 0.0
    for check_id, seconds, verifier in check_times(tracer):
        if tracer.names[verifier] == "hopf.verify_quasi_hopf" and tracer.ops[verifier] >= 0:
            per_check[check_id] = per_check.get(check_id, 0.0) + seconds
            if verifier == longest and check_id in HEAVY_CHECKS:
                heavy += seconds
    for check_id in QUASI_HOPF_CHECKS:
        put("check.%s.s" % check_id, per_check.get(check_id, 0.0) / n, "s")
    put("check.heavy_share_of_longest_verify",
        heavy / duration(longest) if longest is not None else 0.0, "ratio")
    put("io.bytes_written", count_a.get("io.emit_value", 0) / n, "bytes")
    return m
