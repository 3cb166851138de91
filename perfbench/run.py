"""Time-to-verdict benchmark for the quasihopf toolkit.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` and nothing is installed.  Everything runs in this one process,
single-threaded, with ``jobs=1``; no thread or subprocess is started.

Workloads (the seed draws every generated input):

* ``scaled-verify`` (F_10007): one op is one library call, or a
  ``gauge_twist`` and the ``verify_quasi_hopf`` of its result.  Per pass,
  on h2(x)h2 and on a seeded gauge twist of Sweedler's algebra with its
  op, cop and opcop variants (all dim 4): ``verify_quasi_hopf``,
  ``drinfeld_twist`` on an uncached instance, and ``gauge_twist`` by that
  twist followed by ``verify_quasi_hopf``; on h2^(x)3 (dim 8):
  ``verify_quasi_hopf`` and ``drinfeld_twist``.  The dim-4 ops run three
  times per pass, before, between and after the two dim-8 ops, so their
  samples spread over the pass.  Twisting and verifying again at dim 8
  is left out to keep a pass near 30 s at reference speed (see below).
  A pass is the unit of measurement, so a run makes at least one whole
  pass even when that takes longer than ``--seconds``.  With one pass
  per run, only 2 of a run's 47 op latencies are dim-8 ones, so the
  dim-8 ops move ``wall_s`` and not ``op_p50_s`` or ``op_tail_s``.
* ``cli-pipeline`` (Q): one op is one in-process ``quasihopf.cli.main``
  call.  A pass runs the 20 README commands in README order in a fresh
  directory, each with ``--report``, then checks a seeded counit-normalized
  gauge of h2 with ``qha check``, twists h2 by it with ``qha twist`` and
  checks the result.
* ``mutation-sweep`` (Q and F_10007): one op rebuilds one 2-dim fixture
  and runs its verifier.  A pass has every fixture unmutated on both
  fields (must pass) and, per field, fixture and structure map, five
  seeded single-entry mutations (must fail), in seeded order.

A run repeats passes while the next one is expected to end within
``--seconds`` at reference speed, so on a slow machine a run takes
longer.  End-to-end metrics come from untraced passes.  Every time in
them is in seconds at reference speed: the untraced run keeps a
``speed.SpeedSampler`` active, which times a fixed reference loop every
50 ms, and each interval is corrected by the machine's speed measured
during it (see ``speed.py``).  The uncorrected figures are printed
beside the metrics.

* ``setup_s``: the median of five set-ups, each a fresh import of
  ``quasihopf`` and a build of the inputs (bases, gauges and their
  inverses, the op list of the first pass, pre-drawn mutations);
* ``wall_s``: median over passes of the time from a pass's first op to
  its last verdict; the benchmark's own correctness checks run after the
  pass and are not counted;
* ``op_p50_s``: the median, over the kinds of op (their labels), of
  each kind's median latency in the run.  A median over all op
  latencies at once lands in a gap between clusters of latencies (the
  README commands on ``cli-pipeline`` and the dim-4 ops on
  ``scaled-verify``) and jumps across it from run to run;
* ``op_tail_s``: the op latency, over all passes, at the highest
  percentile with at least ten samples beyond it;
* ``peak_rss_mb``: peak resident memory of this process.

The two quantiles are Harrell-Davis estimates (``hd_quantile``), not
single order statistics: several kinds of op sit close to the median on
``cli-pipeline``, and whichever of them ranked in the middle set a plain
median, which swung by 20% from run to run.

An op fails if it raises, returns the wrong verdict or exit code, gives
a ``drinfeld_twist`` result that is not a two-sided inverse pair, or
writes ``--report`` bytes that differ between passes of one run (or
between the untraced and the traced passes).  ``fail_ratio`` is printed
by name; the result line carries it as ``failed`` over ``attempted``,
and the run exits 1 when any op failed.

With ``--trace 1`` the run alternates an untraced pass over the
workload's probe ops (every op but the dim-8 ones on ``scaled-verify``)
with a traced pass over all ops of the same pass, with the tracer of
``tracer.py`` installed only for the traced pass.  It reports the
per-layer metrics per traced pass, and ``trace.overhead_ratio``: the
median over pass pairs of traced over untraced time of the probe ops,
minus 1.  The traced run does not sample the machine's speed, so its
times are as timed.

``--workload all`` runs the three workloads one after another in this
process (``peak_rss_mb`` is then the peak so far) and ends with one JSON
line whose metric names carry the workload as a prefix.

The last line of standard output is the JSON result.  A record of each
run (environment, metrics, baseline comparison) and, for traced runs,
the spans, are written under ``.perfbench-run/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io as stdio
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from speed import SpeedSampler

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench-run")
P = 10007
SETUP_REPEATS = 5
MUTATIONS_PER_MAP = 5
MUTATION_PASSES = 32  # mutation draws are made in set-up for this many passes

# ROADMAP baseline table, F_10007 unless noted (seconds)
BASELINE = {
    "verify h2(x)h2": 0.28,
    "verify h2^(x)3": 27.6,
    "dtwist h2^(x)3": 5.3,
    "qha verify prop-3.10 on h2 (Q, with import)": 2.04,
}


def _import_package():
    """Import quasihopf afresh from this checkout's src/, or exit 2.

    Earlier imports are dropped first, with the benchmark's ``inputs``,
    which binds the package's classes, so every set-up pays the import."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules
                 if m in ("quasihopf", "inputs") or m.startswith("quasihopf.")]:
        del sys.modules[name]
    try:
        import quasihopf
        import quasihopf.cli  # the package does not import cli and io itself
        import quasihopf.io
    except ImportError as exc:
        print("cannot import quasihopf from %s: %s" % (SRC, exc), file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(quasihopf.__file__).startswith(SRC + os.sep):
        print("quasihopf was imported from %s, not from %s"
              % (quasihopf.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    return quasihopf


class Op:
    """One timed call.  ``fn`` runs the call; ``check`` maps its result to
    None (correct) or a description of the mismatch."""

    __slots__ = ("label", "fn", "check", "probe", "field", "span")

    def __init__(self, label, fn, check, probe=True, field="fp", span=None):
        self.label = label
        self.fn = fn
        self.check = check
        self.probe = probe
        self.field = field
        self.span = span or "op." + label


def _expect_pass(report):
    return None if report.passed else "verdict FAIL, expected PASS"


def _expect_fail(report):
    return None if not report.passed else "verdict PASS, expected FAIL"


# -- workloads -------------------------------------------------------------------

class Workload:
    """What every workload provides besides ``ops(p)``, the op list of
    pass ``p`` built on fresh instances."""

    max_passes = 64

    def prepare(self):
        """Per-pass work directory, or None."""
        return None

    def check_reports(self, work, ops):
        """Mismatches found in ``work`` after a pass, by op label."""
        return {}

    def baseline(self, latencies, import_s):
        """(what, ROADMAP seconds, measured seconds) rows."""
        return []


class ScaledVerify(Workload):
    name = "scaled-verify"

    def __init__(self, qh, seed):
        from inputs import kernel_gauge, sweedler, tensor_power
        self.qh = qh
        field = qh.PrimeField(P)
        h2 = qh.fixtures.h2(field)
        sw = sweedler(field)
        twisted = qh.hopf.gauge_twist(sw, kernel_gauge(sw, random.Random(seed)))
        self.dim4 = [("h2(x)h2", tensor_power(h2, 2)), ("sweedler_F", twisted)]
        self.dim4 += [("sweedler_F^" + k, qh.hopf.variant(twisted, k))
                      for k in ("op", "cop", "opcop")]
        self.dim8 = ("h2^(x)3", tensor_power(h2, 3))

    def _base_ops(self, label, H, steps):
        """The ``steps`` of one base, on fresh (uncached) copies of it."""
        from inputs import rebuild
        hopf, tensor = self.qh.hopf, self.qh.tensor
        probe = H is not self.dim8[1]
        B, D = rebuild(H), rebuild(H)
        got = {}  # results passed on to the next op of the same base

        def dtwist():
            got["twist"] = hopf.drinfeld_twist(D)
            return got["twist"]

        def check_twist(f):
            spaces = D.spaces(2)
            one = tensor.unit_tensor(spaces)
            ok = (tensor.multiply(spaces, f.t, f.inv) == one
                  and tensor.multiply(spaces, f.inv, f.t) == one)
            return None if ok else "drinfeld_twist result is not a two-sided inverse pair"

        table = {
            "verify": (lambda: hopf.verify_quasi_hopf(B), _expect_pass),
            "dtwist": (dtwist, check_twist),
            "twist-verify": (lambda: hopf.verify_quasi_hopf(
                hopf.gauge_twist(D, got["twist"])), _expect_pass),
        }
        return [Op("%s %s" % (step, label), *table[step], probe=probe) for step in steps]

    def ops(self, p):
        """Three blocks of dim-4 ops around the two dim-8 ops, so that the
        dim-4 samples spread over the whole pass."""
        steps = ("verify", "dtwist", "twist-verify")
        label, H8 = self.dim8

        def block():
            return [op for name, H in self.dim4 for op in self._base_ops(name, H, steps)]
        # twisting and verifying again at dim 8 would add ~30 s to every pass
        return (block() + self._base_ops(label, H8, ("verify",))
                + block() + self._base_ops(label, H8, ("dtwist",)) + block())

    def baseline(self, latencies, import_s):
        rows = []
        for label in ("verify h2(x)h2", "verify h2^(x)3", "dtwist h2^(x)3"):
            if latencies.get(label):
                rows.append((label + " (F_10007)", BASELINE[label],
                             statistics.median(latencies[label])))
        return rows


README_COMMANDS = (
    ("fixture-emit-h2", "fixture emit h2"),
    ("check", "check h2.qha.json"),
    ("dtwist", "dtwist h2.qha.json --out f.qha.json"),
    ("twist", "twist h2.qha.json --gauge f.qha.json --out h2f.qha.json"),
    ("fixture-emit-c2", "fixture emit c2"),
    ("fixture-emit-hh-bicomodule", "fixture emit hh-bicomodule"),
    ("fixture-emit-h2-bimodule-coalgebra", "fixture emit h2-bimodule-coalgebra"),
    ("build-smash", "build smash --coalgebra c2.qha.json"),
    ("build-koppinen", "build koppinen --coalgebra c2.qha.json"),
    ("build-diagonal", "build diagonal --bicomodule hh-bicomodule.qha.json"
     " --coalgebra h2-bimodule-coalgebra.qha.json --kind right-l"),
    ("build-rsmash", "build rsmash --bicomodule hh-bicomodule.qha.json"
     " --coalgebra h2-bimodule-coalgebra.qha.json"),
    ("build-coring", "build coring --kind YD --bicomodule hh-bicomodule.qha.json"
     " --coalgebra h2-bimodule-coalgebra.qha.json"),
    ("convert-variant", "convert variant --input h2.qha.json --kind cop"
     " --out h2cop.qha.json"),
    ("convert-bicomodule-r1r2", "convert bicomodule-r1r2 --input hh-bicomodule.qha.json"),
    ("convert-yd2dh", "convert yd2dh --bicomodule hh-bicomodule.qha.json"
     " --coalgebra h2-bimodule-coalgebra.qha.json"),
    ("verify-iso-2.9", "verify iso-2.9 --C c2.qha.json"),
    ("verify-prop-3.10", "verify prop-3.10 --A hh-bicomodule.qha.json"
     " --C h2-bimodule-coalgebra.qha.json"),
    ("verify-roundtrip-3.8", "verify roundtrip-3.8 --A hh-bicomodule.qha.json"
     " --C h2-bimodule-coalgebra.qha.json"),
    ("verify-rat-2.5", "verify rat-2.5 --C c2.qha.json"),
    ("verify-adjunction-2.2", "verify adjunction-2.2 --C c2.qha.json"),
)
# after the README pipeline: check the seeded gauge g.qha.json, twist by it,
# check the result
SEEDED_COMMANDS = (
    ("check-gauge", "check g.qha.json"),
    ("twist-seeded", "twist h2.qha.json --gauge g.qha.json --out h2g.qha.json"),
    ("check-twisted", "check h2g.qha.json"),
)
CLI_COMMANDS = README_COMMANDS + SEEDED_COMMANDS


class CliPipeline(Workload):
    name = "cli-pipeline"

    def __init__(self, qh, seed):
        from inputs import kernel_gauge
        self.qh = qh
        self.h2 = qh.fixtures.h2(qh.QQ)
        self.gauge = kernel_gauge(self.h2, random.Random(seed))
        self.reference = {}  # label -> report bytes of the first pass

    def prepare(self):
        """Make the pass directory, holding h2 and the seeded gauge."""
        os.makedirs(os.path.join(RUN_DIR, "work"), exist_ok=True)
        work = tempfile.mkdtemp(prefix="cli-", dir=os.path.join(RUN_DIR, "work"))
        self.qh.io.emit_value(self.h2, os.path.join(work, "h2.qha.json"))
        self.qh.io.emit_value(self.gauge, os.path.join(work, "g.qha.json"),
                              base_path=os.path.join(work, "h2.qha.json"))
        return work

    def ops(self, p):
        cli = self.qh.cli
        out = []
        for label, command in CLI_COMMANDS:
            argv = ["--report", label + ".report.json"] + command.split()

            def check(code):
                return None if code == 0 else "exit code %r, expected 0" % (code,)
            out.append(Op(label, lambda argv=argv: cli.main(argv), check,
                          field="q", span="cli." + label))
        return out

    def check_reports(self, work, ops):
        """Compare every --report file with the first pass's bytes."""
        problems = {}
        for op in ops:
            path = os.path.join(work, op.label + ".report.json")
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                problems[op.label] = "no report: %s" % exc
                continue
            ref = self.reference.setdefault(op.label, data)
            if data != ref:
                problems[op.label] = "report bytes differ from the first pass"
        return problems

    def baseline(self, latencies, import_s):
        times = latencies.get("verify-prop-3.10")
        if not times:
            return []
        return [("qha verify prop-3.10 on h2 (Q, with import)",
                 BASELINE["qha verify prop-3.10 on h2 (Q, with import)"],
                 statistics.median(times) + import_s)]


class MutationSweep(Workload):
    name = "mutation-sweep"
    max_passes = MUTATION_PASSES

    def __init__(self, qh, seed):
        from inputs import draw_mutation, structure_maps
        self.qh = qh
        fixtures = qh.fixtures
        self.bundles = []
        for tag, field in (("q", qh.QQ), ("fp", qh.PrimeField(P))):
            H = fixtures.h2(field)
            for name, value in (("kz2", fixtures.kz2(field)), ("h2", H),
                                ("c2", fixtures.c2(field, H)),
                                ("hh-bicomodule", fixtures.hh_bicomodule(field, H)),
                                ("h2-bimodule-coalgebra",
                                 fixtures.h2_bimodule_coalgebra(field, H))):
                self.bundles.append((tag, name, value))
        self.draws = []
        for p in range(self.max_passes):
            rng = random.Random(seed * 1000003 + p)
            plan = []
            for tag, name, value in self.bundles:
                plan.append((tag, name, value, None))
                for which in structure_maps(value):
                    for _ in range(MUTATIONS_PER_MAP):
                        plan.append((tag, name, value, draw_mutation(value, rng, which)))
            rng.shuffle(plan)
            self.draws.append(plan)

    def ops(self, p):
        from inputs import rebuild, verifier
        out = []
        for tag, name, value, mutation in self.draws[p]:
            module, verify = verifier(value)

            def fn(value=value, mutation=mutation, module=getattr(self.qh, module),
                   verify=verify):
                # looked up at call time, so a traced pass calls the wrapper
                return getattr(module, verify)(rebuild(value, mutation))
            label = "%s %s %s" % ("mutated" if mutation else "intact", name, tag)
            out.append(Op(label, fn, _expect_fail if mutation else _expect_pass,
                          field=tag))
        return out


WORKLOADS = {w.name: w for w in (ScaledVerify, CliPipeline, MutationSweep)}


# -- running ---------------------------------------------------------------------

class Pass:
    """One pass: ``latencies`` and ``wall`` in seconds at reference speed
    (see ``speed.py``), ``raw_latencies`` and ``raw_wall`` as timed."""

    __slots__ = ("ops", "latencies", "raw_latencies", "results", "errors",
                 "wall", "raw_wall")

    def __init__(self, ops):
        self.ops = ops
        self.results = []
        self.errors = {}  # op index -> description


def _timer(sampler):
    """(t0, t1) -> seconds: normalized while sampling, else as timed."""
    return sampler.normalize if sampler else (lambda t0, t1: t1 - t0)


def run_pass(workload, ops, tracer=None, op_base=0, sampler=None):
    """Run ``ops`` in order; correctness checks follow the timed part."""
    clock = time.perf_counter
    pas = Pass(ops)
    spans = []
    work = workload.prepare()
    cwd = os.getcwd()
    sink = stdio.StringIO()
    try:
        if work:
            os.chdir(work)
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = clock()
            for k, op in enumerate(ops):
                span = tracer.begin_op(op_base + k, op.span) if tracer else None
                t0 = clock()
                try:
                    result = op.fn()
                except Exception:  # an op that raises is a failed op; keep going
                    result = None
                    pas.errors[k] = "raised: " + traceback.format_exc(limit=3)
                t1 = clock()
                if tracer:
                    tracer.end_op(span)
                spans.append((t0, t1))
                pas.results.append(result)
                sink.seek(0)
                sink.truncate()
            end = clock()
    finally:
        os.chdir(cwd)
    for k, op in enumerate(ops):
        if k not in pas.errors:
            problem = op.check(pas.results[k])
            if problem:
                pas.errors[k] = problem
    if work:
        for label, problem in workload.check_reports(work, ops).items():
            k = next(i for i, op in enumerate(ops) if op.label == label)
            pas.errors.setdefault(k, problem)
        shutil.rmtree(work)
    pas.results = None  # keep memory flat across passes
    # normalized last, so the windows of the last ops hold later samples too
    timer = _timer(sampler)
    pas.latencies = [timer(t0, t1) for t0, t1 in spans]
    pas.raw_latencies = [t1 - t0 for t0, t1 in spans]
    pas.wall, pas.raw_wall = timer(start, end), end - start
    return pas


def run_passes(workload, seconds, sampler):
    """Repeat passes while the next is expected to end within ``seconds``
    at reference speed, so that the number of passes, and with it the
    percentile of ``op_tail_s``, does not follow the machine's speed."""
    passes = []
    start = time.perf_counter()
    while len(passes) < workload.max_passes:
        passes.append(run_pass(workload, workload.ops(len(passes)), sampler=sampler))
        expected = statistics.median(x.wall for x in passes)
        if sampler.normalize(start, time.perf_counter()) + expected > seconds:
            break
    return passes


def tail(values):
    """(percentile, value): the highest integer percentile, nearest rank,
    with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = max(1, math.ceil(q * n / 100))
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 0, ordered[0]


def hd_quantile(values, q):
    """Harrell-Davis estimate of the ``q``-quantile: the mean of the order
    statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density over
    ((i-1)/n, i/n], integrated with 16 midpoints per interval.  It
    moves smoothly when values trade ranks, where a single order
    statistic jumps between clusters of values."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    steps = 16
    m = n * steps
    logs = [(a - 1) * math.log((j + 0.5) / m) + (b - 1) * math.log1p(-(j + 0.5) / m)
            for j in range(m)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * ordered[j // steps] for j, w in enumerate(weights)) / sum(weights)


def environment(seed, workload):
    commit = "unknown (not a git checkout)"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "quasihopf")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the CLI lets QHA_JOBS override --jobs; every op here runs with jobs=1
    os.environ.pop("QHA_JOBS", None)

    # the untraced run corrects its timings for machine speed; the traced
    # run does not sample, so no reference loop lands inside a span
    with SpeedSampler() if not args.trace else contextlib.nullcontext() as sampler:
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = [run_workload(WORKLOADS[name], args, sampler) for name in names]
    if len(results) == 1:
        result = results[0]
    else:  # one line for the set, metric names prefixed by workload
        result = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {"%s.%s" % (name, metric): value
                        for name, r in zip(names, results)
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def run_workload(cls, args, sampler):
    """Set up, run and report one workload; returns its result object.
    The run uses the package and inputs of the last set-up."""
    clock = time.perf_counter
    started = clock()
    setups = []  # (start, imported, built) per set-up
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        qh = _import_package()
        t1 = clock()
        workload = cls(qh, args.seed)
        workload.ops(0)
        setups.append((t0, t1, clock()))
    timer = _timer(sampler)
    import_s = statistics.median(timer(t0, t1) for t0, t1, _ in setups)
    setup_s = statistics.median(timer(t0, t2) for t0, _, t2 in setups)
    raw_setup_s = statistics.median(t2 - t0 for t0, _, t2 in setups)

    env = environment(args.seed, cls.name)
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, passes = traced_run(workload, args.seconds)
    else:
        passes = run_passes(workload, args.seconds, sampler)
    latencies = {}  # op label -> latencies over the run
    for x in passes:
        for op, lat in zip(x.ops, x.latencies):
            latencies.setdefault(op.label, []).append(lat)
    if not args.trace:
        metrics = end_to_end(passes, setup_s, latencies)
        raw = {op.label: [] for x in passes for op in x.ops}
        for x in passes:
            for op, lat in zip(x.ops, x.raw_latencies):
                raw[op.label].append(lat)
        print("as timed, before the speed correction: setup_s %.6f, wall_s %.6f, op_p50_s %.6f,"
              " speed over the run %.3f of nominal (%d samples)"
              % (raw_setup_s, statistics.median(x.raw_wall for x in passes),
                 statistics.median(statistics.median(v) for v in raw.values()),
                 sampler.speed(started, clock()), len(sampler.starts)))

    attempted = sum(len(x.ops) for x in passes)
    failures = [(x.ops[k].label, msg) for x in passes for k, msg in sorted(x.errors.items())]
    for label, msg in failures[:20]:
        print("FAILED op %s: %s" % (label, msg.strip().splitlines()[-1]))
    print("metric %-44s %14.6f ratio (%d of %d ops failed)"
          % ("fail_ratio", len(failures) / attempted, len(failures), attempted))
    baseline = workload.baseline(latencies, import_s)
    for label, then, now in baseline:
        print("baseline %-46s ROADMAP %8.3f s  now %8.3f s%s  (now/then %.3f)"
              % (label, then, now, " at reference speed" if sampler else "", now / then))
    for name, (value, unit) in metrics.items():
        print("metric %-44s %14.6f %s" % (name, value, unit))

    os.makedirs(RUN_DIR, exist_ok=True)
    stem = os.path.join(RUN_DIR, "%s-seed%d-trace%d" % (cls.name, args.seed, args.trace))
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "metrics": metrics, "fail_ratio": len(failures) / attempted,
                   "baseline": baseline, "failures": failures[:20],
                   "latencies": latencies}, fh, indent=1, sort_keys=True)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def end_to_end(passes, setup_s, latencies):
    ops = [lat for x in passes for lat in x.latencies]
    q, _ = tail(ops)
    print("op_tail_s is p%d of %d op latencies over %d passes" % (q, len(ops), len(passes)))
    print("pass wall_s: " + " ".join("%.4f" % x.wall for x in passes))
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(x.wall for x in passes), "s"),
        "op_p50_s": (hd_quantile([statistics.median(v) for v in latencies.values()], 0.5), "s"),
        "op_tail_s": (hd_quantile(ops, q / 100), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload, seconds):
    """Alternate untraced passes over the probe ops with traced passes over
    all ops of the same pass index, while time is left."""
    from tracer import Tracer, summarize
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    p = 0
    while p < workload.max_passes:
        plain.append(run_pass(workload, [op for op in workload.ops(p) if op.probe]))
        with tracer:
            traced.append(run_pass(workload, workload.ops(p), tracer,
                                   op_base=sum(len(x.ops) for x in traced)))
        p += 1
        expected = statistics.median(x.wall for x in plain) \
            + statistics.median(x.wall for x in traced)
        if time.perf_counter() - start + expected > seconds:
            break
    ratios = []
    for u, t in zip(plain, traced):
        probe_t = sum(lat for op, lat in zip(t.ops, t.latencies) if op.probe)
        ratios.append(probe_t / sum(u.latencies))
    print("paired passes: untraced probe ops %s s; traced probe ops %s s"
          % (" ".join("%.4f" % sum(u.latencies) for u in plain),
             " ".join("%.4f" % (r * sum(u.latencies)) for r, u in zip(ratios, plain))))

    metrics = summarize(tracer, len(traced))
    by_field = {"q": [], "fp": []}
    for u in plain:
        for op, lat in zip(u.ops, u.latencies):
            by_field[op.field].append(lat)
    ratio = statistics.median(by_field["fp"]) / statistics.median(by_field["q"]) \
        if by_field["q"] and by_field["fp"] else 0.0
    metrics["fields.fp_to_q_op_ratio"] = (ratio, "ratio")
    cli_times = {}
    for i, name in enumerate(tracer.names):
        if name.startswith("cli.") and tracer.parents[i] < 0:
            cli_times[name] = cli_times.get(name, 0.0) + tracer.ends[i] - tracer.starts[i]
    for label, _command in CLI_COMMANDS:
        metrics["cli.%s.s" % label] = (cli_times.get("cli." + label, 0.0) / len(traced), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios) - 1.0, "ratio")
    print("peak resident memory of the traced run: %.1f MB"
          % (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0))
    os.makedirs(RUN_DIR, exist_ok=True)
    tracer.dump(os.path.join(RUN_DIR, "%s-spans.tsv" % workload.name))
    return metrics, plain + traced


if __name__ == "__main__":
    sys.exit(main())
