"""The benchmark's self-test, run as part of the suite.

The benchmark's tracer binds every function it times (its ``KERNELS``
and ``SPANS``) by name, and the self-test checks those bindings, so a
refactor that deletes or renames one of them fails here rather than in
a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.rstrip().endswith("self-tests passed")
