"""The benchmark's traced mode must still find what it wraps.

perfbench/child.py wraps program functions by name (Poly.exact_div,
poly.gcd_primitive, CongruenceContext.frac_congruent, q_harmonic_sum,
q_double_harmonic, ...).  Renaming or deleting one of them crashes a traced
benchmark run, which no other test here would notice.  The checks reach
fractions through CongruenceContext.frac_residue, so frac_congruent, which
no check calls, is called here directly.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import sys
sys.path[:0] = ['perfbench', 'src']
import child, spans
tracer = spans.Tracer()
child.install(tracer)
assert child.statements.check_power_reduction(5).passed
assert child.statements.check_shipan(7).passed
assert child.statements.check_double_harmonic(7).passed
one = child.poly.Poly((1,))
assert child.congruence.CongruenceContext(7, 2).frac_congruent(one, one, one)
totals = tracer.totals()
assert 'congruence.frac_congruent' in totals
# one span per q_harmonic_sum / q_double_harmonic call, cache hit or miss,
# none nested: 2 + 2 + 1
assert totals['congruence.harmonic']['calls'] == 5, totals['congruence.harmonic']
"""


def test_benchmark_tracer_installs_on_the_program():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL], cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
