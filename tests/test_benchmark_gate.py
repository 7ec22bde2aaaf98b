"""Every benchmark workload, run once at the default seed, passes the
benchmark's own output checks: step count, mass balance, realizability and
the stored reference field (perfbench/reference/, 1e-6 relative).

A refactor that moves the M1F or P3F solution off its reference then fails
here, not only in a benchmark run. perfbench/ is imported as it stands.
"""

import sys
from pathlib import Path

import pytest

from moment_glioma import scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from workloads import DEFAULT_SEED, WORKLOADS, check_output  # noqa: E402


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_the_benchmark_checks(name, tmp_path):
    w = WORKLOADS[name]
    cfg = w.config(DEFAULT_SEED, tmp_path)
    out = scenarios.run_scenario(w.build(cfg))
    assert check_output(w, out, DEFAULT_SEED, cfg.realizability_floor) == []
