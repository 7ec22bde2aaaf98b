"""Every benchmark workload, run once at the default seed, passes the
benchmark's own output checks: step count, mass balance, realizability and
the stored reference field (perfbench/reference/, 1e-6 relative). Its
manifest counts (`workloads.exact_counts`) equal those that
perfbench/notes.json records for the workload, such as K1F's limiter
activations and M1F's blended cells.

A refactor that moves the M1F or P3F solution off its reference, or the
limiter or the blending onto other cells, then fails here, not only in a
benchmark run. perfbench/ is imported and read as it stands.
"""

import json
import sys
from pathlib import Path

import pytest

from moment_glioma import scenarios

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

from workloads import DEFAULT_SEED, WORKLOADS, check_output, exact_counts  # noqa: E402

NOTES = json.loads((PERFBENCH / "notes.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_passes_the_benchmark_checks(name, tmp_path):
    w = WORKLOADS[name]
    cfg = w.config(DEFAULT_SEED, tmp_path)
    out = scenarios.run_scenario(w.build(cfg))
    assert check_output(w, out, DEFAULT_SEED, cfg.realizability_floor) == []
    counts = exact_counts(out)
    recorded = {k: v for k, v in NOTES["workloads"][name]["exact_counts"].items() if k in counts}
    assert "steps" in recorded
    assert {k: counts[k] for k in recorded} == recorded
