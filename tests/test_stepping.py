"""The run layout both solvers share: output steps, snapshots, diagnostics."""

import inspect
import re

import numpy as np
import pytest

from moment_glioma import scenarios
from moment_glioma.config import RunConfig
from moment_glioma.diffusion import build_diffusion_fields, run_diffusion
from moment_glioma.scenarios import build_fiber_strand_scenario
from moment_glioma.solver import run_kinetic
from moment_glioma.stepping import RunResult
from moment_glioma.systems import build_system

SCHEDULE_KEYS = {"dt", "nsteps", "mass_initial", "mass_final", "mass_drift_rel", "min_rho"}


def strand_run(model):
    """run(output_times) -> RunResult on the 8x8 strand at eps 0.5."""
    cfg = RunConfig(nx=8, ny=8, model=model, eps=0.5, times=(0.125,))
    sc = build_fiber_strand_scenario(0.5, config=cfg)
    if model == "diffusion":
        fields = build_diffusion_fields(sc.tissue(), sc.params)
        return sc, lambda times: run_diffusion(fields, sc.rho0, sc.t_end, output_times=times)
    system = build_system(model, sc.tissue(), sc.params)
    return sc, lambda times: run_kinetic(system, sc.rho0, sc.t_end, output_times=times)


@pytest.mark.parametrize("model", ["K1F", "diffusion"])
def test_output_times_round_to_steps_and_share_one_result(model):
    sc, run = strand_run(model)
    d = run(()).diagnostics
    dt, nsteps = d["dt"], d["nsteps"]
    k = nsteps // 2
    assert 1 <= k < nsteps
    res = run((0.0, (k - 0.3) * dt, (k + 0.3) * dt, sc.t_end))
    assert isinstance(res, RunResult)
    assert SCHEDULE_KEYS <= set(res.diagnostics)
    assert res.times == [0.0, k * dt, nsteps * dt]
    assert len(res.snapshots) == 3
    assert np.array_equal(res.snapshots[0], sc.rho0)
    assert np.array_equal(res.snapshots[-1], res.final_rho)
    assert res.final_rho.shape == sc.rho0.shape


def manifest_keys():
    """The diagnostics keys `run_scenario` reads into the manifest, parsed
    from its source."""
    source = inspect.getsource(scenarios.run_scenario)
    return set(re.findall(r"res\.diagnostics\.get\(\"(\w+)\"", source))


@pytest.mark.parametrize("model", ["K1F", "M1F", "P1", "diffusion"])
def test_a_runs_diagnostics_are_what_the_manifest_reports(model):
    # a diagnostics key no manifest reads is a value nothing reads
    reported = manifest_keys()
    assert SCHEDULE_KEYS <= reported
    _, run = strand_run(model)
    extra = set(run(()).diagnostics) - reported
    assert not extra, f"{model} diagnostics the manifest does not report: {sorted(extra)}"
