"""Pinned outputs: a tensor-field diffusion run and K1F run, the strand
tissue fields and four kinetic strand runs.

The files under tests/golden/ were written by tests/golden/make_golden.py
before the diffusion path was batched (diffusion, tissue), while the
realizability limiter was still a bisection and the DG(2) source residual
still used einsum (M1F), and while the linear-closure source propagator
was still a block of a 3m x 3m inverse (P3F, P1); these tests keep those
paths from drifting. The two K1F files were rewritten when the run driver
began merging abutting source half-steps into one solve over dt, which
moved them by 4.1e-9 (strand) and 2.4e-10 (tensor field) of max|U|,
less than the strand run's own change between DG Newton tolerances 1e-10
and 1e-13 (4.2e-9 of max|U|); their counts did not change.

Two comparisons are bitwise (`np.array_equal`) rather than held to a
tolerance, each because no tolerance would separate rounding from a fault
(ROADMAP item 6 retires both once the outputs they protect are continuous
in their inputs):

* the M1F strand run: its characteristic blending (the conditioning weight
  of the canonical eigensystems, the merge pattern of the group slopes)
  and its dual solves switch branch on last-bit changes of the state, so a
  change of rounding anywhere on its path moves the final field by jumps,
  not by drift: on the benchmark's M1F strand, dual Newton tolerances of
  1e-11 and 1e-12 instead of 1e-10 put the final density 2.4e-8 and
  2.3e-3 of its maximum away;
* the FA and CL strand tissue fields: every run starts from them, the M1F
  and P3F runs amplify their last-bit changes in the same way, and
  `tissue._libm_pow` rounds their powers one way on every CPU, so they are
  pinned exactly and a rounding change in the tissue fails here, next to
  its cause, rather than as a moved M1F or P3F field.
"""

import numpy as np
import pytest

from golden_cases import (
    GOLDEN_DIR,
    run_tensor_file_diffusion,
    run_tensor_file_k1f,
    strand_kinetic_run,
    strand_tissue,
)


def test_tensor_field_diffusion_run_matches_golden(tmp_path):
    gold = np.load(GOLDEN_DIR / "diffusion_tensor_field.npz")
    rho = run_tensor_file_diffusion(gold["tensors"], tmp_path)
    np.testing.assert_allclose(rho, gold["final_rho"], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("estimator", ["FA", "CL"])
def test_strand_tissue_fields_bitwise(estimator):
    # pinned exactly: the M1F and P3F runs amplify their last bits (see the
    # module docstring)
    gold = np.load(GOLDEN_DIR / "strand_tissue.npz")
    tf = strand_tissue(estimator)
    assert tf.Q.shape == (int(gold["n"]),) * 2
    for name in ("Q", "DF", "lamH"):
        assert np.array_equal(getattr(tf, name), gold[f"{estimator}_{name}"]), name
    # the file holds the in-plane gradient; the z entry is padding
    assert np.array_equal(tf.gradQ3[..., :2], gold[f"{estimator}_gradQ"])
    assert not tf.gradQ3[..., 2].any()


def assert_counts(diag, gold):
    assert diag["nsteps"] == int(gold["steps"])
    for key in ("limiter_activations", "char_fallback_cells"):
        assert diag[key] == int(gold[key]), key


def kinetic_run_and_gold(name):
    gold = np.load(GOLDEN_DIR / f"strand_{name.lower()}.npz")
    state, diag = strand_kinetic_run(name)
    assert_counts(diag, gold)
    return state, gold


def test_tensor_field_k1f_run_matches_golden(tmp_path):
    # the one kinetic run whose tissue comes from a tensor file: FA volume
    # fraction, tilted full 3x3 tensors and brain_dti scaling
    gold = np.load(GOLDEN_DIR / "tensor_field_k1f.npz")
    state, diag = run_tensor_file_k1f(gold["tensors"], tmp_path)
    assert_counts(diag, gold)
    ref = gold["final_state"]
    np.testing.assert_allclose(state, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


def test_strand_k1f_run_matches_golden():
    # the limiter fires here; the closed form matches the old bisection to
    # its 1e-12 resolution. Relative to the largest moment: q_z is rounding
    # noise (<= 1e-20) and near-vacuum cells (rho ~ 1e-10) carry that 1e-12
    state, gold = kinetic_run_and_gold("K1F")
    assert int(gold["limiter_activations"]) > 0
    ref = gold["final_state"]
    np.testing.assert_allclose(state, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))


def test_strand_m1f_run_bitwise():
    # M1F's blending counts and final field move with last-bit changes of
    # the DG source residual, so its arithmetic is pinned exactly (see the
    # module docstring)
    state, gold = kinetic_run_and_gold("M1F")
    assert np.array_equal(state, gold["final_state"])


@pytest.mark.parametrize("name", ["P3F", "P1"])
def test_strand_linear_closure_run_matches_golden(name):
    # every P3F cell has repeated flux eigenvalues, so per-variable limiting
    # follows the basis eigh picks inside those eigenspaces: a last-bit
    # change of its input rotates the basis and moves this field by ~7e-5
    state, gold = kinetic_run_and_gold(name)
    ref = gold["final_state"]
    np.testing.assert_allclose(state, ref, rtol=0.0, atol=1e-12 * np.max(np.abs(ref)))
