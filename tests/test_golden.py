"""Pinned outputs: a tensor-field diffusion run, the strand tissue fields
and two kinetic strand runs.

The files under tests/golden/ were written by tests/golden/make_golden.py
before the diffusion path was batched (diffusion, tissue) and while the
realizability limiter was still a bisection and the DG(2) source residual
still used einsum (K1F, M1F); these tests keep those paths from drifting.
"""

import numpy as np
import pytest

from golden_cases import GOLDEN_DIR, run_tensor_file_diffusion, strand_kinetic_run, strand_tissue


def test_tensor_field_diffusion_run_matches_golden(tmp_path):
    gold = np.load(GOLDEN_DIR / "diffusion_tensor_field.npz")
    rho = run_tensor_file_diffusion(gold["tensors"], tmp_path)
    np.testing.assert_allclose(rho, gold["final_rho"], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("estimator", ["FA", "CL"])
def test_strand_tissue_fields_bitwise(estimator):
    gold = np.load(GOLDEN_DIR / "strand_tissue.npz")
    tf = strand_tissue(estimator)
    assert tf.Q.shape == (int(gold["n"]),) * 2
    for name in ("Q", "gradQ", "DF", "lamH"):
        assert np.array_equal(getattr(tf, name), gold[f"{estimator}_{name}"]), name


def kinetic_run_and_gold(name):
    gold = np.load(GOLDEN_DIR / f"strand_{name.lower()}.npz")
    state, diag = strand_kinetic_run(name)
    for key in ("steps", "limiter_activations", "char_fallback_cells"):
        assert diag[key] == int(gold[key]), key
    return state, gold


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
    # the DG source residual, so its arithmetic is pinned exactly
    state, gold = kinetic_run_and_gold("M1F")
    assert np.array_equal(state, gold["final_state"])
