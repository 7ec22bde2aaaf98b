"""Pinned outputs: a tensor-field diffusion run and the strand tissue fields.

The files under tests/golden/ were written by tests/golden/make_golden.py
before the diffusion path was batched; these tests keep that path's results
from drifting.
"""

import numpy as np
import pytest

from golden_cases import GOLDEN_DIR, run_tensor_file_diffusion, strand_tissue


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
