"""Write the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/make_golden.py [case ...]

Run it from the repository root at the commit whose outputs are to be
pinned; the files land next to this script. Name cases (diffusion,
tensor_k1f, tissue, k1f, m1f, p3f, p1) to rewrite only those files; with no
arguments all are written.
The inputs are built here from fixed seeds and stored with the outputs, so
the tests do not depend on how they were generated.
"""

from __future__ import annotations

import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from golden_cases import (  # noqa: E402
    ANISO_SEED,
    STRAND_N,
    anisotropic_tensors,
    run_tensor_file_diffusion,
    run_tensor_file_k1f,
    strand_kinetic_run,
    strand_tissue,
)


def write_diffusion() -> None:
    tensors = anisotropic_tensors(ANISO_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        rho = run_tensor_file_diffusion(tensors, Path(tmp))
    np.savez_compressed(HERE / "diffusion_tensor_field.npz", tensors=tensors, final_rho=rho)


def write_tensor_file_k1f() -> None:
    tensors = anisotropic_tensors(ANISO_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        state, diag = run_tensor_file_k1f(tensors, Path(tmp))
    counts = {k: diag[k] for k in ("steps", "limiter_activations", "char_fallback_cells")}
    np.savez_compressed(
        HERE / "tensor_field_k1f.npz", tensors=tensors, final_state=state, **counts
    )


def write_tissue() -> None:
    out = {}
    for est in ("FA", "CL"):
        tf = strand_tissue(est)
        out.update({f"{est}_{k}": getattr(tf, k) for k in ("Q", "DF", "lamH")})
        out[f"{est}_gradQ"] = tf.gradQ3[..., :2]
    np.savez_compressed(HERE / "strand_tissue.npz", n=STRAND_N, **out)


def write_kinetic(name: str) -> None:
    state, diag = strand_kinetic_run(name)
    counts = {k: diag[k] for k in ("steps", "limiter_activations", "char_fallback_cells")}
    np.savez_compressed(HERE / f"strand_{name.lower()}.npz", final_state=state, **counts)


CASES = {
    "diffusion": write_diffusion,
    "tensor_k1f": write_tensor_file_k1f,
    "tissue": write_tissue,
    "k1f": partial(write_kinetic, "K1F"),
    "m1f": partial(write_kinetic, "M1F"),
    "p3f": partial(write_kinetic, "P3F"),
    "p1": partial(write_kinetic, "P1"),
}


def main(names) -> None:
    for name in names or CASES:
        CASES[name]()


if __name__ == "__main__":
    main(sys.argv[1:])
