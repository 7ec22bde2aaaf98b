"""Write the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/make_golden.py [case ...]

Run it from the repository root at the commit whose outputs are to be
pinned; the files land next to this script. Name cases (diffusion,
tensor_k1f, tissue, k1f, m1f, p3f, p1) to rewrite only those files; with no
arguments all are written.
The inputs are built here from fixed seeds and stored with the outputs, so
the tests do not depend on how they were generated. Rewriting a file prints
how far each stored array moved from the old file (largest absolute
difference, and that divided by the array's max |value|) and every count
that changed, for the record of the re-pin.
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


def save(name: str, **arrays) -> None:
    """Write HERE/name, first reporting its differences from the file it
    replaces."""
    path = HERE / name
    if path.exists():
        old = np.load(path)
        for key, value in arrays.items():
            value = np.asarray(value)
            if key not in old.files:
                print(f"{name}: {key} is new")
            elif value.ndim == 0:
                if old[key] != value:
                    print(f"{name}: {key} changed {old[key]} -> {value}")
            elif old[key].shape != value.shape:
                print(f"{name}: {key} shape changed {old[key].shape} -> {value.shape}")
            else:
                diff = float(np.max(np.abs(value - old[key])))
                rel = diff / max(float(np.max(np.abs(value))), 1e-300)
                print(f"{name}: {key} max |new - old| = {diff:.3e} ({rel:.3e} of max |new|)")
    np.savez_compressed(path, **arrays)


def write_diffusion() -> None:
    tensors = anisotropic_tensors(ANISO_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        rho = run_tensor_file_diffusion(tensors, Path(tmp))
    save("diffusion_tensor_field.npz", tensors=tensors, final_rho=rho)


def write_tensor_file_k1f() -> None:
    tensors = anisotropic_tensors(ANISO_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        state, diag = run_tensor_file_k1f(tensors, Path(tmp))
    counts = {k: diag[k] for k in ("steps", "limiter_activations", "char_fallback_cells")}
    save("tensor_field_k1f.npz", tensors=tensors, final_state=state, **counts)


def write_tissue() -> None:
    out = {}
    for est in ("FA", "CL"):
        tf = strand_tissue(est)
        out.update({f"{est}_{k}": getattr(tf, k) for k in ("Q", "DF", "lamH")})
        out[f"{est}_gradQ"] = tf.gradQ3[..., :2]
    save("strand_tissue.npz", n=STRAND_N, **out)


def write_kinetic(name: str) -> None:
    state, diag = strand_kinetic_run(name)
    counts = {k: diag[k] for k in ("steps", "limiter_activations", "char_fallback_cells")}
    save(f"strand_{name.lower()}.npz", final_state=state, **counts)


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
