"""Write the golden files that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/make_golden.py

Run it from the repository root at the commit whose outputs are to be
pinned; the files land next to this script. The inputs are built here from
fixed seeds and stored with the outputs, so the tests do not depend on how
they were generated.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from golden_cases import (  # noqa: E402
    ANISO_SEED,
    STRAND_N,
    anisotropic_tensors,
    run_tensor_file_diffusion,
    strand_tissue,
)


def main() -> None:
    tensors = anisotropic_tensors(ANISO_SEED)
    with tempfile.TemporaryDirectory() as tmp:
        rho = run_tensor_file_diffusion(tensors, Path(tmp))
    np.savez_compressed(HERE / "diffusion_tensor_field.npz", tensors=tensors, final_rho=rho)

    out = {}
    for est in ("FA", "CL"):
        tf = strand_tissue(est)
        out.update({f"{est}_{k}": getattr(tf, k) for k in ("Q", "gradQ", "DF", "lamH")})
    np.savez_compressed(HERE / "strand_tissue.npz", n=STRAND_N, **out)


if __name__ == "__main__":
    main()
