"""Command-line interface.

Subcommands:
    simulate    --config FILE          run one scenario, write FIELD2D + manifest
    validate    --config FILE          dry-run config check, echo resolved scaling
    compare     --a FILE --b FILE      pointwise relative difference as CSV
    convergence --config FILE --eps L  kinetic-vs-diffusion study over eps
    spectrum    --qhat V --dw 6xREAL --n V   Kershaw eigenvalue report

Exit codes: 0 success, 1 usage/config error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .closures import ClosureError, kershaw_spectrum
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .diffusion import DiffusionError
from .fields_io import FileFormatError, read_field
from .kinetic import drift_ratio, drift_ratio_summary
from .metrics import MetricsError, relative_difference
from .scenarios import ScenarioError, convergence_study, run_scenario, scenario_from_config
from .solver import SolverError
from .systems import MomentSystemError
from .tissue import TissueError, peanut_pressure_tensor

USAGE_ERROR = 1
NUMERICAL_ERROR = 2

_NUMERICAL = (SolverError, ClosureError, MomentSystemError, DiffusionError, np.linalg.LinAlgError)
_USAGE = (ConfigError, ScenarioError, FileFormatError, MetricsError, TissueError, ValueError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _vector(text, n, name):
    try:
        vals = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as err:
        raise ConfigError(f"--{name} must be {n} comma-separated reals") from err
    if len(vals) != n:
        raise ConfigError(f"--{name} needs {n} values, got {len(vals)}")
    if not all(np.isfinite(vals)):
        raise ConfigError(f"--{name} must be finite, got {text}")
    return np.asarray(vals)


def _build_parser() -> _Parser:
    parser = _Parser(prog="moment-glioma", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None, help="output directory override")

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("--config", required=True)

    cmp_ = sub.add_parser("compare", help="relative difference of two FIELD2D files")
    cmp_.add_argument("--a", required=True)
    cmp_.add_argument("--b", required=True)
    cmp_.add_argument("--out", default=None, help="CSV path (default: stdout)")

    conv = sub.add_parser("convergence", help="diffusion-limit study over eps")
    conv.add_argument("--config", required=True)
    conv.add_argument("--eps", required=True, help="comma list, e.g. 1,0.5,0.25,0.1")
    conv.add_argument("--out", default=None, help="CSV path (default: stdout)")

    spec = sub.add_parser("spectrum", help="Kershaw flux-Jacobian eigenvalues")
    spec.add_argument("--qhat", required=True, help="3 reals")
    spec.add_argument("--dw", required=True, help="6 reals: Dxx Dxy Dxz Dyy Dyz Dzz")
    spec.add_argument("--n", required=True, help="3 reals, unit direction")
    return parser


def _read_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path!r}: {err}") from err
    return parse_config(text)


def _cmd_simulate(args) -> int:
    cfg = _read_config(args.config)
    sc = scenario_from_config(cfg)
    out = run_scenario(sc, out_dir=args.out or cfg.out_dir, write=True)
    d = out.manifest["conservation"]
    print(f"model={sc.model} scenario={sc.name} steps={out.manifest['solver']['steps']}")
    print(
        f"mass drift {d['mass_drift_rel']:.3e}, wall {out.manifest['wall_time_s']:.2f} s"
    )
    for path in out.written:
        print(path)
    return 0


def _cmd_validate(args) -> int:
    cfg = _read_config(args.config)
    sc = scenario_from_config(cfg)
    p = sc.params
    print(f"scenario: {sc.name}  model: {sc.model}  estimator: {sc.estimator}")
    print(f"grid: {sc.grid.nx} x {sc.grid.ny} (scenario dx={sc.scen_grid.dx:g})")
    print(f"St = {p.eps:.6g}")
    print(f"Kn = {p.kn:.6g}")
    print(f"R = {p.r:.6g}")
    print(f"eta = {p.eta:.6g}")
    kappa = drift_ratio_summary(drift_ratio(sc.tissue(), p))
    cell = kappa["worst_cell"]
    print(
        f"kappa = eps eta lamH |gradQ| / R: max {kappa['max']:.4g} at cell "
        f"(ix={cell['ix']}, iy={cell['iy']}), {100 * kappa['frac_above_1']:.1f} % of cells above 1"
    )
    for note in sc.notes:
        print(f"note: {json.dumps(note, sort_keys=True)}")
    sys.stdout.write(serialize_config(cfg))
    return 0


def _write_lines(lines: list, out) -> None:
    """Write the lines to the file `out`, or to stdout when it is not given."""
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_compare(args) -> int:
    fa = read_field(args.a)
    fb = read_field(args.b)
    if not fa.grid.close_to(fb.grid):
        raise MetricsError("fields live on different grids")
    rep = relative_difference(fa.values, fb.values, fa.grid)
    xs = fa.grid.cell_x(np.arange(fa.grid.nx)).tolist()
    ys = fa.grid.cell_y(np.arange(fa.grid.ny)).tolist()
    lines = ["x,y,relerr"]
    for y, row in zip(ys, rep.field.tolist()):
        lines.extend(f"{x!r},{y!r},{v!r}" for x, v in zip(xs, row))
    _write_lines(lines, args.out)
    print(rep.summary(), file=sys.stderr)
    return 0


def _cmd_convergence(args) -> int:
    cfg = _read_config(args.config)
    try:
        eps_list = [float(t) for t in args.eps.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"--eps must be a comma list of numbers, got {args.eps!r}") from None
    if not eps_list:
        raise ConfigError("--eps needs at least one value")
    rows = convergence_study(eps_list, config=cfg)
    lines = ["eps,max_relerr,mean_relerr"]
    for row in rows:
        lines.append(f"{row['eps']!r},{row['max_relerr']!r},{row['mean_relerr']!r}")
    _write_lines(lines, args.out)
    return 0


def _cmd_spectrum(args) -> int:
    qhat = _vector(args.qhat, 3, "qhat")
    if qhat @ qhat > 1.0 + 1e-12:
        raise ConfigError(f"--qhat must have |qhat| <= 1, got {np.linalg.norm(qhat):.6g}")
    dw6 = _vector(args.dw, 6, "dw")
    n = _vector(args.n, 3, "n")
    nn = np.linalg.norm(n)
    if nn == 0:
        raise ConfigError("--n must be nonzero")
    n = n / nn
    d_w = np.array(
        [
            [dw6[0], dw6[1], dw6[2]],
            [dw6[1], dw6[3], dw6[4]],
            [dw6[2], dw6[4], dw6[5]],
        ]
    )
    DF = peanut_pressure_tensor(d_w)
    spec = kershaw_spectrum(qhat, DF, n)
    print("eigenvalues: " + " ".join(f"{v:.5f}" for v in spec.eigenvalues))
    print(f"max imaginary part: {spec.max_imag:.3e}")
    print(f"closed form ({spec.case}): " + " ".join(f"{v:.5f}" for v in spec.analytic))
    print(f"closed-form agreement: {spec.analytic_check:.3e}")
    if spec.analytic_paper is not None:
        print(
            "closed form (as printed): "
            + " ".join(f"{v:.5f}" for v in spec.analytic_paper)
        )
    flag = "yes" if spec.diagonalizable else "NO"
    print(f"diagonalizable: {flag} (eigenvector sigma_min = {spec.eigenvector_sigma_min:.3e})")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "compare": _cmd_compare,
    "convergence": _cmd_convergence,
    "spectrum": _cmd_spectrum,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _NUMERICAL as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return NUMERICAL_ERROR
    except _USAGE as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
