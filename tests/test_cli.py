"""Command-line interface: subcommands, exit codes, output formats."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moment_glioma.cli import cli_main
from moment_glioma.config import serialize_config
from moment_glioma.fields_io import Field2D, write_field, write_tensor_field
from moment_glioma.grid import GridSpec
from moment_glioma.tissue import WaterTensorField

STRAND_CONFIG = """
[scenario]
name = fiber_strand
eps = 0.5

[grid]
nx = 14
ny = 14

[model]
kind = K1F

[initial]
center_x = 0.5
center_y = 1.5
half_width = 0.05

[output]
directory = {out}
times = 0.4
"""


@pytest.fixture
def strand_config(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(STRAND_CONFIG.format(out=tmp_path / "out"))
    return path


def test_validate_echoes_scaling(strand_config, capsys):
    assert cli_main(["validate", "--config", str(strand_config)]) == 0
    out = capsys.readouterr().out
    assert "St = 0.5" in out
    assert "Kn = 0.25" in out
    assert "R = 1" in out
    assert "eta = 1" in out


def test_validate_bad_config_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nkind = nonsense\n")
    assert cli_main(["validate", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_config_path_is_read_as_a_path(tmp_path, capsys):
    # a path holding '=' is still a file name, not INI text
    path = tmp_path / "a=b" / "run.ini"
    path.parent.mkdir()
    path.write_text(STRAND_CONFIG.format(out=tmp_path / "out"))
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert "St = 0.5" in capsys.readouterr().out
    missing = tmp_path / "a=b" / "missing.ini"
    assert cli_main(["validate", "--config", str(missing)]) == 1
    assert f"cannot read config {str(missing)!r}" in capsys.readouterr().err


def test_usage_error_exit_1(capsys):
    assert cli_main(["simulate"]) == 1
    assert cli_main(["bogus"]) == 1


def test_simulate_emits_fields(strand_config, tmp_path, capsys):
    assert cli_main(["simulate", "--config", str(strand_config)]) == 0
    out_dir = tmp_path / "out"
    fields = sorted(out_dir.glob("*rho*.txt"))
    assert fields
    manifests = sorted(out_dir.glob("*manifest.json"))
    assert manifests
    text = fields[0].read_text()
    assert text.startswith("FIELD2D rho 14 14")


def test_spectrum_output(capsys):
    code = cli_main(
        ["spectrum", "--qhat", "0,0,0", "--dw", "1,0,0,1,0,1", "--n", "1,0,0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "-0.57735" in out and "0.57735" in out
    assert "0.00000" in out
    assert "diagonalizable: yes" in out


def test_spectrum_degenerate_flag(capsys):
    code = cli_main(
        ["spectrum", "--qhat", "1,0,0", "--dw", "2,0,0,1,0,1", "--n", "0,1,0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "diagonalizable: NO" in out


def test_spectrum_prints_the_closed_form_for_a_general_normal(capsys):
    code = cli_main(
        ["spectrum", "--qhat", "0.3,0.2,0.1", "--dw", "2,0.1,0,1,0,1", "--n", "1,1,0"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "closed form (general): " in out
    agreement = float(out.split("closed-form agreement: ")[1].split()[0])
    assert agreement < 1e-6


def test_spectrum_bad_vector_exit_1(capsys):
    assert cli_main(["spectrum", "--qhat", "0,0", "--dw", "1,0,0,1,0,1", "--n", "1,0,0"]) == 1


SPECTRUM_ARGS = {"--qhat": "0.2,0,0", "--dw": "1,0,0,1,0,1", "--n": "1,0,0"}


@pytest.mark.parametrize(
    "flag, value",
    [("--qhat", "nan,0,0"), ("--dw", "1,0,0,inf,0,1"), ("--n", "inf,0,0")],
)
def test_spectrum_non_finite_input_exit_1(flag, value, capsys):
    args = {**SPECTRUM_ARGS, flag: value}
    assert cli_main(["spectrum"] + [t for kv in args.items() for t in kv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err and "finite" in err


def test_spectrum_qhat_outside_unit_ball_exit_1(capsys):
    args = {**SPECTRUM_ARGS, "--qhat": "0.8,0.7,0"}
    assert cli_main(["spectrum"] + [t for kv in args.items() for t in kv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--qhat" in err


def test_compare_csv(tmp_path, capsys):
    grid = GridSpec(nx=3, ny=3, dx=0.5, dy=0.5)
    a = np.full((3, 3), 1.05)
    b = np.ones((3, 3))
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_field(pa, Field2D("rho", grid, 1.0, a))
    write_field(pb, Field2D("rho", grid, 1.0, b))
    out_csv = tmp_path / "diff.csv"
    code = cli_main(["compare", "--a", str(pa), "--b", str(pb), "--out", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "x,y,relerr"
    assert len(lines) == 10
    assert float(lines[1].split(",")[2]) == pytest.approx(0.05)
    assert "max=0.05" in capsys.readouterr().err


def test_numerical_failure_exit_2(strand_config, monkeypatch, capsys):
    from moment_glioma import cli
    from moment_glioma.solver import SolverError

    def boom(*a, **kw):
        raise SolverError("synthetic blow-up")

    monkeypatch.setattr(cli, "run_scenario", boom)
    assert cli_main(["simulate", "--config", str(strand_config)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_diffusion_nan_exit_2(tmp_path, monkeypatch, capsys):
    import moment_glioma.diffusion as diffusion

    path = tmp_path / "run.ini"
    path.write_text(
        STRAND_CONFIG.format(out=tmp_path / "out").replace("kind = K1F", "kind = diffusion")
    )
    real = diffusion._flux_divergence
    evals = []

    def poisoned(buf, fields, work):
        real(buf, fields, work)
        evals.append(1)
        if len(evals) == 2:  # last stage of step 1
            work.div[5, 3] = np.nan

    monkeypatch.setattr(diffusion, "_flux_divergence", poisoned)
    assert cli_main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "step 1" in err and "(ix=3, iy=5)" in err
    assert not list((tmp_path / "out").glob("*rho*.txt"))


def test_zero_background_k1f_exit_1(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(
        STRAND_CONFIG.format(out=tmp_path / "out").replace(
            "half_width = 0.05", "half_width = 0.05\nbackground = 0"
        )
    )
    assert cli_main(["simulate", "--config", str(path)]) == 1
    assert "model K1F needs a positive background" in capsys.readouterr().err


def test_nan_eps_exit_1(tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_text(STRAND_CONFIG.format(out=tmp_path / "out").replace("eps = 0.5", "eps = nan"))
    assert cli_main(["simulate", "--config", str(path)]) == 1
    assert "eps must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new, message",
    [
        # the run settings that are constants now are unknown keys
        ("kind = K1F", "kind = K1F\ncfl = 1.5", "unknown key 'cfl' in section [model]"),
        ("kind = K1F", "kind = K1F\ncfl = nan", "unknown key 'cfl' in section [model]"),
        ("nx = 14", "nx = 0", "[grid] nx and ny must be at least 3"),
        ("nx = 14", "nx = 2", "[grid] nx and ny must be at least 3"),
        (
            "kind = K1F", "kind = K1F\nquad_degree = 1",
            "unknown key 'quad_degree' in section [model]",
        ),
        (
            "kind = K1F", "kind = P1\nrealizability_floor = nan",
            "unknown key 'realizability_floor' in section [model]",
        ),
        (
            "[output]", "[physics]\npreset = brain_dti\nT_s = long\n\n[output]",
            "[physics] T_s = 'long' is not a valid float",
        ),
        ("times = 0.4", "times = inf", "[output] times must be finite and >= 0"),
        ("times = 0.4", "times = nan", "[output] times must be finite and >= 0"),
        ("times = 0.4", "times = -1", "[output] times must be finite and >= 0"),
        ("times = 0.4", "times = 0", "with at least one > 0"),
        ("eps = 0.5", "eps = 0.5\nt_final = 0", "unknown key 't_final' in section [scenario]"),
        (
            "eps = 0.5", "eps = 0.5\ndomain_size = 5",
            "unknown key 'domain_size' in section [scenario]",
        ),
        (
            "eps = 0.5", "eps = 0.5\nstrand_sigma = 0.2",
            "unknown key 'strand_sigma' in section [scenario]",
        ),
        (
            "eps = 0.5", "eps = 0.5\nstrand_d33 = 2",
            "unknown key 'strand_d33' in section [scenario]",
        ),
        ("center_x = 0.5", "center_x = nan", "[initial] center_x, center_y and half_width"),
        ("center_y = 1.5", "center_y = nan", "[initial] center_x, center_y and half_width"),
        ("half_width = 0.05", "half_width = nan", "[initial] center_x, center_y and half_width"),
    ],
    ids=[
        "cfl-1.5", "cfl-nan", "nx-0", "nx-2", "quad_degree-1", "floor-nan", "physics-text",
        "times-inf", "times-nan", "times-neg", "times-0", "t_final-0", "domain_size-5",
        "strand_sigma-0.2", "strand_d33-2", "center_x-nan", "center_y-nan", "half_width-nan",
    ],
)
def test_bad_config_value_exit_1_before_running(tmp_path, capsys, old, new, message):
    path = tmp_path / "run.ini"
    path.write_text(STRAND_CONFIG.format(out=tmp_path / "out").replace(old, new))
    for command in ("validate", "simulate"):
        assert cli_main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_kinetic_nan_exit_2(tmp_path, monkeypatch, capsys):
    import moment_glioma.solver as solver

    path = tmp_path / "run.ini"
    path.write_text(
        STRAND_CONFIG.format(out=tmp_path / "out").replace("kind = K1F", "kind = P3F")
    )
    real = solver.flux_step
    steps = []

    def poisoned(U, *args, **kwargs):
        U = real(U, *args, **kwargs)
        steps.append(1)
        if len(steps) == 2:
            U[6, 4, 2] = np.nan
        return U

    monkeypatch.setattr(solver, "flux_step", poisoned)
    assert cli_main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "step 2" in err and "(ix=4, iy=6)" in err
    assert not list((tmp_path / "out").glob("*rho*.txt"))


def test_kinetic_source_failure_exit_2_names_step_time_and_cell(tmp_path, monkeypatch, capsys):
    import moment_glioma.solver as solver

    path = tmp_path / "run.ini"
    path.write_text(STRAND_CONFIG.format(out=tmp_path / "out"))
    monkeypatch.setattr(solver, "_DG_NEWTON_MAXIT", 1)
    assert cli_main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: DG source Newton did not converge")
    assert "largest residual at cell (ix=" in err and "(at step 1, t=0.000000e+00)" in err
    assert not (tmp_path / "out").exists()


def test_k1f_on_the_seeded_brain_slice_stops_where_kappa_exceeds_1(tmp_path, capsys):
    # the benchmark's seeded brain slice (seed 0, brain_dti) lies outside
    # K1F's regime: kappa = eps eta lamH |gradQ| / R reaches 8.2 and exceeds
    # 1 in 54 % of its cells, and a K1F run to 0.005 T leaves the realizable
    # set in a source step; the outcome is asserted as it stands
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    from workloads import DEFAULT_SEED, WORKLOADS

    cfg = WORKLOADS["brain-diffusion"].config(DEFAULT_SEED, tmp_path)
    cfg = replace(
        cfg, model="K1F", times=(0.005 * cfg.physics.T_s,), out_dir=str(tmp_path / "out")
    )
    path = tmp_path / "run.ini"
    path.write_text(serialize_config(cfg))
    assert cli_main(["validate", "--config", str(path)]) == 0
    assert (
        "kappa = eps eta lamH |gradQ| / R: max 8.187 at cell (ix=97, iy=23), "
        "53.7 % of cells above 1"
    ) in capsys.readouterr().out
    assert cli_main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical failure: realizability violated after source step at cell (ix=94, iy=24): "
        "rho=7.410775e-05, |q|=7.617796e-05, kappa=7.66 (at step 25, t=1.865672e-03)"
    )
    assert not (tmp_path / "out").exists()


def test_compare_grid_mismatch_exit_1(tmp_path, capsys):
    ga = GridSpec(nx=3, ny=3, dx=0.5, dy=0.5)
    gb = GridSpec(nx=4, ny=3, dx=0.5, dy=0.5)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_field(pa, Field2D("rho", ga, 0.0, np.ones((3, 3))))
    write_field(pb, Field2D("rho", gb, 0.0, np.ones((3, 4))))
    assert cli_main(["compare", "--a", str(pa), "--b", str(pb)]) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_validate_nonfinite_tensor_entry_exit_1(tmp_path, capsys, bad):
    # write_tensor_field refuses non-finite entries, so the file is written as text
    lines = ["0.001 0.0 0.0 0.001 0.0 0.001"] * 16
    lines[2 * 4 + 1] = f"{bad!r} 0.0 0.0 0.001 0.0 0.001"
    (tmp_path / "t.txt").write_text("TENSORFIELD2D 4 4 0.0 0.0 1.0 1.0\n" + "\n".join(lines) + "\n")
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[scenario]\nname = tensor_file\ntensor_file = {tmp_path / 't.txt'}\n"
        "[physics]\npreset = brain_dti\n[model]\nkind = diffusion\n"
    )
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite tensor entry at cell (ix=1, iy=2)" in err


def test_compare_inf_spacing_exit_1(tmp_path, capsys):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    # write_field takes a GridSpec, which refuses dx = inf, so the file is written as text
    pa.write_text("FIELD2D rho 3 3 0.0 0.0 inf 0.5 1.0\n" + "1.0\n" * 9)
    write_field(pb, Field2D("rho", GridSpec(nx=3, ny=3, dx=0.5, dy=0.5), 1.0, np.ones((3, 3))))
    assert cli_main(["compare", "--a", str(pa), "--b", str(pb)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "grid spacings must be positive and finite" in err


@pytest.mark.parametrize(
    "physics",
    [
        "T_s = 1e-200\nc_mm_s = 1e-200\n",  # T c underflows to zero
        "T_s = 1e200\nc_mm_s = 1e-300\nlambda0_per_s = 1e-300\nx0_mm = 1e300\n",  # St overflows
    ],
)
def test_validate_unrepresentable_scaling_exit_1(tmp_path, capsys, physics):
    tensors = np.broadcast_to(np.eye(3) * 1e-3, (4, 4, 3, 3))
    write_tensor_field(
        tmp_path / "t.txt", WaterTensorField(GridSpec(nx=4, ny=4, dx=1.0, dy=1.0), tensors)
    )
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        f"[scenario]\nname = tensor_file\ntensor_file = {tmp_path / 't.txt'}\n"
        f"[physics]\npreset = brain_dti\n{physics}[model]\nkind = diffusion\n"
    )
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eps must be positive, got inf" in err


def test_compare_nonfinite_field_exit_1(tmp_path, capsys):
    grid = GridSpec(nx=3, ny=3, dx=0.5, dy=0.5)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    # write_field refuses non-finite values, so the file is written as text
    pa.write_text("FIELD2D rho 3 3 0.0 0.0 0.5 0.5 1.0\n" + "1.0\n" * 5 + "nan\n" + "1.0\n" * 3)
    write_field(pb, Field2D("rho", grid, 1.0, np.ones((3, 3))))
    assert cli_main(["compare", "--a", str(pa), "--b", str(pb)]) == 1
    assert f"{pa}:7: non-finite value 'nan'" in capsys.readouterr().err


def test_compare_nonfinite_header_time_exit_1(tmp_path, capsys):
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    # write_field refuses a non-finite time, so the file is written as text
    pa.write_text("FIELD2D rho 3 3 0.0 0.0 0.5 0.5 nan\n" + "1.0\n" * 9)
    write_field(pb, Field2D("rho", GridSpec(nx=3, ny=3, dx=0.5, dy=0.5), 1.0, np.ones((3, 3))))
    assert cli_main(["compare", "--a", str(pa), "--b", str(pb)]) == 1
    assert f"{pa}:1: non-finite header time 'nan'" in capsys.readouterr().err


def test_convergence_tensor_file_config_exit_1(tmp_path, capsys):
    tensors = np.broadcast_to(np.eye(3) * 1e-3, (4, 4, 3, 3))
    write_tensor_field(
        tmp_path / "t.txt", WaterTensorField(GridSpec(nx=4, ny=4, dx=1.0, dy=1.0), tensors)
    )
    cfg = tmp_path / "conv.ini"
    cfg.write_text(
        f"[scenario]\nname = tensor_file\ntensor_file = {tmp_path / 't.txt'}\n"
        "[physics]\npreset = brain_dti\n[model]\nkind = K1F\n"
    )
    assert cli_main(["convergence", "--config", str(cfg), "--eps", "1.0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "tensor_file" in captured.err
    assert captured.out == ""


CONVERGENCE_CONFIG = (
    "[scenario]\nname = fiber_strand\neps = 1.0\n"
    "[grid]\nnx = 12\nny = 12\n[model]\nkind = K1F\n"
)


@pytest.mark.parametrize("eps", ["", " , "])
def test_convergence_empty_eps_list_exit_1(tmp_path, capsys, eps):
    cfg = tmp_path / "conv.ini"
    cfg.write_text(CONVERGENCE_CONFIG)
    assert cli_main(["convergence", "--config", str(cfg), "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --eps needs at least one value\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "eps, message",
    [("1,x", "--eps must be a comma list of numbers, got '1,x'"),
     ("1,nan", "eps must be one or more positive finite values, got [1.0, nan]")],
)
def test_convergence_bad_eps_value_exit_1(tmp_path, capsys, eps, message):
    cfg = tmp_path / "conv.ini"
    cfg.write_text(CONVERGENCE_CONFIG)
    assert cli_main(["convergence", "--config", str(cfg), "--eps", eps]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_convergence_csv(tmp_path, capsys):
    cfg = tmp_path / "conv.ini"
    cfg.write_text(CONVERGENCE_CONFIG)
    out_csv = tmp_path / "conv.csv"
    code = cli_main(
        ["convergence", "--config", str(cfg), "--eps", "1.0,0.5", "--out", str(out_csv)]
    )
    assert code == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "eps,max_relerr,mean_relerr"
    assert len(lines) == 3
    first = float(lines[1].split(",")[1])
    second = float(lines[2].split(",")[1])
    assert second < first  # closer to the diffusion limit at smaller eps


def test_convergence_runs_the_config_grid_and_model(tmp_path, monkeypatch):
    # every run of the study, the diffusion reference included, is on the
    # config's own nx x ny grid (ny is not replaced by nx)
    from moment_glioma import scenarios

    runs = []
    run_scenario = scenarios.run_scenario

    def recorded(sc, **kw):
        runs.append((sc.model, sc.grid.nx, sc.grid.ny))
        return run_scenario(sc, **kw)

    monkeypatch.setattr(scenarios, "run_scenario", recorded)
    cfg = tmp_path / "conv.ini"
    cfg.write_text(CONVERGENCE_CONFIG.replace("ny = 12", "ny = 9"))
    assert cli_main(["convergence", "--config", str(cfg), "--eps", "1.0,0.5"]) == 0
    assert runs == [("diffusion", 12, 9), ("K1F", 12, 9), ("K1F", 12, 9)]


def test_closure_comparison_script_runs_every_face_path(monkeypatch, capsys):
    # P1, P1F and P3F take the characteristic-transform faces, K1F the
    # limited first-order faces; P3F is the reference
    import runpy
    from pathlib import Path

    script = Path(__file__).resolve().parent.parent / "scripts" / "run_closure_comparison.py"
    monkeypatch.setattr(
        "sys.argv", [str(script), "--n", "8", "--eps", "0.5", "--models", "P1,P1F,K1F,P3F"]
    )
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    for model in ("P1", "P1F", "K1F", "P3F"):
        assert f"{model}: wall " in out
    assert "relative difference to P3F:" in out
    rows = [line.split() for line in out.splitlines() if "max=" in line]
    assert [r[0] for r in rows] == ["P1:", "P1F:", "K1F:"]
    for row in rows:
        assert all(np.isfinite(float(f.split("=")[1])) for f in row[1:])
