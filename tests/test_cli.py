"""Command-line interface: subcommands, exit codes, output formats."""

import numpy as np
import pytest

from moment_glioma.cli import cli_main
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

    def poisoned(rho, fields):
        out = real(rho, fields)
        evals.append(1)
        if len(evals) == 2:  # last stage of step 1
            out[5, 3] = np.nan
        return out

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
        ("kind = K1F", "kind = K1F\ncfl = 1.5", "[model] cfl must be in (0, 1]"),
        ("kind = K1F", "kind = K1F\ncfl = nan", "[model] cfl must be in (0, 1]"),
        ("nx = 14", "nx = 0", "[grid] nx and ny must be at least 1"),
        (
            "kind = K1F", "kind = P1\nrealizability_floor = nan",
            "[model] realizability_floor must be positive and finite",
        ),
        (
            "[output]", "[physics]\npreset = brain_dti\nT_s = long\n\n[output]",
            "[physics] T_s = 'long' is not a valid float",
        ),
        ("times = 0.4", "times = inf", "[output] times must be finite and >= 0"),
        ("times = 0.4", "times = nan", "[output] times must be finite and >= 0"),
        ("times = 0.4", "times = -1", "[output] times must be finite and >= 0"),
        ("times = 0.4", "times = 0", "with at least one > 0"),
        ("eps = 0.5", "eps = 0.5\nt_final = 0", "[scenario] t_final must be positive and finite"),
        ("center_x = 0.5", "center_x = nan", "[initial] center_x, center_y and half_width"),
        ("center_y = 1.5", "center_y = nan", "[initial] center_x, center_y and half_width"),
        ("half_width = 0.05", "half_width = nan", "[initial] center_x, center_y and half_width"),
    ],
    ids=[
        "cfl-1.5", "cfl-nan", "nx-0", "floor-nan", "physics-text",
        "times-inf", "times-nan", "times-neg", "times-0", "t_final-0",
        "center_x-nan", "center_y-nan", "half_width-nan",
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
    real = solver.strang_step
    steps = []

    def poisoned(U, *args, **kwargs):
        U = real(U, *args, **kwargs)
        steps.append(1)
        if len(steps) == 2:
            U[6, 4, 2] = np.nan
        return U

    monkeypatch.setattr(solver, "strang_step", poisoned)
    assert cli_main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err and "step 2" in err and "(ix=4, iy=6)" in err
    assert not list((tmp_path / "out").glob("*rho*.txt"))


def test_compare_grid_mismatch_exit_1(tmp_path, capsys):
    ga = GridSpec(nx=3, ny=3, dx=0.5, dy=0.5)
    gb = GridSpec(nx=4, ny=3, dx=0.5, dy=0.5)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    write_field(pa, Field2D("rho", ga, 0.0, np.ones((3, 3))))
    write_field(pb, Field2D("rho", gb, 0.0, np.ones((3, 4))))
    assert cli_main(["compare", "--a", str(pa), "--b", str(pb)]) == 1


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


def test_convergence_csv(tmp_path, capsys):
    cfg = tmp_path / "conv.ini"
    cfg.write_text(
        "[scenario]\nname = fiber_strand\neps = 1.0\n"
        "[grid]\nnx = 12\nny = 12\n[model]\nkind = K1F\n"
    )
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
