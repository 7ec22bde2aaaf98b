"""File formats and run configuration round-trips."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from moment_glioma.config import (
    _SECTIONS,
    PHYSICS_PRESETS,
    ConfigError,
    PhysicsConfig,
    RunConfig,
    parse_config,
    serialize_config,
)
from moment_glioma.fields_io import (
    Field2D,
    FileFormatError,
    read_field,
    read_tensor_field,
    write_field,
    write_tensor_field,
)
from moment_glioma.grid import GridSpec
from moment_glioma.systems import REALIZABILITY_FLOOR
from moment_glioma.tissue import TissueError, WaterTensorField


def make_tensor_field(rng, nx=5, ny=4):
    grid = GridSpec(nx=nx, ny=ny, x0=1.0, y0=-2.0, dx=0.5, dy=0.25)
    tensors = np.empty((ny, nx, 3, 3))
    for iy in range(ny):
        for ix in range(nx):
            a = rng.normal(size=(3, 3))
            tensors[iy, ix] = a @ a.T + 0.1 * np.eye(3)
    return WaterTensorField(grid, tensors)


def test_tensor_field_roundtrip(tmp_path):
    field = make_tensor_field(np.random.default_rng(0))
    path = tmp_path / "t.txt"
    write_tensor_field(path, field)
    back = read_tensor_field(path)
    assert back.grid.close_to(field.grid)
    assert np.array_equal(back.tensors, field.tensors)


def test_tensor_field_errors(tmp_path):
    path = tmp_path / "bad.txt"
    line = "1 0 0 1 0 1\n"
    path.write_text("TENSORFIELD2D 3 3 0 0 1 1\n" + line * 5)
    with pytest.raises(FileFormatError, match="expected 9 tensor lines"):
        read_tensor_field(path)
    path.write_text("TENSORFIELD2D 3 3 0 0 1 1\n" + line + "1 0 0 1\n" + line * 7)
    with pytest.raises(FileFormatError, match=":3:"):
        read_tensor_field(path)
    path.write_text("WRONG 1 2 3\n")
    with pytest.raises(FileFormatError, match="TENSORFIELD2D header"):
        read_tensor_field(path)


def test_tensor_field_bad_token_names_line(tmp_path):
    # the vectorized parse fails; the per-line fallback names the line
    path = tmp_path / "bad.txt"
    line = "1 0 0 1 0 1\n"
    path.write_text("TENSORFIELD2D 3 3 0 0 1 1\n" + line * 4 + "1 0 zero 1 0 1\n" + line * 4)
    with pytest.raises(FileFormatError, match=r":6: non-numeric tensor entry"):
        read_tensor_field(path)
    # six tokens per line on average, but not on every line
    path.write_text("TENSORFIELD2D 3 3 0 0 1 1\n" + line + "1 0 0 1 0\n1 0 0 1 0 1 0\n" + line * 6)
    with pytest.raises(FileFormatError, match=r":3: expected 6 tensor entries, got 5"):
        read_tensor_field(path)
    # blank lines are skipped but still counted
    path.write_text("TENSORFIELD2D 3 3 0 0 1 1\n\n" + line + "\n1 0 x 1 0 1\n" + line * 7)
    with pytest.raises(FileFormatError, match=r":5: non-numeric tensor entry"):
        read_tensor_field(path)


@pytest.mark.parametrize(
    "kw, message",
    [
        (dict(x0=np.nan), "grid origin must be finite"),
        (dict(y0=-np.inf), "grid origin must be finite"),
        (dict(dx=np.nan), "grid spacings must be positive and finite"),
        (dict(dy=np.inf), "grid spacings must be positive and finite"),
        (dict(dx=0.0), "grid spacings must be positive and finite"),
        (dict(dy=-1.0), "grid spacings must be positive and finite"),
    ],
)
def test_grid_rejects_nonfinite_origin_and_spacing(kw, message):
    with pytest.raises(ValueError, match=message):
        GridSpec(nx=3, ny=3, **kw)


def test_tensor_field_rejects_nan_grid_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("TENSORFIELD2D 3 3 nan 0 nan 1\n" + "1 0 0 1 0 1\n" * 9)
    with pytest.raises(ValueError, match="grid origin must be finite, got x0=nan"):
        read_tensor_field(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_tensor_field_nonfinite_entry_names_cell(tmp_path, bad):
    # np.loadtxt parses nan and inf, so the validation must reject them
    path = tmp_path / "bad.txt"
    line = "1 0 0 1 0 1\n"
    path.write_text("TENSORFIELD2D 3 3 0 0 1 1\n" + line * 5 + f"1 0 0 {bad} 0 1\n" + line * 3)
    with pytest.raises(TissueError, match=r"non-finite tensor entry at cell \(ix=2, iy=1\), x=2.5, y=1.5"):
        read_tensor_field(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_writers_reject_nonfinite_values_naming_the_cell(tmp_path, bad):
    field = make_tensor_field(np.random.default_rng(2))
    field.tensors[1, 2, 0, 1] = bad
    field.tensors[2, 0, 2, 2] = bad
    path = tmp_path / "t.txt"
    with pytest.raises(FileFormatError, match=r"non-finite tensor entry at cell \(ix=2, iy=1\)"):
        write_tensor_field(path, field)
    assert not path.exists()
    values = np.ones((3, 4))
    values[2, 1] = bad
    grid = GridSpec(nx=4, ny=3, dx=0.5, dy=0.5)
    with pytest.raises(FileFormatError, match=r"non-finite value at cell \(ix=1, iy=2\)"):
        write_field(path, Field2D(name="rho", grid=grid, time=0.0, values=values))
    assert not path.exists()


def test_field_roundtrip(tmp_path):
    grid = GridSpec(nx=4, ny=3, x0=0.25, y0=0.5, dx=0.125, dy=0.0625)
    rng = np.random.default_rng(1)
    values = rng.normal(size=(3, 4))
    path = tmp_path / "f.txt"
    write_field(path, Field2D(name="rho", grid=grid, time=0.375, values=values))
    back = read_field(path)
    assert back.name == "rho"
    assert back.time == 0.375
    assert back.grid.close_to(grid)
    assert np.array_equal(back.values, values)


def test_field_count_error(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("FIELD2D rho 3 3 0 0 1 1 0\n" + "1.0\n" * 7)
    with pytest.raises(FileFormatError, match="expected 9 values"):
        read_field(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_field_nonfinite_value_names_line(tmp_path, bad):
    path = tmp_path / "f.txt"
    path.write_text("FIELD2D rho 3 3 0 0 1 1 0\n" + "1.0\n" * 4 + f"{bad}\n" + "1.0\n" * 4)
    with pytest.raises(FileFormatError, match=f":6: non-finite value '{bad}'"):
        read_field(path)


@pytest.mark.parametrize("bad", ["1.0x", "0x1p3", "--1", "1,5"])
def test_field_non_numeric_value_names_line(tmp_path, bad):
    # the same tokens Python's float rejects; a non-finite value on a later
    # line does not hide the earlier non-numeric one
    path = tmp_path / "f.txt"
    path.write_text("FIELD2D rho 3 3 0 0 1 1 0\n" + "1.0\n" * 3 + f"2.0 {bad}\n" + "nan\n" + "1.0\n" * 3)
    with pytest.raises(FileFormatError, match=f":5: non-numeric value '{bad}'"):
        read_field(path)


def test_field_values_are_read_as_python_floats(tmp_path):
    # tokens on one line or several, with the spellings float accepts
    tokens = ["1", "-2.5e-3", "+0.125", "1_000.5", " 7E2", "0.1", "-0", "3.", ".5"]
    path = tmp_path / "f.txt"
    path.write_text("FIELD2D rho 3 3 0 0 1 1 0\n" + " ".join(tokens[:4]) + "\n\n" + "\n".join(tokens[4:]) + "\n")
    assert read_field(path).values.ravel().tolist() == [float(t) for t in tokens]


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_field_nonfinite_header_time_names_line_1(tmp_path, bad):
    path = tmp_path / "f.txt"
    path.write_text(f"FIELD2D rho 3 3 0.0 0.0 0.5 0.5 {bad}\n" + "1.0\n" * 9)
    with pytest.raises(FileFormatError, match=f":1: non-finite header time '{bad}'"):
        read_field(path)
    grid = GridSpec(nx=3, ny=3, dx=0.5, dy=0.5)
    with pytest.raises(FileFormatError, match="non-finite time"):
        write_field(path, Field2D("rho", grid, float(bad), np.ones((3, 3))))


STRAND_CONFIG = """
[scenario]
name = fiber_strand
eps = 0.25
estimator = FA

[grid]
nx = 30
ny = 30

[model]
kind = K1F

[output]
directory = out
times = 1.0, 2.0
"""


def test_parse_and_roundtrip():
    cfg = parse_config(STRAND_CONFIG)
    assert cfg.scenario == "fiber_strand"
    assert cfg.eps == 0.25
    assert cfg.nx == 30
    assert cfg.times == (1.0, 2.0)
    text = serialize_config(cfg)
    again = parse_config(text)
    assert again == cfg
    # serialization is a fixed point
    assert serialize_config(again) == text


def test_parse_physics_preset():
    cfg = parse_config(
        STRAND_CONFIG.replace("name = fiber_strand", "name = fiber_strand")
        + "\n[physics]\npreset = brain_dti\nx0_mm = 100.0\n"
    )
    assert cfg.physics.T_s == 1.5768e7
    assert cfg.physics.x0_mm == 100.0  # explicit keys override the preset
    again = parse_config(serialize_config(cfg))
    assert again == cfg


def test_parse_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[grid]\nnz = 4\n")
    with pytest.raises(ConfigError, match="unknown config section"):
        parse_config("[grids]\nnx = 4\n")
    with pytest.raises(ConfigError, match="model"):
        parse_config("[model]\nkind = P9\n")
    with pytest.raises(ConfigError, match="tensor_file"):
        parse_config("[scenario]\nname = tensor_file\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\nnx = four\n")
    with pytest.raises(ConfigError, match="preset"):
        parse_config("[physics]\npreset = nope\n")


@pytest.mark.parametrize("model", ["K1F", "M1F"])
def test_zero_background_rejected_for_entropy_closures(model):
    # vacuum cells make q/rho undefined and the DG source Newton run NaN
    with pytest.raises(ConfigError, match=f"model {model} needs a positive background"):
        parse_config(f"[model]\nkind = {model}\n[initial]\nbackground = 0\n")
    for other in ("P1F", "diffusion"):
        assert parse_config(f"[model]\nkind = {other}\n[initial]\nbackground = 0\n")
    with pytest.raises(ConfigError, match="nonnegative"):
        parse_config(f"[model]\nkind = {model}\n[initial]\nbackground = nan\n")


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", "0", "-0.1"])
def test_nonfinite_or_nonpositive_eps_rejected(eps):
    with pytest.raises(ConfigError, match="eps must be positive and finite"):
        parse_config(f"[scenario]\neps = {eps}\n")


@pytest.mark.parametrize(
    "text, match",
    [
        # the run settings that are constants now are unknown keys
        ("[model]\ncfl = 0\n", r"unknown key 'cfl' in section \[model\]"),
        ("[model]\ncfl = 1.5\n", r"unknown key 'cfl' in section \[model\]"),
        ("[model]\ncfl = nan\n", r"unknown key 'cfl' in section \[model\]"),
        ("[grid]\nnx = 0\n", r"\[grid\] nx and ny must be at least 3, got 0, 60"),
        ("[grid]\nny = -2\n", r"\[grid\] nx and ny must be at least 3, got 60, -2"),
        ("[grid]\nnx = 2\n", r"\[grid\] nx and ny must be at least 3, got 2, 60"),
        ("[model]\nquad_degree = 1\n", r"unknown key 'quad_degree' in section \[model\]"),
        (
            "[model]\nrealizability_floor = nan\n",
            r"unknown key 'realizability_floor' in section \[model\]",
        ),
        (
            "[model]\nrealizability_floor = 0\n",
            r"unknown key 'realizability_floor' in section \[model\]",
        ),
        (
            "[model]\nrealizability_floor = inf\n",
            r"unknown key 'realizability_floor' in section \[model\]",
        ),
        (
            "[physics]\npreset = brain_dti\nx0_mm = far\n",
            r"\[physics\] x0_mm = 'far' is not a valid float",
        ),
        ("[output]\ntimes = inf\n", r"\[output\] times must be finite and >= 0 .*got \[inf\]"),
        ("[output]\ntimes = 1, nan\n", r"\[output\] times must be finite and >= 0"),
        ("[output]\ntimes = -1\n", r"\[output\] times must be finite and >= 0"),
        ("[output]\ntimes = 0\n", r"with at least one > 0, got \[0.0\]"),
        ("[scenario]\nt_final = 0\n", r"unknown key 't_final' in section \[scenario\]"),
        ("[scenario]\nt_final = inf\n", r"unknown key 't_final' in section \[scenario\]"),
        ("[initial]\ncenter_x = nan\n", r"\[initial\] center_x, center_y and half_width must"),
        ("[initial]\ncenter_y = inf\n", r"\[initial\] center_x, center_y and half_width must"),
        ("[initial]\nhalf_width = nan\n", r"\[initial\] center_x, center_y and half_width must"),
        ("[initial]\nhalf_width = -0.5\n", r"half_width nonnegative, got 0.5, 1.5, -0.5"),
        ("[initial]\ndensity = inf\n", r"\[initial\] density and background must be finite"),
        ("[initial]\nbackground = inf\n", r"\[initial\] density and background must be finite"),
        ("[initial]\ndensity = -1\n", r"\[initial\] density and background must be finite"),
    ],
    ids=[
        "cfl-0", "cfl-1.5", "cfl-nan", "nx-0", "ny-neg", "nx-2", "quad_degree-1",
        "floor-nan", "floor-0", "floor-inf", "physics-text",
        "times-inf", "times-nan", "times-neg", "times-0", "t_final-0", "t_final-inf",
        "center_x-nan", "center_y-inf", "half_width-nan", "half_width-neg",
        "density-inf", "background-inf", "density-neg",
    ],
)
def test_bad_values_rejected_at_parse_time(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(text)


def test_boundary_values_accepted():
    cfg = parse_config("[grid]\nnx = 3\nny = 3\n")
    assert (cfg.nx, cfg.ny) == (3, 3)
    # a snapshot at t = 0 next to a positive time, and an empty list (end only)
    assert parse_config("[output]\ntimes = 0, 0.5\n").times == (0.0, 0.5)
    assert parse_config("[output]\ntimes =\n").times == ()


def test_readme_lists_every_config_key():
    # the README's key list is the parser's, so a removed or added key fails
    # here instead of leaving the README stale
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    bullets = readme.split("Every key, by section")[1].split("\n\n")[1]
    listed = {}
    for bullet in bullets.removeprefix("- ").split("\n- "):
        section = re.match(r"`\[(\w+)\]`", bullet)
        listed[section.group(1)] = set(re.findall(r"`(\w+)`", bullet[section.end():]))
    keys = {section: {key for key, _, _ in entries} for section, entries in _SECTIONS.items()}
    keys["output"].add("times")
    keys["physics"] = {"preset"} | {f.name for f in fields(PhysicsConfig)}
    assert listed == keys


def test_every_run_config_field_has_exactly_one_key():
    # a field without a key cannot be set from a file, and one that
    # serialize_config skips is lost on the way back
    keyed = [attr for entries in _SECTIONS.values() for _, attr, _ in entries]
    keyed += ["times", "physics"]  # [output] times, and the [physics] section
    assert sorted(keyed) == sorted(f.name for f in fields(RunConfig))
    physics = {k: 1.5 * v for k, v in PHYSICS_PRESETS["brain_dti"].items()}
    cfg = RunConfig(
        scenario="tensor_file", estimator="CL", eps=0.5, tensor_file="slice.tensor",
        physics=PhysicsConfig(**physics), nx=7, ny=9, model="P3F",
        center_x=1.25, center_y=2.5, half_width=0.3,
        density=2.0, background=1e-3, out_dir="elsewhere", times=(0.5, 1.0),
    )
    default = RunConfig()
    for f in fields(RunConfig):
        assert getattr(cfg, f.name) != getattr(default, f.name), f.name
    assert parse_config(serialize_config(cfg)) == cfg
    # the realizability floor is the systems' constant, read but not keyed
    assert RunConfig.realizability_floor == REALIZABILITY_FLOOR
    assert "realizability_floor" not in {f.name for f in fields(RunConfig)}
