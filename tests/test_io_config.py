"""File formats and run configuration round-trips."""

import numpy as np
import pytest

from moment_glioma.config import ConfigError, parse_config, serialize_config
from moment_glioma.fields_io import (
    Field2D,
    FileFormatError,
    read_field,
    read_tensor_field,
    write_field,
    write_tensor_field,
)
from moment_glioma.grid import GridSpec
from moment_glioma.tissue import WaterTensorField


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
cfl = 0.5

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
