"""Text formats for tensor inputs and field outputs.

TENSORFIELD2D (input):
    line 1:  TENSORFIELD2D nx ny x0 y0 dx dy
    then nx*ny lines, row-major with y as the outer index, each carrying
    the six independent entries  Dxx Dxy Dxz Dyy Dyz Dzz, all finite.

FIELD2D (output / comparison):
    line 1:  FIELD2D <name> nx ny x0 y0 dx dy t
    then nx*ny finite values, row-major (y outer), one per line.

The readers and the writers both reject non-finite tensor entries and
field values, naming the line (readers) or the cell (writers), and a
non-finite FIELD2D time (`read_field` names line 1).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .tissue import WaterTensorField


class FileFormatError(ValueError):
    pass


def _parse_header(tokens, kinds, path, what):
    if len(tokens) != len(kinds):
        raise FileFormatError(
            f"{path}:1: {what} header needs {len(kinds)} fields, got {len(tokens)}"
        )
    out = []
    for tok, kind in zip(tokens, kinds):
        try:
            out.append(kind(tok))
        except ValueError as err:
            raise FileFormatError(f"{path}:1: bad header token {tok!r}") from err
    return out


#: positions of Dxx Dxy Dxz Dyy Dyz Dzz in the full symmetric 3x3 tensor
_SYM_INDEX = [[0, 1, 2], [1, 3, 4], [2, 4, 5]]


def _parse_tensor_lines(body, lineno, path) -> np.ndarray:
    """Per-line parse of the tensor rows; raises naming the first bad line."""
    vals = np.empty((len(body), 6))
    for k, (ln, no) in enumerate(zip(body, lineno)):
        toks = ln.split()
        if len(toks) != 6:
            raise FileFormatError(f"{path}:{no}: expected 6 tensor entries, got {len(toks)}")
        try:
            vals[k] = [float(t) for t in toks]
        except ValueError as err:
            raise FileFormatError(f"{path}:{no}: non-numeric tensor entry") from err
    return vals


def read_tensor_field(path) -> WaterTensorField:
    """Read a TENSORFIELD2D file and validate its tensors.

    The returned field carries the eigenvalues the validation solved for.

    The body is converted by one `np.loadtxt` on the open file (it skips
    blank lines); only when that fails is it parsed line by line, to name
    the offending line.
    """
    path = str(path)
    with open(path, "r") as fh:
        first = fh.readline()
        if not first:
            raise FileFormatError(f"{path}:1: empty file")
        head = first.split()
        if not head or head[0] != "TENSORFIELD2D":
            raise FileFormatError(f"{path}:1: expected TENSORFIELD2D header")
        nx, ny, x0, y0, dx, dy = _parse_header(
            head[1:], [int, int, float, float, float, float], path, "TENSORFIELD2D"
        )
        grid = GridSpec(nx=nx, ny=ny, x0=x0, y0=y0, dx=dx, dy=dy)
        try:
            with warnings.catch_warnings():
                # an empty body is reported below, by the line count
                warnings.simplefilter("ignore", UserWarning)
                vals = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
        except ValueError:
            vals = None
    if vals is None or vals.shape != (nx * ny, 6):
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
        lineno = [no for no, ln in enumerate(lines[1:], start=2) if ln.strip()]
        body = [lines[no - 1] for no in lineno]
        if len(body) != nx * ny:
            raise FileFormatError(
                f"{path}: expected {nx * ny} tensor lines, found {len(body)}"
            )
        vals = _parse_tensor_lines(body, lineno, path)
    tensors = vals.reshape(ny, nx, 6)[..., _SYM_INDEX]
    field = WaterTensorField(grid=grid, tensors=tensors)
    field.eigenvalues = field.validate()
    return field


def _require_finite(values: np.ndarray, path, what: str) -> None:
    """Raise FileFormatError naming the first (row-major, y outer) cell of
    the (ny, nx, ...) array `values` holding a non-finite entry: the readers
    reject such files, so the writers do not produce them."""
    bad = ~np.isfinite(values)
    if bad.any():
        iy, ix = np.argwhere(bad)[0][:2]
        raise FileFormatError(f"{path}: non-finite {what} at cell (ix={ix}, iy={iy})")


def write_tensor_field(path, field: WaterTensorField) -> None:
    g = field.grid
    _require_finite(field.tensors, path, "tensor entry")
    # Dxx Dxy Dxz Dyy Dyz Dzz of every cell, (ny, nx, 6)
    upper = np.triu_indices(3)
    six = field.tensors[..., upper[0], upper[1]]
    with open(str(path), "w") as fh:
        fh.write(f"TENSORFIELD2D {g.nx} {g.ny} {g.x0!r} {g.y0!r} {g.dx!r} {g.dy!r}\n")
        # one grid row at a time: the floats of a whole-grid .tolist() would
        # stay in the interpreter's heap and raise the process's peak memory
        for row in six:
            fh.writelines(" ".join(map(repr, cell)) + "\n" for cell in row.tolist())


@dataclass
class Field2D:
    name: str
    grid: GridSpec
    time: float
    values: np.ndarray  # (ny, nx)


def read_field(path) -> Field2D:
    path = str(path)
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise FileFormatError(f"{path}:1: empty file")
    head = lines[0].split()
    if not head or head[0] != "FIELD2D":
        raise FileFormatError(f"{path}:1: expected FIELD2D header")
    if len(head) < 2:
        raise FileFormatError(f"{path}:1: FIELD2D header missing field name")
    name = head[1]
    nx, ny, x0, y0, dx, dy, t = _parse_header(
        head[2:], [int, int, float, float, float, float, float], path, "FIELD2D"
    )
    if not math.isfinite(t):
        raise FileFormatError(f"{path}:1: non-finite header time {head[-1]!r}")
    grid = GridSpec(nx=nx, ny=ny, x0=x0, y0=y0, dx=dx, dy=dy)
    try:
        values = np.fromiter(map(float, " ".join(lines[1:]).split()), dtype=float)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values).all():
        _reject_field_line(lines, path)
    if values.size != nx * ny:
        raise FileFormatError(f"{path}: expected {nx * ny} values, found {values.size}")
    return Field2D(name=name, grid=grid, time=t, values=values.reshape(ny, nx))


def _reject_field_line(lines, path):
    """Raise FileFormatError naming the first FIELD2D body line with a
    non-numeric or non-finite value; `read_field` converts the whole body at
    once and scans line by line only when that conversion finds one."""
    for k, ln in enumerate(lines[1:]):
        for tok in ln.split():
            try:
                v = float(tok)
            except ValueError as err:
                raise FileFormatError(f"{path}:{k + 2}: non-numeric value {tok!r}") from err
            if not math.isfinite(v):
                raise FileFormatError(f"{path}:{k + 2}: non-finite value {tok!r}")


def write_field(path, field: Field2D) -> None:
    g = field.grid
    vals = np.asarray(field.values, dtype=float)
    if vals.shape != (g.ny, g.nx):
        raise FileFormatError(f"field shape {vals.shape} does not match grid")
    _require_finite(vals, path, "value")
    if not math.isfinite(field.time):
        raise FileFormatError(f"{path}: non-finite time {field.time!r}")
    with open(str(path), "w") as fh:
        fh.write(
            f"FIELD2D {field.name} {g.nx} {g.ny} "
            f"{g.x0!r} {g.y0!r} {g.dx!r} {g.dy!r} {float(field.time)!r}\n"
        )
        for row in vals:
            fh.writelines(f"{v!r}\n" for v in row.tolist())
