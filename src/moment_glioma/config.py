"""Flat key = value run configuration with INI-style sections.

Sections: [scenario], [physics] (tensor-file runs), [grid], [model],
[initial], [output]. All physical quantities carry their unit in the key
name (seconds, millimeters). `serialize_config(parse_config(text))` is a
fixed point: floats are written with repr() and therefore round-trip
bit-exactly. `parse_config` takes the INI text; reading a file is the
caller's job.

What no run varies is not a key: the fiber strand's geometry (X = 3,
T = 2, sigma = 0.1, d33 = 1) is fixed in `scenarios`, the CFL number in
`solver`, and each closure's quadrature rule and the realizability floor
in `systems`.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields
from typing import ClassVar

from .systems import MOMENT_MODELS, REALIZABILITY_FLOOR


class ConfigError(ValueError):
    pass


#: Table-style physical parameter block for the 2D brain-slice scenario.
PHYSICS_PRESETS = {
    "brain_dti": dict(
        T_s=1.5768e7,
        c_mm_s=2.1e-4,
        lambda0_per_s=1.0e-5,
        lambda1_per_s=2.5e-4,
        kplus_per_s=1.0e-5,
        kminus_per_s=1.0e-5,
        x0_mm=1000.0,
    ),
}


@dataclass
class PhysicsConfig:
    T_s: float
    c_mm_s: float
    lambda0_per_s: float
    lambda1_per_s: float
    kplus_per_s: float
    kminus_per_s: float
    x0_mm: float


@dataclass
class RunConfig:
    # scenario
    scenario: str = "fiber_strand"          # fiber_strand | tensor_file
    estimator: str = "FA"                   # FA | CL
    eps: float = 0.25                       # fiber_strand scaling parameter
    tensor_file: str = ""
    physics: PhysicsConfig | None = None
    # grid
    nx: int = 60
    ny: int = 60
    # model
    model: str = "K1F"
    # initial condition (scenario coordinates)
    center_x: float = 0.5
    center_y: float = 1.5
    half_width: float = 0.05
    density: float = 1.0
    background: float = 1e-4
    # output
    out_dir: str = "runs"
    times: tuple = (2.0,)
    #: not a key: the floor of the realizable set, `systems.REALIZABILITY_FLOOR`
    realizability_floor: ClassVar[float] = REALIZABILITY_FLOOR

    def validate(self) -> None:
        if self.scenario not in ("fiber_strand", "tensor_file"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.estimator not in ("FA", "CL"):
            raise ConfigError(f"estimator must be FA or CL, got {self.estimator!r}")
        if self.scenario == "fiber_strand" and not (0 < self.eps < float("inf")):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        # an empty list means one output at the end of the scenario
        if not all(0 <= t < float("inf") for t in self.times) or (
            self.times and max(self.times) <= 0
        ):
            raise ConfigError(
                f"[output] times must be finite and >= 0 with at least one > 0, "
                f"got {list(self.times)}"
            )
        # a negative half-width would silently mean "the nearest cell"
        if not (
            all(math.isfinite(v) for v in (self.center_x, self.center_y))
            and 0 <= self.half_width < float("inf")
        ):
            raise ConfigError(
                f"[initial] center_x, center_y and half_width must be finite and "
                f"half_width nonnegative, got {self.center_x}, {self.center_y}, "
                f"{self.half_width}"
            )
        # GridSpec needs three cells per axis
        if not (self.nx >= 3 and self.ny >= 3):
            raise ConfigError(f"[grid] nx and ny must be at least 3, got {self.nx}, {self.ny}")
        if self.scenario == "tensor_file":
            if not self.tensor_file:
                raise ConfigError("tensor_file scenario needs a tensor_file path")
            if self.physics is None:
                raise ConfigError(
                    "tensor_file scenario needs a [physics] section (or preset)"
                )
        if not (0 <= self.density < float("inf") and 0 <= self.background < float("inf")):
            raise ConfigError(
                f"[initial] density and background must be finite and nonnegative, "
                f"got {self.density}, {self.background}"
            )
        if self.model in ("K1F", "M1F") and not self.background > 0:
            # q/rho is undefined in vacuum cells: the DG source Newton goes NaN
            raise ConfigError(
                f"model {self.model} needs a positive background density, "
                f"got {self.background}"
            )
        if self.model != "diffusion" and not MOMENT_MODELS.fullmatch(self.model):
            raise ConfigError(
                f"model must be diffusion, K1F, M1F, P1..P5 or P1F..P5F, "
                f"got {self.model!r}"
            )


_SECTIONS = {
    "scenario": [
        ("name", "scenario", str),
        ("estimator", "estimator", str),
        ("eps", "eps", float),
        ("tensor_file", "tensor_file", str),
    ],
    "grid": [("nx", "nx", int), ("ny", "ny", int)],
    "model": [("kind", "model", str)],
    "initial": [
        ("center_x", "center_x", float),
        ("center_y", "center_y", float),
        ("half_width", "half_width", float),
        ("density", "density", float),
        ("background", "background", float),
    ],
    "output": [("directory", "out_dir", str)],
}


def _convert(section: str, key: str, raw: str, kind):
    try:
        return kind(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}") from err


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a validated RunConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keys are case-sensitive (unit suffixes)
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}") from err

    for section in parser.sections():
        if section not in _SECTIONS and section != "physics":
            raise ConfigError(f"unknown config section [{section}]")

    cfg = RunConfig()
    for section, entries in _SECTIONS.items():
        if not parser.has_section(section):
            continue
        known = {key for key, _, _ in entries}
        if section == "output":
            known.add("times")
        for key in parser[section]:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
        for key, attr, kind in entries:
            if parser.has_option(section, key):
                setattr(cfg, attr, _convert(section, key, parser.get(section, key), kind))
    if parser.has_option("output", "times"):
        raw = parser.get("output", "times")
        try:
            cfg.times = tuple(float(tok) for tok in raw.replace(",", " ").split())
        except ValueError as err:
            raise ConfigError(f"[output] times = {raw!r} is not a float list") from err

    if parser.has_section("physics"):
        vals = {}
        known = {f.name for f in fields(PhysicsConfig)} | {"preset"}
        for key in parser["physics"]:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [physics]")
        preset = parser.get("physics", "preset", fallback=None)
        if preset:
            if preset not in PHYSICS_PRESETS:
                raise ConfigError(
                    f"unknown physics preset {preset!r}; available: "
                    f"{sorted(PHYSICS_PRESETS)}"
                )
            vals.update(PHYSICS_PRESETS[preset])
        for f in fields(PhysicsConfig):
            if parser.has_option("physics", f.name):
                vals[f.name] = _convert("physics", f.name, parser.get("physics", f.name), float)
        missing = [f.name for f in fields(PhysicsConfig) if f.name not in vals]
        if missing:
            raise ConfigError(f"[physics] missing keys: {missing}")
        cfg.physics = PhysicsConfig(**vals)

    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical INI text; parse(serialize(cfg)) == cfg bit-exactly."""

    def fmt(v):
        return repr(v) if isinstance(v, float) else str(v)

    out = io.StringIO()
    for section, entries in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key, attr, _ in entries:
            out.write(f"{key} = {fmt(getattr(cfg, attr))}\n")
        if section == "output":
            out.write(f"times = {', '.join(repr(t) for t in cfg.times)}\n")
        out.write("\n")
    if cfg.physics is not None:
        out.write("[physics]\n")
        for f in fields(PhysicsConfig):
            out.write(f"{f.name} = {fmt(getattr(cfg.physics, f.name))}\n")
        out.write("\n")
    return out.getvalue()
