"""Flat key = value run configuration with INI-style sections.

Sections: [scenario], [physics] (tensor-file runs), [grid], [model],
[initial], [output]. All physical quantities carry their unit in the key
name (seconds, millimeters). `serialize_config(parse_config(text))` is a
fixed point: floats are written with repr() and therefore round-trip
bit-exactly.
"""

from __future__ import annotations

import configparser
import io
import re
from dataclasses import dataclass, fields


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
    domain_size: float = 3.0                # fiber_strand X
    t_final: float = 2.0                    # fiber_strand T
    strand_sigma: float = 0.1
    strand_d33: float = 1.0
    tensor_file: str = ""
    physics: PhysicsConfig | None = None
    # grid
    nx: int = 60
    ny: int = 60
    # model
    model: str = "K1F"
    cfl: float = 0.5
    quad_degree: int = 10
    realizability_floor: float = 1e-12
    # initial condition (scenario coordinates)
    center_x: float = 0.5
    center_y: float = 1.5
    half_width: float = 0.05
    density: float = 1.0
    background: float = 1e-4
    # output
    out_dir: str = "runs"
    times: tuple = (2.0,)

    def validate(self) -> None:
        if self.scenario not in ("fiber_strand", "tensor_file"):
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        if self.estimator not in ("FA", "CL"):
            raise ConfigError(f"estimator must be FA or CL, got {self.estimator!r}")
        if self.scenario == "fiber_strand" and not (0 < self.eps < float("inf")):
            raise ConfigError(f"eps must be positive and finite, got {self.eps}")
        if self.scenario == "tensor_file":
            if not self.tensor_file:
                raise ConfigError("tensor_file scenario needs a tensor_file path")
            if self.physics is None:
                raise ConfigError(
                    "tensor_file scenario needs a [physics] section (or preset)"
                )
        if not (self.density >= 0 and self.background >= 0):
            raise ConfigError("initial density values must be nonnegative")
        if self.model in ("K1F", "M1F") and not self.background > 0:
            # q/rho is undefined in vacuum cells: the DG source Newton goes NaN
            raise ConfigError(
                f"model {self.model} needs a positive background density, "
                f"got {self.background}"
            )
        if self.model != "diffusion":
            if not re.match(r"^(K1F|M1F|P[1-5]F?)$", self.model):
                raise ConfigError(
                    f"model must be diffusion, K1F, M1F, P1..P5 or P1F..P5F, "
                    f"got {self.model!r}"
                )


_SECTIONS = {
    "scenario": [
        ("name", "scenario", str),
        ("estimator", "estimator", str),
        ("eps", "eps", float),
        ("domain_size", "domain_size", float),
        ("t_final", "t_final", float),
        ("strand_sigma", "strand_sigma", float),
        ("strand_d33", "strand_d33", float),
        ("tensor_file", "tensor_file", str),
    ],
    "grid": [("nx", "nx", int), ("ny", "ny", int)],
    "model": [
        ("kind", "model", str),
        ("cfl", "cfl", float),
        ("quad_degree", "quad_degree", int),
        ("realizability_floor", "realizability_floor", float),
    ],
    "initial": [
        ("center_x", "center_x", float),
        ("center_y", "center_y", float),
        ("half_width", "half_width", float),
        ("density", "density", float),
        ("background", "background", float),
    ],
    "output": [("directory", "out_dir", str)],
}


def parse_config(text_or_path) -> RunConfig:
    """Parse a config file path or raw text into a validated RunConfig."""
    text = text_or_path
    if "\n" not in str(text_or_path) and "=" not in str(text_or_path):
        try:
            with open(text_or_path, "r") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config {text_or_path!r}: {err}") from err
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
                raw = parser.get(section, key)
                try:
                    setattr(cfg, attr, kind(raw))
                except ValueError as err:
                    raise ConfigError(
                        f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
                    ) from err
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
                vals[f.name] = parser.getfloat("physics", f.name)
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
