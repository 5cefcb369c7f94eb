"""Run configuration: flat INI files with one section per concern.

Unknown sections or keys are rejected so that typos fail loudly.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Union

from .models import Family, ScenarioKind
from .robust import MMConfig
from .roc import MarkerTransform, Variant
from .simulate import ContaminationKind, ContaminationScheme, ScenarioSpec
from .weighting import WeightKind

PathLike = Union[str, Path]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    family: Family = Family.LINEAR
    variant: Variant = Variant.ROBUST
    mm: MMConfig = field(default_factory=MMConfig)
    eta: float = 2.5
    weight_kind: WeightKind = WeightKind.HARD_REJECTION
    transform: Optional[MarkerTransform] = None
    p_min: float = 0.01
    p_max: float = 0.99
    p_count: int = 99
    x_min: Optional[float] = None      # default: observed covariate range
    x_max: Optional[float] = None
    x_count: int = 41
    out_dir: Path = Path(".")
    seed: int = 0
    # simulation campaign settings
    scenario: ScenarioKind = ScenarioKind.LINEAR
    n_D: int = 100
    n_H: int = 100
    n_rep: int = 200
    contamination: ContaminationKind = ContaminationKind.NONE
    delta: float = 0.0
    shift_s: float = 0.0
    diseased_line: bool = False
    keep_auc: bool = False

    def scenario_spec(self) -> ScenarioSpec:
        return ScenarioSpec(model=self.scenario, n_D=self.n_D, n_H=self.n_H,
                            seed=self.seed)

    def contamination_scheme(self) -> ContaminationScheme:
        return ContaminationScheme(kind=self.contamination, delta=self.delta,
                                   shift_s=self.shift_s,
                                   diseased_line=self.diseased_line)


_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _parse_bool(raw: str, where: str) -> bool:
    try:
        return _BOOL[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"{where}: expected a boolean, found {raw!r}") from None


def _parse_enum(enum_cls, raw: str, where: str):
    try:
        return enum_cls(raw.strip().lower())
    except ValueError:
        valid = ", ".join(m.value for m in enum_cls)
        raise ConfigError(
            f"{where}: {raw!r} is not one of {{{valid}}}"
        ) from None


def _parse_num(cast, raw: str, where: str):
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {raw!r}") from None


def _parse_weight_kind(raw: str, where: str) -> WeightKind:
    kind = _parse_enum(WeightKind, raw, where)
    if kind is WeightKind.CUSTOM:
        raise ConfigError(f"{where}: a custom weight function is built in code, "
                          "not named in a config; use hard or smooth")
    return kind


# section -> key -> (RunConfig attribute, parser)
_SCHEMA = {
    "model": {
        "family": ("family", lambda r, w: _parse_enum(Family, r, w)),
        "transform": ("transform", lambda r, w: _parse_enum(MarkerTransform, r, w)),
    },
    "fit": {
        "variant": ("variant", lambda r, w: _parse_enum(Variant, r, w)),
        "rho_s_tuning": ("mm.rho_s_tuning", lambda r, w: _parse_num(float, r, w)),
        "rho_m_tuning": ("mm.rho_m_tuning", lambda r, w: _parse_num(float, r, w)),
        "breakdown_b": ("mm.breakdown_b", lambda r, w: _parse_num(float, r, w)),
        "n_subsamples": ("mm.n_subsamples", lambda r, w: _parse_num(int, r, w)),
        "max_iter": ("mm.max_iter", lambda r, w: _parse_num(int, r, w)),
        "tol": ("mm.tol", lambda r, w: _parse_num(float, r, w)),
    },
    "weights": {
        "eta": ("eta", lambda r, w: _parse_num(float, r, w)),
        "kind": ("weight_kind", _parse_weight_kind),
    },
    "grids": {
        "p_min": ("p_min", lambda r, w: _parse_num(float, r, w)),
        "p_max": ("p_max", lambda r, w: _parse_num(float, r, w)),
        "p_count": ("p_count", lambda r, w: _parse_num(int, r, w)),
        "x_min": ("x_min", lambda r, w: _parse_num(float, r, w)),
        "x_max": ("x_max", lambda r, w: _parse_num(float, r, w)),
        "x_count": ("x_count", lambda r, w: _parse_num(int, r, w)),
    },
    "output": {
        "out_dir": ("out_dir", lambda r, w: Path(r)),
        "seed": ("seed", lambda r, w: _parse_num(int, r, w)),
    },
    "simulate": {
        "scenario": ("scenario", lambda r, w: _parse_enum(ScenarioKind, r, w)),
        "n_d": ("n_D", lambda r, w: _parse_num(int, r, w)),
        "n_h": ("n_H", lambda r, w: _parse_num(int, r, w)),
        "n_rep": ("n_rep", lambda r, w: _parse_num(int, r, w)),
        "contamination": ("contamination",
                          lambda r, w: _parse_enum(ContaminationKind, r, w)),
        "delta": ("delta", lambda r, w: _parse_num(float, r, w)),
        "shift_s": ("shift_s", lambda r, w: _parse_num(float, r, w)),
        "diseased_line": ("diseased_line", _parse_bool),
        "keep_auc": ("keep_auc", _parse_bool),
    },
}


def load_config(path: PathLike) -> RunConfig:
    """Parse an INI run configuration; unknown sections/keys raise ConfigError."""
    parser = configparser.ConfigParser()
    read = parser.read(str(path))
    if not read:
        raise ConfigError(f"cannot read config file: {path}")

    values: dict = {}
    mm_overrides: dict = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            attr, parse = _SCHEMA[section][key]
            parsed = parse(raw, f"[{section}] {key}")
            if attr.startswith("mm."):
                mm_overrides[attr[3:]] = parsed
            else:
                values[attr] = parsed

    cfg = RunConfig(**values)
    if mm_overrides:
        cfg = replace(cfg, mm=replace(cfg.mm, **mm_overrides))
    return cfg
