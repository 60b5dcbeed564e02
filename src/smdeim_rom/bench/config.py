"""Experiment configuration: flat key=value files with dotted keys.

Lines hold one `key=value` setting each; `#` starts a comment (full line or
trailing, when preceded by whitespace); lists are comma-separated.  Unknown
or duplicate keys and repeated list entries are rejected by name.
"""

import math
from dataclasses import dataclass, replace

from ..rom import M_DEPENDENT, STRATEGIES

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "parse_config_text",
]


class ConfigError(ValueError):
    """A configuration file failed validation."""


@dataclass(frozen=True)
class ExperimentConfig:
    model: str = "burgers"
    burgers_n: tuple = (201,)
    burgers_mu: float = 0.01
    burgers_t_final: float = 2.0
    burgers_n_t: int = 401
    burgers_u0_peak: float = 3.5
    swe_nx: tuple = (21,)
    swe_ny: tuple = (15,)
    swe_dt: float = 240.0
    swe_n_t: int = 91
    gamma: float = 1.0
    centered: bool = False
    k_list: tuple = (25,)
    m_list: tuple = (30,)
    strategies: tuple = ("smdeim",)
    h: float = 0.01
    newton_tol: float = 1e-10
    newton_cap: int = 50
    seeds: tuple = (0,)
    out_dir: str = "out"
    heldout_stride: int = 10
    sv_probes: int = 5
    guard_n: int | None = None


def _parse_bool(key, raw):
    low = raw.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


def _parse_float(key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None


def _parse_int_list(key, raw):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"key {key!r}: list must not be empty")
    return tuple(_parse_int(key, p) for p in parts)


def _parse_str_list(key, raw):
    parts = tuple(p.strip() for p in raw.split(",") if p.strip())
    if not parts:
        raise ConfigError(f"key {key!r}: list must not be empty")
    return parts


# key -> (config field, parser)
_KEYS = {
    "model": ("model", lambda k, v: v),
    "burgers.n": ("burgers_n", _parse_int_list),
    "burgers.mu": ("burgers_mu", _parse_float),
    "burgers.t_final": ("burgers_t_final", _parse_float),
    "burgers.n_t": ("burgers_n_t", _parse_int),
    "burgers.u0_peak": ("burgers_u0_peak", _parse_float),
    "swe.nx": ("swe_nx", _parse_int_list),
    "swe.ny": ("swe_ny", _parse_int_list),
    "swe.dt": ("swe_dt", _parse_float),
    "swe.n_t": ("swe_n_t", _parse_int),
    "pod.gamma": ("gamma", _parse_float),
    "pod.centered": ("centered", _parse_bool),
    "rom.k": ("k_list", _parse_int_list),
    "rom.m": ("m_list", _parse_int_list),
    "rom.strategy": ("strategies", _parse_str_list),
    "rom.h": ("h", _parse_float),
    "rom.newton_tol": ("newton_tol", _parse_float),
    "rom.newton_cap": ("newton_cap", _parse_int),
    "run.seed": ("seeds", _parse_int_list),
    "run.out": ("out_dir", lambda k, v: v),
    "run.heldout_stride": ("heldout_stride", _parse_int),
    "run.sv_probes": ("sv_probes", _parse_int),
    "guard.n": ("guard_n", _parse_int),
}


def _strip_comment(line):
    pos = line.find("#")
    while pos != -1:
        if pos == 0 or line[pos - 1] in " \t":
            return line[:pos]
        pos = line.find("#", pos + 1)
    return line


def parse_config_text(text):
    """Parse configuration text into a validated ExperimentConfig."""
    overrides = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw_line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        field_name, parser = _KEYS[key]
        if field_name in overrides:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        overrides[field_name] = parser(key, raw)
    cfg = ExperimentConfig(**overrides)
    validate_config(cfg)
    return cfg


def parse_config(path):
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


def validate_config(cfg):
    if cfg.model not in ("burgers", "swe"):
        raise ConfigError(f"key 'model': must be 'burgers' or 'swe', got {cfg.model!r}")
    for strategy in cfg.strategies:
        if strategy not in STRATEGIES:
            raise ConfigError(
                f"key 'rom.strategy': unknown strategy {strategy!r}; "
                f"choose from {', '.join(STRATEGIES)}"
            )
    if not cfg.strategies:
        raise ConfigError("key 'rom.strategy': list must not be empty")
    if not cfg.k_list or any(k < 1 for k in cfg.k_list):
        raise ConfigError("key 'rom.k': needs at least one positive entry")
    needs_m = any(s in M_DEPENDENT for s in cfg.strategies)
    if needs_m and (not cfg.m_list or any(m < 1 for m in cfg.m_list)):
        raise ConfigError("key 'rom.m': needs at least one positive entry")
    if not 0.0 < cfg.gamma <= 1.0:
        raise ConfigError(f"key 'pod.gamma': must lie in (0, 1], got {cfg.gamma}")
    if cfg.model == "burgers":
        if not cfg.burgers_n or any(n < 6 for n in cfg.burgers_n):
            raise ConfigError("key 'burgers.n': grid sizes must be at least 6")
        if cfg.burgers_n_t < 2:
            raise ConfigError("key 'burgers.n_t': need at least 2 time points")
    else:
        if not cfg.swe_nx or any(v < 5 for v in cfg.swe_nx):
            raise ConfigError("key 'swe.nx': grid sizes must be at least 5")
        if not cfg.swe_ny or any(v < 5 for v in cfg.swe_ny):
            raise ConfigError("key 'swe.ny': grid sizes must be at least 5")
        if cfg.swe_n_t < 2:
            raise ConfigError("key 'swe.n_t': need at least 2 time points")
    if not cfg.seeds:
        raise ConfigError("key 'run.seed': list must not be empty")
    if cfg.heldout_stride < 1:
        raise ConfigError("key 'run.heldout_stride': must be positive")
    if cfg.sv_probes < 0:
        raise ConfigError("key 'run.sv_probes': must be nonnegative")
    for key in ("burgers.mu", "burgers.t_final", "burgers.u0_peak", "swe.dt",
                "rom.h", "rom.newton_tol", "rom.newton_cap", "guard.n"):
        value = getattr(cfg, _KEYS[key][0])
        if value is not None and not 0 < value < math.inf:  # NaN fails too
            raise ConfigError(f"key {key!r}: must be positive and finite, got {value}")
    for key in ("burgers.n", "swe.nx", "swe.ny", "rom.k", "rom.m", "rom.strategy",
                "run.seed"):
        values = getattr(cfg, _KEYS[key][0])
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ConfigError(f"key {key!r}: repeated entry {value!r}")


def with_overrides(cfg, out_dir=None, seed=None):
    """CLI-level overrides applied after parsing."""
    if out_dir is not None:
        cfg = replace(cfg, out_dir=str(out_dir))
    if seed is not None:
        cfg = replace(cfg, seeds=(int(seed),))
    validate_config(cfg)
    return cfg
