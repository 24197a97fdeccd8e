"""Experiment configuration: the one table of config keys, parsing, overrides and the point screen.

Pure Python (dataclasses, math and the objective enum): the CLI reads,
overrides and validates a config through this module without loading the
numeric layers, so `beamsel validate` never imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple, get_type_hints

from .core import ConfigError, ObjectiveKind, SystemConfig, validate_config

# Largest ordered search space exhaustive_search enumerates.
EXHAUSTIVE_CAP = 1_000_000


def search_space_size(cfg: SystemConfig) -> int:
    """Number of ordered selections of N distinct columns from N_vec."""
    return math.perm(cfg.N_vec, cfg.N)


class ConfigKey(NamedTuple):
    """How one config key is parsed and which dataclass field it sets."""

    parse: Callable[[str], object]
    owner: str   # "system" (SystemConfig) or "experiment" (ExperimentConfig)
    field: str


def _list_of(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    """Parser for a comma-separated list; empty items are skipped."""
    return lambda raw: tuple(parse(v.strip()) for v in raw.split(",") if v.strip())


# The one table of config keys. The config file, --set overrides, sweeps and
# the provenance sidecar all read it. Each SystemConfig field is a scenario
# key, parsed as its annotated type (int or float).
_SCENARIO_TYPES = get_type_hints(SystemConfig)
CONFIG_KEYS: dict[str, ConfigKey] = {
    **{f.name: ConfigKey(_SCENARIO_TYPES[f.name], "system", f.name) for f in fields(SystemConfig)},
    "objective": ConfigKey(ObjectiveKind.from_string, "experiment", "objective_kind"),
    "sweep": ConfigKey(str, "experiment", "sweep_key"),
    "sweep_values": ConfigKey(_list_of(float), "experiment", "sweep_values"),
    "baselines": ConfigKey(_list_of(str), "experiment", "baselines"),
    "convergence_tol": ConfigKey(float, "experiment", "convergence_tol"),
}
SWEEPABLE_KEYS = tuple(k for k, e in CONFIG_KEYS.items()
                       if e.owner != "experiment" and e.parse in (int, float))
BASELINE_NAMES = ("random", "exhaustive")


def coerce_value(key: str, raw: str):
    """Parse a raw string for any config key into its proper type."""
    entry = CONFIG_KEYS.get(key)
    if entry is None:
        raise ConfigError(f"unknown configuration key {key!r}; known keys: " + ", ".join(CONFIG_KEYS))
    raw = raw.strip()
    try:
        return entry.parse(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {raw!r} for key {key!r}: {exc}") from None


def apply_override(cfg: SystemConfig, key: str, value) -> SystemConfig:
    """Return cfg with one scenario key replaced; accepts already-typed or string values."""
    if isinstance(value, str):
        value = coerce_value(key, value)
    entry = CONFIG_KEYS.get(key)
    if entry is None or entry.owner == "experiment":
        raise ConfigError(f"{key!r} is not a scenario configuration key")
    if entry.parse is int:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"key {key!r} takes an integer, got {value!r}")
        if isinstance(value, float) and abs(value) >= 2**53:  # sweep values are parsed as floats
            raise ConfigError(f"key {key!r} takes an integer, got {value!r}, past 2**53 where floats round")
        value = int(value)
    elif entry.parse is float:
        value = float(value)
    return replace(cfg, **{key: value})


def apply_settings(ec: ExperimentConfig, settings) -> ExperimentConfig:
    """Apply (key, raw value, where) triples from a config file or --set.

    Scenario keys are applied one by one. Experiment-level fields are
    collected and the ExperimentConfig is rebuilt once at the end, so that
    ``sweep`` set before ``sweep_values`` does not fail validation halfway.
    Parse errors name ``where``: the file and line, or ``--set``.
    """
    base = ec.base
    updates: dict[str, object] = {}
    for key, raw, where in settings:
        try:
            value = coerce_value(key, raw)
            entry = CONFIG_KEYS[key]
            if entry.owner == "experiment":
                updates[entry.field] = value
            else:
                base = apply_override(base, key, value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return replace(ec, base=base, **updates)


@dataclass(frozen=True)
class ExperimentConfig:
    """A full experiment: a base scenario, an objective, and an optional sweep."""

    base: SystemConfig
    objective_kind: ObjectiveKind = ObjectiveKind.THROUGHPUT
    sweep_key: str | None = None
    sweep_values: tuple[float, ...] = ()
    baselines: tuple[str, ...] = ()     # subset of BASELINE_NAMES
    convergence_tol: float = 0.0        # slack for the alpha=0 convergence rule

    def __post_init__(self) -> None:
        if self.sweep_key is not None and self.sweep_key not in SWEEPABLE_KEYS:
            raise ConfigError(f"cannot sweep key {self.sweep_key!r}; sweepable: "
                              + ", ".join(SWEEPABLE_KEYS))
        if self.sweep_key is not None and len(self.sweep_values) == 0:
            raise ConfigError("sweep declared without sweep_values")
        for b in self.baselines:
            if b not in BASELINE_NAMES:
                raise ConfigError(f"unknown baseline {b!r}; known: " + ", ".join(BASELINE_NAMES))
        if len(set(self.baselines)) < len(self.baselines):
            raise ConfigError("baselines lists a name more than once: " + ", ".join(self.baselines))
        if not 0.0 <= self.convergence_tol < 1.0:
            raise ConfigError(f"convergence_tol must be in [0, 1), got {self.convergence_tol}")

    def points(self) -> list[tuple[float | None, SystemConfig]]:
        """The (sweep_value, config) pairs this experiment runs."""
        if self.sweep_key is None:
            return [(None, self.base)]
        return [(float(v), apply_override(self.base, self.sweep_key, v)) for v in self.sweep_values]

    def violations(self, cfg: SystemConfig) -> list[str]:
        """Why this experiment cannot run the point cfg; empty when it can."""
        errs = validate_config(cfg)
        if not errs and "exhaustive" in self.baselines and search_space_size(cfg) > EXHAUSTIVE_CAP:
            errs.append(f"exhaustive baseline needs {search_space_size(cfg)} ordered selections, "
                        f"more than its cap of {EXHAUSTIVE_CAP}; shrink N_vec/N")
        return errs
