"""Parsing and serialization of distribution, environment and run configs.

Distribution specs are tagged records:

    {"kind": "geometric", "p": 0.5}
    {"kind": "table", "pmf": [0.25, 0.5, 0.25]}
    {"kind": "poisson", "lambda": 1.0}
    {"kind": "binomial", "n": 2, "p": 0.5}

Environment specs wrap them:

    {"rule": "constant", "dist": {...}}
    {"rule": "periodic", "cycle": [{...}, {...}]}
    {"rule": "explicit", "head": [{...}], "tail": {...}}
    {"rule": "general", "head": [{...}], "cycle": [{...}, {...}]}

Experiment config files are JSON documents with an "environment" field plus
any field of `ExperimentConfig` (horizons, replicates, seed, lambda_grid,
tolerances, min_survivors, threads, chunk_size, node_budget,
assume_critical, kn_horizon); `gwve simulate` runs to `--n` or the largest
horizon.  Every command refuses any other field as unknown
(`check_document`).  Monte Carlo runs at every horizon, and the s-grid of
the Yaglom and g-convergence checks is fixed (21 points on [0, 5]).
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .environment import Environment
from .experiments import ExperimentConfig, ExperimentError
from .offspring import (
    Binomial,
    DistributionError,
    FiniteTable,
    Geometric,
    OffspringDistribution,
    Poisson,
)

__all__ = [
    "ConfigError",
    "parse_dist",
    "dist_spec",
    "parse_environment",
    "environment_spec",
    "load_config_file",
    "check_document",
    "build_experiment_config",
]


class ConfigError(ValueError):
    """Malformed configuration; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


def _require(spec: dict, field: str, context: str):
    if field not in spec:
        raise ConfigError(f"{context}.{field}", "missing")
    return spec[field]


def _typed(spec: dict, field: str, context: str, ok, what: str):
    value = _require(spec, field, context)
    if not ok(value):
        raise ConfigError(f"{context}.{field}", f"must be {what}, not {value!r}")
    return value


def parse_dist(spec: dict, context: str = "dist") -> OffspringDistribution:
    if not isinstance(spec, dict):
        raise ConfigError(context, "must be an object with a 'kind' tag")
    kind = _require(spec, "kind", context)
    try:
        if kind == "geometric":
            return Geometric(float(_typed(spec, "p", context, _is_number, "a number")))
        if kind == "table":
            return FiniteTable(_typed(spec, "pmf", context,
                                      lambda v: isinstance(v, list) and all(map(_is_number, v)),
                                      "a list of numbers"))
        if kind == "poisson":
            return Poisson(float(_typed(spec, "lambda", context, _is_number, "a number")))
        if kind == "binomial":
            return Binomial(_typed(spec, "n", context, _is_int, "an integer"),
                            float(_typed(spec, "p", context, _is_number, "a number")))
    except (DistributionError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(context, str(exc)) from exc
    raise ConfigError(f"{context}.kind", f"unknown kind {kind!r}")


def dist_spec(d: OffspringDistribution) -> dict:
    if isinstance(d, Geometric):
        return {"kind": "geometric", "p": d.p}
    if isinstance(d, FiniteTable):
        return {"kind": "table", "pmf": d.probs.tolist()}
    if isinstance(d, Poisson):
        return {"kind": "poisson", "lambda": d.lam}
    if isinstance(d, Binomial):
        return {"kind": "binomial", "n": d.n, "p": d.p}
    raise TypeError(f"cannot serialize {type(d)!r}")


def _dist_list(spec: dict, field: str, context: str) -> list[OffspringDistribution]:
    """A "head" list (possibly empty) or a nonempty "cycle" list of laws."""
    items = _require(spec, field, context)
    if not isinstance(items, list) or (field == "cycle" and not items):
        raise ConfigError(f"{context}.{field}",
                          "must be a nonempty list" if field == "cycle" else "must be a list")
    return [parse_dist(d, f"{context}.{field}[{i}]") for i, d in enumerate(items)]


def parse_environment(spec: dict) -> Environment:
    context = "environment"
    if not isinstance(spec, dict):
        raise ConfigError(context, "must be an object with a 'rule' tag")
    rule = _require(spec, "rule", context)
    if rule == "constant":
        return Environment.constant(parse_dist(_require(spec, "dist", context), f"{context}.dist"))
    if rule == "periodic":
        return Environment.periodic(_dist_list(spec, "cycle", context))
    if rule == "explicit":
        return Environment.explicit(_dist_list(spec, "head", context),
                                    parse_dist(_require(spec, "tail", context), f"{context}.tail"))
    if rule == "general":
        return Environment(_dist_list(spec, "head", context), _dist_list(spec, "cycle", context))
    raise ConfigError(f"{context}.rule", f"unknown rule {rule!r}")


def environment_spec(env: Environment) -> dict:
    if env.rule == "constant":
        return {"rule": "constant", "dist": dist_spec(env.cycle[0])}
    if env.rule == "periodic":
        return {"rule": "periodic", "cycle": [dist_spec(d) for d in env.cycle]}
    if env.rule == "explicit":
        return {"rule": "explicit", "head": [dist_spec(d) for d in env.head],
                "tail": dist_spec(env.cycle[0])}
    return {"rule": "general", "head": [dist_spec(d) for d in env.head],
            "cycle": [dist_spec(d) for d in env.cycle]}


def load_config_file(path: str | Path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError("config", f"file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config", "top level must be an object")
    return doc


# The JSON-settable fields are ExperimentConfig's, less the environment; the
# counts among them are those annotated `int` (a string, as annotations are
# postponed in the experiments module).
_CONFIG_FIELDS = {f.name for f in fields(ExperimentConfig)} - {"environment"}
_INT_FIELDS = {f.name for f in fields(ExperimentConfig) if f.type == "int"}


def _is_int(value) -> bool:
    """JSON integers only: a bool is a Python int, but `true` is no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """JSON numbers only, so not `true` either."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_list(doc: dict, key: str, ok=_is_int, what: str = "integers") -> None:
    """Raise unless `doc` lacks `key` or holds a list of `what` there."""
    value = doc.get(key)
    if value is not None and not (isinstance(value, list) and all(map(ok, value))):
        raise ConfigError(key, f"must be a list of {what}, not {value!r}")


def check_document(doc: dict) -> None:
    """Raise on an unknown config field or one of the wrong JSON type; every
    command that reads a config document calls this before reading any field."""
    for key, value in doc.items():  # in document order, so the same field is named on every run
        if key not in _CONFIG_FIELDS and key != "environment":
            raise ConfigError(key, "unknown config field")
        if key in _INT_FIELDS and not _is_int(value):
            raise ConfigError(key, f"must be an integer, not {value!r}")
    _check_list(doc, "horizons")
    _check_list(doc, "lambda_grid", _is_number, "numbers")
    if not isinstance(doc.get("assume_critical", False), bool):
        raise ConfigError("assume_critical", f"must be true or false, not {doc['assume_critical']!r}")
    tolerances = doc.get("tolerances")
    if tolerances is not None:
        if not isinstance(tolerances, dict):
            raise ConfigError("tolerances", "must be an object")
        for key, value in tolerances.items():
            if not _is_number(value):
                raise ConfigError(f"tolerances.{key}", f"must be a number, not {value!r}")


def build_experiment_config(doc: dict, **overrides) -> ExperimentConfig:
    """ExperimentConfig from a JSON document plus CLI flag overrides."""
    doc = {**doc, **{k: v for k, v in overrides.items() if v is not None}}
    check_document(doc)
    if "environment" not in doc:
        raise ConfigError("environment", "missing")
    env = parse_environment(doc["environment"])
    kwargs = {k: v for k, v in doc.items() if k != "environment"}
    kwargs.setdefault("horizons", [10, 100, 1000])
    try:
        return ExperimentConfig(environment=env, **kwargs)
    except (ExperimentError, TypeError) as exc:
        raise ConfigError("experiment", str(exc)) from exc
