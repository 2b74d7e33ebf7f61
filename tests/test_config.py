import pytest

from gwve import config as cfg
from gwve.config import ConfigError, build_experiment_config, environment_spec, parse_environment
from gwve.environment import Environment
from gwve.experiments import reference_environment
from gwve.offspring import Binomial, FiniteTable, Geometric, Poisson


def _environments():
    e2 = reference_environment("E2")
    return {
        "constant": reference_environment("E1"),
        "periodic": e2,
        "explicit": Environment.explicit([Poisson(1.0), FiniteTable([0.25, 0.5, 0.25])],
                                         Binomial(2, 0.5)),
        "general": e2.prepend(Geometric(0.5)),
        "constant prepended": reference_environment("E3").prepend(Poisson(0.5)),
        "periodic shifted": e2.shift(3),
        "general shifted": e2.prepend(Geometric(0.25)).prepend(Poisson(1.0)).shift(1),
    }


@pytest.mark.parametrize("name", sorted(_environments()))
def test_environment_spec_round_trip(name):
    env = _environments()[name]
    spec = environment_spec(env)
    assert spec["rule"] == env.rule
    assert parse_environment(spec) == env


def test_environment_rules_all_covered():
    assert {env.rule for env in _environments().values()} == {
        "constant", "periodic", "explicit", "general"}


def test_general_rule_needs_a_cycle():
    head = [{"kind": "geometric", "p": 0.5}]
    with pytest.raises(ConfigError, match="cycle"):
        parse_environment({"rule": "general", "head": head, "cycle": []})
    with pytest.raises(ConfigError, match="head"):
        parse_environment({"rule": "general", "head": {}, "cycle": head})


@pytest.mark.parametrize("flag", [True, False])
def test_well_typed_grids_and_flag_are_accepted(flag):
    # JSON integers are numbers too; only the wrongly typed values exit 2
    config = build_experiment_config({
        "environment": {"rule": "constant", "dist": {"kind": "geometric", "p": 0.5}},
        "horizons": [2], "lambda_grid": [1, 2.5], "assume_critical": flag})
    assert config.assume_critical is flag
    assert list(config.lambda_grid) == [1, 2.5]


def test_config_fields_follow_the_dataclass():
    # the JSON-settable fields and their integer subset are read off ExperimentConfig
    assert cfg._CONFIG_FIELDS == {
        "horizons", "replicates", "seed", "lambda_grid", "tolerances", "min_survivors",
        "threads", "chunk_size", "node_budget", "assume_critical", "kn_horizon"}
    assert cfg._INT_FIELDS == {
        "replicates", "seed", "min_survivors", "threads", "chunk_size", "node_budget", "kn_horizon"}
