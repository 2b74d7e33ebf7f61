import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_experiments import ks_expanded

import gwve.experiments as ex
from gwve.cli import main
from gwve.config import build_experiment_config

E1_SPEC = '{"rule":"constant","dist":{"kind":"geometric","p":0.5}}'


def write_config(tmp_path, **extra):
    doc = {
        "environment": {"rule": "constant", "dist": {"kind": "geometric", "p": 0.5}},
        "horizons": [1, 10, 50],
        "replicates": 50_000,
        "seed": 1234,
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_constants_table(capsys):
    assert main(["constants", "--env", E1_SPEC, "--n", "5,9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "n,mu,S,a,survival,kolmogorov_ratio"
    row5 = out[1].split(",")
    assert row5[0] == "5"
    assert float(row5[1]) == 1.0 and float(row5[2]) == 10.0 and float(row5[3]) == 5.0
    row9 = out[2].split(",")
    assert float(row9[5]) == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("horizons", [["a"], [2.5], 5, [True]])
def test_constants_config_horizons_must_be_integers(tmp_path, capsys, horizons):
    config = write_config(tmp_path, horizons=horizons)
    assert main(["constants", "--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert "config field 'horizons': must be a list of integers" in captured.err
    assert captured.out == ""


def test_constants_bad_spec_exit_2(capsys):
    rc = main(["constants", "--env", '{"rule":"constant","dist":{"kind":"geometri"}}', "--n", "5"])
    assert rc == 2
    assert "kind" in capsys.readouterr().err


@pytest.mark.parametrize("dist, field", [
    ('{"kind":"binomial","n":2.5,"p":0.5}', "n"),
    ('{"kind":"poisson","lambda":"1"}', "lambda"),
    ('{"kind":"geometric","p":true}', "p"),
    ('{"kind":"table","pmf":[false,true]}', "pmf"),
])
def test_constants_wrongly_typed_dist_field_exit_2(capsys, dist, field):
    # a bool, a string or a non-integer is no parameter, even where float()
    # or int() would take it
    rc = main(["constants", "--env", f'{{"rule":"constant","dist":{dist}}}', "--n", "1,2"])
    assert rc == 2
    assert f"config field 'environment.dist.{field}'" in capsys.readouterr().err


def test_constants_requires_environment():
    assert main(["constants", "--n", "3"]) == 2


def test_classify_labels(capsys):
    assert main(["classify", "--env", E1_SPEC]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["label"] == "critical"
    assert doc["diagnostics"]["sup_condition_a_ratio"] == pytest.approx(1.5)

    e3 = '{"rule":"constant","dist":{"kind":"binomial","n":2,"p":0.75}}'
    assert main(["classify", "--env", e3]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["diagnostics"]["label"] == "supercritical"


@pytest.mark.parametrize("spec, horizon, key", [
    ('{"rule":"constant","dist":{"kind":"table","pmf":[0,1]}}', "10", "sup_regularity_ratio"),
    ('{"rule":"constant","dist":{"kind":"geometric","p":0.1}}', "10000", "mu_final"),
])
def test_classify_writes_non_finite_diagnostics_as_null(capsys, spec, horizon, key):
    assert main(["classify", "--env", spec, "--horizon", horizon]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert doc["diagnostics"][key] is None


def test_classify_short_horizon_exit_2(capsys):
    assert main(["classify", "--env", E1_SPEC, "--horizon", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_check_decomposition_pass(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "decomposition", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    body = (out / "decomposition.csv").read_text()
    assert "decomposition_rel_gap" in body
    summary = json.loads((out / "decomposition_summary.json").read_text())
    assert summary["overall_pass"] is True
    assert summary["seed"] == 1234


def test_check_unknown_name_exit_2(tmp_path, capsys):
    config = write_config(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(["check", "nonsense", "--config", str(config)])
    assert err.value.code == 2


def test_check_failure_exit_1(tmp_path):
    # impossible tolerance forces a failing row
    config = write_config(tmp_path, tolerances={"kolmogorov_gap": 1e-30})
    out = tmp_path / "out"
    assert main(["check", "kolmogorov", "--config", str(config), "--out", str(out), "--quiet"]) == 1


def test_check_precondition_exit_2(tmp_path, capsys):
    doc_env = {"rule": "constant", "dist": {"kind": "binomial", "n": 2, "p": 0.75}}
    config = write_config(tmp_path, environment=doc_env)
    for name in ("kolmogorov", "yaglom"):
        assert main(["check", name, "--config", str(config), "--quiet"]) == 2
        assert "requires a critical environment" in capsys.readouterr().err


@pytest.mark.parametrize("doc_env", [
    {"rule": "general", "head": [{"kind": "table", "pmf": [0.4, 0.3, 0.3]}],
     "cycle": [{"kind": "poisson", "lambda": 0.5}, {"kind": "table", "pmf": [0.25, 0.5, 0.25]},
               {"kind": "geometric", "p": 0.4}]},
    {"rule": "explicit", "head": [{"kind": "geometric", "p": 0.5}],
     "tail": {"kind": "geometric", "p": 0.500025001250062}},
], ids=["three-cycle", "mean-0.9999-tail"])
def test_check_kolmogorov_on_a_subcritical_cycle_after_a_head_exit_2(tmp_path, capsys, doc_env):
    # the cycle's mean products are 0.75 and 0.9999: a head cannot make them critical
    config = write_config(tmp_path, environment=doc_env, horizons=[10, 100], threads=1)
    out = tmp_path / "out"
    assert main(["check", "kolmogorov", "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert "(classified 'subcritical')" in capsys.readouterr().err
    assert not out.exists()


def test_classify_a_zero_mean_law_past_the_horizon_exit_2(capsys):
    cycle = [{"kind": "geometric", "p": 0.5}] * 12 + [{"kind": "table", "pmf": [1.0]}]
    spec = json.dumps({"rule": "periodic", "cycle": cycle})
    assert main(["classify", "--env", spec, "--horizon", "10"]) == 2
    assert "generation 13 has mean f'(1) = 0" in capsys.readouterr().err


def test_check_exponential_on_a_supercritical_environment_exit_2(tmp_path, capsys):
    # on E3 every two-spine replicate outgrows the node budget
    doc_env = {"rule": "constant", "dist": {"kind": "binomial", "n": 2, "p": 0.75}}
    config = write_config(tmp_path, environment=doc_env, horizons=[10, 50], replicates=20_000)
    out = tmp_path / "out"
    assert main(["check", "exponential", "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert "exponential requires a critical environment" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("low, failing", [
    ([0.4, 0.4, 0.2 - 1e-6], {"tv_one_spine", "tv_two_spine", "lemma33_max_abs_gap"}),
    ([0.5, 0.5 - 1e-6], {"tv_one_spine", "tv_two_spine", "lemma33_max_abs_gap"}),
    ([0.4, 0.4, 0.2 - 5e-11], {"tv_one_spine", "tv_two_spine", "lemma33_max_abs_gap"}),
], ids=["law-over-budget", "law-over-budget-no-pairs", "hanging-law-over-budget"])
def test_check_identities_with_an_oracle_law_over_the_tail_budget_exit_1(tmp_path, low, failing):
    # the atom at 69,999 is past the oracle's cap ceiling, so its mass (1e-6)
    # is tail, or (5e-11) is within budget for Z_1 but not once weighted by
    # k or k(k-1), nor for a size-biased hanging law: a truncated law, and a
    # reweighted law that misses more than the budget, fail their rows with inf
    pmf = low + [0.0] * (69_999 - len(low)) + [1.0 - math.fsum(low)]
    config = write_config(tmp_path, environment={"rule": "constant", "dist": {"kind": "table", "pmf": pmf}},
                          horizons=[1], replicates=2_000, kn_horizon=1, threads=1)
    out = tmp_path / "out"
    assert main(["check", "identities", "--config", str(config), "--out", str(out), "--quiet"]) == 1
    rows = [line.split(",") for line in (out / "transform_identities.csv").read_text().splitlines()[1:]]
    over = [row for row in rows if row[7] == "oracle tail budget exceeded"]
    assert {row[2] for row in over} == failing
    assert all(row[3] == "inf" and row[6] == "false" for row in over)


@pytest.mark.parametrize("name, report, horizons, budget, passes, statistics", [
    ("exponential", "exponential_characterization", [10, 100], 5, 1, {"ks_pair_biased_gamma3"}),
    ("identities", "transform_identities", [2, 6], 1, 3, {"tv_one_spine", "tv_two_spine"}),
], ids=["exponential", "identities"])
def test_check_with_every_replicate_aborted_exit_1(tmp_path, name, report, horizons, budget, passes,
                                                   statistics):
    # a pass with no completed replicate gives failing rows, and the report is written
    config = write_config(tmp_path, horizons=horizons, replicates=3_000, node_budget=budget)
    out = tmp_path / "out"
    assert main(["check", name, "--config", str(config), "--out", str(out), "--quiet"]) == 1
    lines = (out / f"{report}.csv").read_text().splitlines()[1:]
    sampled = [line.split(",") for line in lines if line.split(",")[2] in statistics]
    assert {row[2] for row in sampled} == statistics
    assert all(row[3] == "inf" and row[6] == "false" and row[7] == "all replicates aborted"
               for row in sampled)
    summary = json.loads((out / f"{report}_summary.json").read_text())
    assert summary["aborted_replicates"] == passes * 3_000
    assert sorted(summary["failed_rows"]) == sorted(row[2] for row in sampled)


def test_check_yaglom_writes_the_runner_report(tmp_path):
    config = write_config(tmp_path, horizons=[20, 50], replicates=100_000,
                          tolerances={"ks": 0.06, "yaglom_exact": 0.06})
    out = tmp_path / "chk"
    assert main(["check", "yaglom", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    expected = ex.run_yaglom(build_experiment_config(json.loads(config.read_text())))
    assert (out / "yaglom.csv").read_text() == expected.to_csv_text()


@pytest.mark.parametrize("command, extra, field", [
    ("decomposition", {"lambda_grid": [math.nan, 0.5]}, "lambda_grid"),
    ("g-convergence", {"horizons": [10, 50], "s_grid": [math.nan]}, "s_grid"),  # retired field
    ("decomposition", {"lambda_grid": [math.inf]}, "lambda_grid"),
    ("decomposition", {"tolerances": {"decomposition_rel": math.nan}}, "tolerances"),
])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, extra, field):
    # json reads NaN and Infinity, which no experiment can use
    config = write_config(tmp_path, **extra)
    assert "NaN" in config.read_text() or "Infinity" in config.read_text()
    assert main(["check", command, "--config", str(config), "--out", str(tmp_path / "out"),
                 "--quiet"]) == 2
    assert field in capsys.readouterr().err


def test_g_convergence_single_horizon_config_error(tmp_path):
    config = write_config(tmp_path, horizons=[10])
    assert main(["check", "g-convergence", "--config", str(config), "--quiet"]) == 2


def test_simulate_two_spine_summary(tmp_path):
    config = write_config(tmp_path, replicates=200_000)
    out = tmp_path / "sim"
    rc = main(["simulate", "two-spine", "--config", str(config), "--n", "2",
               "--out", str(out), "--quiet"])
    assert rc == 0
    summary = json.loads((out / "simulate_two_spine_n2_summary.json").read_text())
    assert summary["seed"] == 1234
    assert summary["aborted"] == 0
    assert summary["tv_vs_oracle"] < 0.005
    hist = (out / "simulate_two_spine_n2_histogram.csv").read_text().splitlines()
    assert hist[0] == "k,count,frequency"
    counts = {int(line.split(",")[0]): int(line.split(",")[1]) for line in hist[1:]}
    assert sum(counts.values()) == 200_000
    assert min(counts) >= 2
    for line in hist[1:]:
        k, count, frequency = line.split(",")
        assert float(frequency) == int(count) / 200_000


def test_simulate_two_spine_one_generation(tmp_path):
    # K_1 has a single category, so its chi-square p-value is 1, not NaN
    out = tmp_path / "sim"
    rc = main(["simulate", "two-spine", "--config", str(write_config(tmp_path)), "--n", "1",
               "--replicates", "1000", "--out", str(out), "--quiet"])
    assert rc == 0
    summary = json.loads((out / "simulate_two_spine_n1_summary.json").read_text())
    assert summary["kn_chi2_pvalue"] == 1.0


def test_simulate_two_spine_all_aborted_has_no_kn_pvalue(tmp_path):
    # a node budget of 3 aborts every replicate: no K_n sample, so no fit
    config = write_config(tmp_path, replicates=2_000, node_budget=3, threads=1)
    out = tmp_path / "sim"
    rc = main(["simulate", "two-spine", "--config", str(config), "--n", "10",
               "--out", str(out), "--quiet"])
    assert rc == 1
    text = (out / "simulate_two_spine_n10_summary.json").read_text()
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["completed"] == 0 and summary["aborted"] == 2_000
    assert summary["kn_chi2_pvalue"] is None


def test_check_zero_kn_horizon_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, kn_horizon=0)
    out = tmp_path / "out"
    assert main(["check", "identities", "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, gwve.cli; "
             "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_simulate_gw_survival(tmp_path):
    config = write_config(tmp_path, replicates=100_000)
    out = tmp_path / "sim"
    assert main(["simulate", "gw", "--config", str(config), "--n", "3",
                 "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "simulate_gw_n3_summary.json").read_text())
    hist = (out / "simulate_gw_n3_histogram.csv").read_text().splitlines()
    survived = sum(
        int(line.split(",")[1]) for line in hist[1:] if int(line.split(",")[0]) > 0
    )
    phat = survived / summary["completed"]
    assert abs(phat - 0.25) < 3 * (0.25 * 0.75 / 100_000) ** 0.5


def test_simulate_reports_the_oracle_tail_mass(tmp_path):
    # the size-biased mass that the oracle's law of Z_2 on E1 misses
    out = tmp_path / "sim"
    assert main(["simulate", "one-spine", "--config", str(write_config(tmp_path)), "--n", "2",
                 "--replicates", "20000", "--out", str(out), "--quiet"]) == 0
    summary = json.loads((out / "simulate_one_spine_n2_summary.json").read_text())
    assert isinstance(summary["oracle_tail_mass"], float)
    assert 0.0 <= summary["oracle_tail_mass"] <= 1e-10
    assert summary["tv_vs_oracle"] < 0.02


@pytest.mark.parametrize("kind, weight", [("gw", None), ("one-spine", "k"), ("two-spine", "k(k-1)")])
def test_simulate_reports_the_weighted_mass_a_spine_law_misses(tmp_path, kind, weight):
    # Z_1's tail at cap 4096 is 5e-11; the atom at 5000 carries 3.1e-7 of
    # E[Z_1] and 0.31% of E[Z_1 (Z_1 - 1)], which the spines' laws miss
    pmf = [0.4, 0.4, 0.2 - 5e-11] + [0.0] * 4997 + [5e-11]
    config = write_config(tmp_path, environment={"rule": "constant", "dist": {"kind": "table", "pmf": pmf}},
                          replicates=2_000, threads=1)
    out = tmp_path / "sim"
    main(["simulate", kind, "--config", str(config), "--n", "1", "--out", str(out), "--quiet"])
    summary = json.loads((out / f"simulate_{kind.replace('-', '_')}_n1_summary.json").read_text())
    captured = {None: 1.0 - 5e-11, "k": 0.8 - 1e-10, "k(k-1)": 0.4 - 1e-10}[weight]
    exact = {None: 1.0, "k": captured + 5000 * 5e-11, "k(k-1)": captured + 5000 * 4999 * 5e-11}[weight]
    assert summary["oracle_tail_mass"] == pytest.approx(1.0 - captured / exact, rel=1e-6)


@pytest.mark.parametrize("kind", ["gw", "one-spine"])
def test_simulate_without_pair_biased_law(tmp_path, kind):
    # f''(1) = 0: the pair-biased law does not exist, and neither run needs it
    env = {"rule": "constant", "dist": {"kind": "table", "pmf": [0.5, 0.5]}}
    config = write_config(tmp_path, environment=env, replicates=20_000)
    out = tmp_path / "sim"
    assert main(["simulate", kind, "--config", str(config), "--n", "3",
                 "--out", str(out), "--quiet"]) == 0
    name = kind.replace("-", "_")
    summary = json.loads((out / f"simulate_{name}_n3_summary.json").read_text())
    assert isinstance(summary["tv_vs_oracle"], float)
    assert 0.0 <= summary["tv_vs_oracle"] < 0.02


def test_simulate_worker_distribution_error_exit_2(tmp_path, capsys, monkeypatch):
    # the size-biased point mass at 0 does not exist; the first chunk's worker
    # process finds that out (the work threshold is lifted so a pool starts)
    monkeypatch.setattr(ex, "_POOL_MIN_WORK", 0)
    env = {"rule": "periodic", "cycle": [{"kind": "geometric", "p": 0.5},
                                         {"kind": "table", "pmf": [1.0]}]}
    config = write_config(tmp_path, environment=env, horizons=[4], replicates=300,
                          chunk_size=100, threads=2, assume_critical=True)
    assert main(["simulate", "one-spine", "--config", str(config),
                 "--out", str(tmp_path / "sim"), "--quiet"]) == 2
    assert "degenerate at zero" in capsys.readouterr().err


def test_simulate_yaglom_outputs(tmp_path):
    config = write_config(tmp_path, horizons=[20, 50], replicates=150_000)
    out = tmp_path / "yag"
    assert main(["simulate", "yaglom", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    ks_lines = (out / "yaglom_ks.csv").read_text().splitlines()
    assert ks_lines[0] == "n,survivors,ks_exp1"
    assert len(ks_lines) == 3
    summary = json.loads((out / "yaglom_summary.json").read_text())
    assert summary["seed"] == 1234
    e1 = ex.reference_environment("E1")
    for row, line in zip(summary["rows"], ks_lines[1:]):
        n, survivors, ks = line.split(",")
        assert row["requested"] == 150_000
        assert row["completed"] + row["aborted"] == row["requested"]
        assert row["survivors"] == int(survivors) > 0
        # the sample file is the survivors' histogram: nonzero rows at k >= 1
        hist = (out / f"yaglom_samples_n{n}.csv").read_text().splitlines()
        assert hist[0] == "k,count"
        k, counts = np.array([[int(v) for v in r.split(",")] for r in hist[1:]]).T
        assert np.all(k >= 1) and np.all(np.diff(k) > 0) and np.all(counts > 0)
        assert counts.sum() == int(survivors)
        # the KS distance, recomputed on the expanded sample, is the CSV's exactly
        assert ks_expanded(np.repeat(k, counts) / e1.a(int(n)), ex.exp1_cdf) == float(ks)
        assert row["ks_exp1"] == float(ks)


def test_simulate_yaglom_deterministic_and_one_pass(tmp_path):
    config = write_config(tmp_path, horizons=[20, 50], replicates=120_000, chunk_size=16_384)
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}"
        assert main(["simulate", "yaglom", "--config", str(config), "--out", str(out),
                     "--threads", threads, "--quiet"]) == 0
        runs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert set(runs["1"]) == {"yaglom_ks.csv", "yaglom_samples_n20.csv", "yaglom_samples_n50.csv"}
    assert runs["1"] == runs["2"]
    # the stream path is (seed, "yaglom", largest horizon, chunk), so the last
    # horizon's samples equal those of a run at that horizon alone
    config = write_config(tmp_path, horizons=[50], replicates=120_000, chunk_size=16_384)
    out = tmp_path / "alone"
    assert main(["simulate", "yaglom", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    assert (out / "yaglom_samples_n50.csv").read_bytes() == runs["1"]["yaglom_samples_n50.csv"]


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    main(["check", "decomposition", "--config", str(config), "--out", str(out_a),
          "--seed", "777", "--quiet"])
    summary = json.loads((out_a / "decomposition_summary.json").read_text())
    assert summary["seed"] == 777
    main(["check", "decomposition", "--config", str(config), "--out", str(out_b), "--quiet"])
    assert json.loads((out_b / "decomposition_summary.json").read_text())["seed"] == 1234


def test_rerun_byte_identical_csv(tmp_path):
    # trimmed replicate budget: widen the TV tolerance to its noise floor
    config = write_config(tmp_path, replicates=80_000, horizons=[2, 4],
                          tolerances={"tv": 0.02})
    out_a, out_b, out_c = tmp_path / "ra", tmp_path / "rb", tmp_path / "rc"
    for out, threads in ((out_a, "1"), (out_b, "1"), (out_c, "4")):
        rc = main(["check", "identities", "--config", str(config), "--out", str(out),
                   "--threads", threads, "--quiet"])
        assert rc == 0
    body_a = (out_a / "transform_identities.csv").read_bytes()
    body_b = (out_b / "transform_identities.csv").read_bytes()
    body_c = (out_c / "transform_identities.csv").read_bytes()
    assert body_a == body_b == body_c


def test_missing_config_exit_2():
    assert main(["check", "decomposition"]) == 2
    assert main(["check", "decomposition", "--config", "/nonexistent/x.json"]) == 2

def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["constants", "--nope", "x"])
    assert err.value.code == 2
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["classify", "--tol", "1e-6"], ["classify", "--threads", "2"],
                                  ["constants", "--seed", "5"], ["constants", "--threads", "2"]],
                         ids=lambda argv: "".join(argv[:2]))
def test_flags_a_command_does_not_read_are_usage_errors(capsys, argv):
    # only check and simulate build an ExperimentConfig, so only they take --seed and --threads
    with pytest.raises(SystemExit) as err:
        main(argv + ["--env", E1_SPEC])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("bogus", 3), ("s_grid", [1])], ids=["bogus", "s_grid"])
@pytest.mark.parametrize("command", [["constants"], ["classify"], ["check", "decomposition"],
                                     ["simulate", "gw"]], ids=lambda command: command[0])
def test_every_command_refuses_unknown_config_fields(tmp_path, capsys, command, field, value):
    # one document check for every command that reads --config, beside a valid environment
    config = write_config(tmp_path, **{"replicates": 1000, field: value})
    out = tmp_path / "out"
    assert main(command + ["--config", str(config), "--out", str(out), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert f"config field '{field}': unknown config field" in captured.err
    assert captured.out == "" and not out.exists()



@pytest.mark.parametrize("command", [["check", "kolmogorov"], ["simulate", "yaglom"], ["constants"]],
                         ids=lambda command: "-".join(command))
def test_retired_n_field_is_refused_where_it_was_ignored(tmp_path, capsys, command):
    # these commands never read `n`: beside a valid environment it is unknown
    config = write_config(tmp_path, horizons=[5, 10], replicates=1000, n=7)
    out = tmp_path / "out"
    assert main(command + ["--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert "config field 'n': unknown config field" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_abort_fraction_exit_1(tmp_path):
    # explosive deterministic offspring with a tiny node budget: every
    # replicate aborts, so the abort-fraction contract must trip exit 1
    doc_env = {"rule": "constant", "dist": {"kind": "table", "pmf": [0.0, 0.0, 1.0]}}
    config = write_config(tmp_path, environment=doc_env, replicates=500,
                          node_budget=2000, horizons=[30])
    out = tmp_path / "boom"
    rc = main(["simulate", "gw", "--config", str(config), "--n", "30",
               "--out", str(out), "--quiet"])
    assert rc == 1
    summary = json.loads((out / "simulate_gw_n30_summary.json").read_text())
    assert summary["aborted"] == 500
    assert summary["abort_fraction"] == 1.0


def test_simulate_zero_horizon_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, replicates=1000)
    rc = main(["simulate", "gw", "--config", str(config), "--n", "0",
               "--out", str(tmp_path / "sim"), "--quiet"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_yaglom_rejects_horizon_flag_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, horizons=[20], replicates=1000)
    rc = main(["simulate", "yaglom", "--config", str(config), "--n", "20",
               "--out", str(tmp_path / "yag"), "--quiet"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_yaglom_without_mc_horizons_exit_2(tmp_path, capsys):
    # mc_horizons is retired (Monte Carlo runs at every horizon): even empty,
    # it is refused before anything is written
    config = write_config(tmp_path, horizons=[20], replicates=1000, mc_horizons=[])
    out = tmp_path / "yag"
    rc = main(["simulate", "yaglom", "--config", str(config), "--out", str(out), "--quiet"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (out / "yaglom_ks.csv").exists()


def test_negative_seed_exit_2(tmp_path, capsys):
    config = write_config(tmp_path, replicates=1000)
    args = ["simulate", "gw", "--config", str(config), "--n", "3", "--out", str(tmp_path / "a"), "--quiet"]
    assert main(args + ["--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    config = write_config(tmp_path, replicates=1000, seed=-1)
    assert main(args) == 2
    assert main(args + ["--seed", str(2**64)]) == 2


@pytest.mark.parametrize("command", ["classify", "constants"])
def test_zero_mean_environment_exit_2(command, capsys):
    spec = '{"rule":"constant","dist":{"kind":"table","pmf":[1]}}'
    assert main([command, "--env", spec]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


def test_simulate_yaglom_final_horizon_aborts_exit_1(tmp_path):
    # the node budget spares the n=10 replicates but aborts 1.7% of them by
    # n=100, leaving no survivors there; the exit rule and the summary use the
    # final horizon's (cumulative) count, and its infinite KS is written as null
    config = write_config(tmp_path, horizons=[10, 100], replicates=20_000,
                          node_budget=1200, seed=20201124)
    out = tmp_path / "yag"
    rc = main(["simulate", "yaglom", "--config", str(config), "--out", str(out), "--quiet"])
    assert rc == 1
    summary = json.loads((out / "yaglom_summary.json").read_text(), parse_constant=_reject_constant)
    rows = summary["rows"]
    assert summary["aborted"] == rows[-1]["aborted"] > 0.01 * 20_000
    assert rows[-1]["survivors"] == 0 and rows[-1]["ks_exp1"] is None
    assert (out / "yaglom_ks.csv").read_text().splitlines()[-1] == "100,0,inf"


def test_simulate_empty_sample_mean_is_null(tmp_path):
    doc_env = {"rule": "constant", "dist": {"kind": "table", "pmf": [0.0, 0.0, 1.0]}}
    config = write_config(tmp_path, environment=doc_env, replicates=200,
                          node_budget=100, horizons=[30])
    out = tmp_path / "boom"
    assert main(["simulate", "gw", "--config", str(config), "--out", str(out), "--quiet"]) == 1
    text = (out / "simulate_gw_n30_summary.json").read_text()
    assert json.loads(text, parse_constant=_reject_constant)["mean"] is None


def test_simulate_all_aborted_at_oracle_horizon_exit_1(tmp_path):
    doc_env = {"rule": "constant", "dist": {"kind": "table", "pmf": [0.0, 0.0, 1.0]}}
    config = write_config(tmp_path, environment=doc_env, replicates=200,
                          node_budget=100, horizons=[6])
    out = tmp_path / "boom"
    assert main(["simulate", "gw", "--config", str(config), "--out", str(out), "--quiet"]) == 1
    summary = json.loads((out / "simulate_gw_n6_summary.json").read_text())
    assert summary["completed"] == 0 and summary["tv_vs_oracle"] is None
    assert summary["oracle_tail_mass"] is None


def test_check_decomposition_s_n_overflow_exit_2(tmp_path, capsys):
    # subcritical geometric(0.6): S_n = sum nu/mu_k overflows from n = 1800
    doc_env = {"rule": "constant", "dist": {"kind": "geometric", "p": 0.6}}
    config = write_config(tmp_path, environment=doc_env, horizons=[1800])
    rc = main(["check", "decomposition", "--config", str(config),
               "--out", str(tmp_path / "out"), "--quiet"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_constants_s_n_overflow_exit_2(capsys):
    # subcritical geometric(0.6): S_1800 overflows, so the Kolmogorov ratio is undefined
    spec = '{"rule":"constant","dist":{"kind":"geometric","p":0.6}}'
    assert main(["constants", "--env", spec, "--n", "1000,1800"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "inf" not in captured.out


@pytest.mark.parametrize("command, grid", [("decomposition", "lambda_grid"),
                                           ("g-convergence", "s_grid")])  # s_grid: retired
def test_check_empty_grid_exit_2(tmp_path, capsys, command, grid):
    config = write_config(tmp_path, **{grid: []})
    out = tmp_path / "out"
    assert main(["check", command, "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("n", True),
    ("replicates", 1000.5),
    ("replicates", True),
    ("seed", "1234"),
    ("threads", True),
    ("chunk_size", 100.5),
    ("node_budget", "x"),
    ("kn_horizon", 8.5),
    ("min_survivors", 10.0),
    ("chunk_size", False),
    ("kn_horizon", "10"),
    ("horizons", [True, 3]),
    ("horizons", 3),
    ("mc_horizons", [1.0]),  # retired, as is s_grid: refused as unknown
    ("tolerances", {"tv": "x"}),
    ("tolerances", {"tv": True}),
    ("assume_critical", "false"),
    ("assume_critical", 0),
    ("s_grid", [0.5, "1"]),
    ("s_grid", 0.5),
    ("lambda_grid", [True, 0.5]),
    ("lambda_grid", {"0": 1.0}),
])
def test_wrongly_typed_config_field_exit_2(tmp_path, capsys, field, value):
    config = write_config(tmp_path, **{"replicates": 1000, field: value})
    out = tmp_path / "out"
    assert main(["simulate", "gw", "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert field in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("field, value", [
    ("oracle_cap", 4096),
    ("y_grid_size", 1000),
    ("out_dir", "x"),
    ("oracle_cap", 8.5),
    ("y_grid_size", False),
    ("mc_horizons", [10]),
    ("s_grid", [0.0, 0.5]),
    ("n", 7),  # simulate takes its horizon from --n or the largest of horizons
])
def test_retired_config_field_exit_2(tmp_path, capsys, field, value):
    # a name that is no config field is refused as such, whatever its value
    config = write_config(tmp_path, **{"replicates": 1000, field: value})
    out = tmp_path / "out"
    assert main(["simulate", "gw", "--config", str(config), "--out", str(out), "--quiet"]) == 2
    assert f"config field '{field}': unknown config field" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())
