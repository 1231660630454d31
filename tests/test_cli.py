"""End-to-end tests for the command-line driver.

Invocations go through cli.main with argv lists; stdout carries the
structured report and stderr carries diagnostics plus the select
verdict token.
"""

import csv
import io
import json
import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from d2d_secrecy import cli, model, montecarlo
import oracle


def run_json(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    oracle.VALIDATOR.validate(report)
    return code, report, captured.err


def run_csv(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out)))
    return code, rows[0], rows[1:]


class TestAnalytic:
    def test_guard_zone_values(self, capsys):
        code, report, _ = run_json(
            capsys, ["analytic", "--d", "1", "--r-g", "0"]
        )
        assert code == 0
        assert report["technique"] == "guard-zone"
        assert report["p_active"] == 1.0
        assert report["p_cov"] == pytest.approx(0.1353352832366127, rel=1e-12)
        assert report["p_sec"] == pytest.approx(oracle.P_SEC_R0, rel=1e-12)

    def test_noise_split_certain_secrecy(self, capsys):
        code, report, _ = run_json(
            capsys, ["analytic", "--d", "1", "--gamma", "0.5"]
        )
        assert code == 0
        assert report["technique"] == "artificial-noise"
        assert report["p_active"] is None
        assert report["p_sec"] == 1.0

    def test_csv_shape(self, capsys):
        code, columns, rows = run_csv(
            capsys, ["analytic", "--d", "1", "--r-g", "0", "--format", "csv"]
        )
        assert code == 0
        assert columns == cli._header(cli._COMMANDS["analytic"][1])
        assert rows == [["guard-zone", "1", "0.135335", "0.756982"]]

    def test_missing_distance_names_the_flag(self, capsys):
        code = cli.main(["analytic", "--r-g", "1"])
        assert code == 2
        assert "--d" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra", [[], ["--r-g", "1", "--gamma", "0.5"]]
    )
    def test_design_must_be_exactly_one(self, capsys, extra):
        assert cli.main(["analytic", "--d", "1", *extra]) == 2
        assert "--r-g or --gamma" in capsys.readouterr().err

    def test_invalid_params_exit_2(self, capsys):
        assert cli.main(["analytic", "--d", "1", "--r-g", "0", "--alpha", "2"]) == 2


class TestOptimize:
    def test_bare_invocation_reproduces_threshold(self, capsys):
        code, report, _ = run_json(capsys, ["optimize"])
        assert code == 0
        assert report["lambda_threshold"] == pytest.approx(0.0378, abs=1e-4)
        assert report["guard_zone"]["r_g_star"] == pytest.approx(0.789, abs=1e-3)
        assert report["artificial_noise"]["gamma_star"] == pytest.approx(
            0.5716, abs=1e-4
        )
        assert report["enhancement_needed"] is True
        assert report["guard_zone"]["p_cov"] is None
        assert report["params"]["d"] is None

    def test_coverage_present_with_distance(self, capsys):
        _, report, _ = run_json(capsys, ["optimize", "--d", "0.6"])
        assert report["guard_zone"]["p_cov"] == pytest.approx(oracle.P_COV_GZ_STAR, rel=1e-9)
        assert report["artificial_noise"]["p_cov"] == pytest.approx(oracle.P_COV_AN_STAR, rel=1e-9)

    def test_sparse_field_needs_no_enhancement(self, capsys):
        _, report, _ = run_json(capsys, ["optimize", "--lambda-e", "0.02"])
        assert report["enhancement_needed"] is False
        assert report["guard_zone"]["r_g_star"] == 0.0
        assert report["artificial_noise"]["gamma_star"] == 1.0
        assert report["guard_zone"]["constraint_active"] is False
        assert report["artificial_noise"]["constraint_active"] is False

    def test_empty_field(self, capsys):
        _, report, _ = run_json(capsys, ["optimize", "--lambda-e", "0"])
        assert report["guard_zone"]["r_g_star"] == 0.0
        assert report["artificial_noise"]["gamma_star"] == 1.0
        assert report["guard_zone"]["p_sec"] == 1.0
        assert report["artificial_noise"]["p_sec"] == 1.0


class TestSelect:
    def test_short_link_prefers_noise(self, capsys):
        code, report, err = run_json(capsys, ["select", "--d", "0.3"])
        assert code == 0
        assert report["verdict"] == "artificial-noise"
        assert report["f_value"] < 0
        assert err.strip().splitlines()[-1] == "artificial-noise"

    def test_long_link_prefers_guard_zone(self, capsys):
        code, report, err = run_json(capsys, ["select", "--d", "1.0"])
        assert code == 0
        assert report["verdict"] == "guard-zone"
        assert report["f_value"] > 0
        assert err.strip().splitlines()[-1] == "guard-zone"

    def test_below_threshold_token(self, capsys):
        code, report, err = run_json(
            capsys, ["select", "--d", "1.0", "--lambda-e", "0.01"]
        )
        assert code == 0
        assert report["verdict"] == "no-enhancement-needed"
        assert report["f_value"] is None
        assert err.strip().splitlines()[-1] == "no-enhancement-needed"

    def test_requires_distance(self, capsys):
        assert cli.main(["select"]) == 2
        assert "--d" in capsys.readouterr().err

    def test_token_only_after_the_report_serialises(self, capsys):
        # d = 1e300 gives h = inf: the run fails and names no verdict
        assert cli.main(["select", "--d", "1e300"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the report holds a non-finite number\n"
        assert cli.main(["select", "--d", "0.8"]) == 0
        assert capsys.readouterr().err == "guard-zone\n"


class TestMcValidate:
    def test_guard_zone_passes(self, capsys):
        code, report, _ = run_json(
            capsys,
            [
                "mc-validate",
                "--d", "0.6",
                "--r-g", "1",
                "--trials", "100000",
                "--seed", "42",
            ],
        )
        assert code == 0
        assert set(report["checks"]) == {"p_active", "p_cov", "p_sec"}
        assert report["all_pass"] is True
        for entry in report["checks"].values():
            assert abs(entry["analytic"] - entry["mc"]) <= 3 * entry["half_width"]

    def test_noise_split_passes(self, capsys):
        code, report, _ = run_json(
            capsys,
            [
                "mc-validate",
                "--d", "0.6",
                "--gamma", repr(oracle.GAMMA_STAR),
                "--trials", "100000",
                "--seed", "7",
            ],
        )
        assert code == 0
        assert set(report["checks"]) == {"p_cov", "p_sec"}
        assert report["all_pass"] is True

    def test_overflowing_link_gain_is_coverage(self, capsys):
        # 0.6^-1e6 overflows; under Python ** that aborted the run
        code, report, _ = run_json(
            capsys,
            ["mc-validate", "--d", "0.6", "--gamma", "0.9", "--trials", "100",
             "--alpha", "1e6"],
        )
        assert code == 0
        assert report["checks"]["p_cov"]["analytic"] == 1.0
        assert report["checks"]["p_cov"]["mc"] == 1.0

    def test_null_designs_give_identical_estimates(self, capsys):
        base = ["--d", "0.6", "--trials", "50000", "--seed", "11"]
        _, gz, _ = run_json(capsys, ["mc-validate", *base, "--r-g", "0"])
        _, an, _ = run_json(capsys, ["mc-validate", *base, "--gamma", "1"])
        assert gz["checks"]["p_sec"]["mc"] == an["checks"]["p_sec"]["mc"]
        assert gz["checks"]["p_cov"]["mc"] == an["checks"]["p_cov"]["mc"]

    def test_no_active_trials_full_report(self, capsys):
        # p_sec is estimated on every trial's annulus, so a run without an
        # active trial still checks it
        code, report, _ = run_json(
            capsys,
            [
                "mc-validate",
                "--d", "0.6",
                "--r-g", "3",
                "--lambda-e", "1",
                "--trials", "20",
                "--seed", "3",
            ],
        )
        assert code == 0
        assert report["checks"]["p_active"]["mc"] == 0.0
        assert report["all_pass"] is True
        for entry in report["checks"].values():
            assert entry["n_effective"] == 20

    def test_guard_zone_validates_where_it_rarely_transmits(self, capsys):
        # at lambda_e = 3 the optimal guard zone is active in about 6e-8 of
        # trials, yet p_sec gets every trial's annulus as a sample
        _, optimum, _ = run_json(capsys, ["optimize", "--lambda-e", "3"])
        r_g = repr(optimum["guard_zone"]["r_g_star"])
        code, report, _ = run_json(
            capsys,
            [
                "mc-validate",
                "--d", "0.6",
                "--lambda-e", "3",
                "--r-g", r_g,
                "--trials", "65536",
                "--seed", "0",
            ],
        )
        assert code == 0
        assert report["all_pass"] is True
        assert report["checks"]["p_active"]["mc"] == 0.0
        assert report["checks"]["p_sec"]["n_effective"] == 65536

    def test_csv_has_one_row_per_check(self, capsys):
        code, columns, rows = run_csv(
            capsys,
            [
                "mc-validate",
                "--d", "0.6",
                "--r-g", "1",
                "--trials", "20000",
                "--seed", "1",
                "--format", "csv",
            ],
        )
        assert code == 0
        assert columns == cli._header(cli._COMMANDS["mc-validate"][1])
        assert [row[0] for row in rows] == ["p_active", "p_cov", "p_sec"]


class TestSweepD:
    def test_default_grid_shape_and_verdicts(self, capsys):
        code, report, _ = run_json(capsys, ["sweep-d"])
        assert code == 0
        assert len(report["rows"]) == 29
        assert report["rows"][0]["d"] == pytest.approx(0.1)
        assert report["rows"][-1]["d"] == pytest.approx(1.5)
        assert report["d_star"] == pytest.approx(oracle.D_STAR, abs=1e-8)
        signs = [row["f_value"] > 0 for row in report["rows"]]
        assert signs == sorted(signs)  # one sign change, low d negative
        for row in report["rows"]:
            expected = "guard-zone" if row["f_value"] > 0 else "artificial-noise"
            assert row["verdict"] == expected

    def test_csv_row_count_matches_grid(self, capsys):
        code, columns, rows = run_csv(
            capsys,
            [
                "sweep-d",
                "--grid-start", "0.2",
                "--grid-stop", "0.4",
                "--grid-step", "0.1",
                "--format", "csv",
            ],
        )
        assert code == 0
        assert columns == cli._header(cli._COMMANDS["sweep-d"][1])
        assert len(rows) == 3

    def test_mc_columns_populated(self, capsys):
        code, report, _ = run_json(
            capsys,
            [
                "sweep-d",
                "--grid-start", "0.3",
                "--grid-stop", "0.9",
                "--grid-step", "0.3",
                "--mc", "20000",
                "--seed", "5",
            ],
        )
        assert code == 0
        for row in report["rows"]:
            assert row["mc_p_cov_gz"]["n_effective"] == 20000
            assert 0.0 <= row["mc_p_cov_an"]["mean"] <= 1.0
            assert abs(row["p_cov_gz"] - row["mc_p_cov_gz"]["mean"]) <= 4 * row[
                "mc_p_cov_gz"
            ]["half_width"]

    def test_sparse_field_marks_every_row(self, capsys):
        code, report, _ = run_json(
            capsys,
            [
                "sweep-d",
                "--lambda-e", "0",
                "--grid-stop", "0.3",
            ],
        )
        assert code == 0
        assert report["d_star"] is None
        for row in report["rows"]:
            assert row["verdict"] == "no-enhancement-needed"
            assert row["f_value"] is None
            assert row["p_sec_gz"] == 1.0

    def test_rejects_nonpositive_grid(self, capsys):
        assert cli.main(["sweep-d", "--grid-start", "-0.5"]) == 2
        assert cli.main(["sweep-d", "--grid-step", "0"]) == 2
        capsys.readouterr()

    def test_grid_row_limit(self, capsys):
        limit = cli.MAX_GRID_ROWS
        assert len(cli._build_grid(1.0, float(limit), 1.0, "d")) == limit
        # past the limit nothing is built: one row too many, 1.4e12 rows,
        # and a row count that overflows to inf
        for grid in (["--grid-start", "1", "--grid-stop", str(limit + 1), "--grid-step", "1"],
                     ["--grid-step", "1e-12"],
                     ["--grid-start", "1e-300", "--grid-stop", "1e308", "--grid-step", "1e-300"]):
            assert cli.main(["sweep-d", *grid]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        args = [
            "sweep-d",
            "--grid-start", "0.4",
            "--grid-stop", "0.8",
            "--grid-step", "0.2",
            "--mc", "20000",
            "--seed", "9",
            "--format", "csv",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main([*args, "--out", str(first)]) == 0
        assert cli.main([*args, "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes()  # not empty


class TestSweepSharedScene:
    # sweep-d --mc simulates all its designs on one scene stream per window
    # radius, so each slice of a batch is drawn once per window, not once
    # per design

    @staticmethod
    def _count_draws(monkeypatch):
        draws = []
        draw = montecarlo._batch_points

        def counted(params, radius, seed, batch, trials, *streams):
            draws.append((radius, batch, trials))
            return draw(params, radius, seed, batch, trials, *streams)

        monkeypatch.setattr(montecarlo, "_batch_points", counted)
        return draws

    def test_each_batch_drawn_once(self, capsys, monkeypatch):
        # 29 rows, 58 designs and 150 000 trials on one window: batches of
        # 65 536, 65 536 and 18 928 trials, in slices of 8 192
        draws = self._count_draws(monkeypatch)
        assert cli.main(["sweep-d", "--mc", "150000"]) == 0
        capsys.readouterr()
        assert len({radius for radius, _, _ in draws}) == 1
        slices = [(0, 8192)] * 8 + [(1, 8192)] * 8 + [(2, 2544)] + [(2, 8192)] * 2
        assert sorted((batch, trials) for _, batch, trials in draws) == slices

    @pytest.mark.parametrize("epsilon, windows", [("0.9", 1), ("0.99999", 2)])
    def test_rows_equal_single_design_runs(self, capsys, monkeypatch, epsilon, windows):
        # at epsilon = 0.99999, -ln(epsilon) is below tail_prob (1e-4), so
        # r_g* (1.71) exceeds the auto radius (1.59) and the guard-zone
        # designs take a window of their own
        draws = self._count_draws(monkeypatch)
        _, report, _ = run_json(
            capsys,
            [
                "sweep-d",
                "--epsilon", epsilon,
                "--grid-start", "0.3",
                "--grid-stop", "0.9",
                "--grid-step", "0.3",
                "--mc", "70000",
                "--seed", "4",
            ],
        )
        # per window, batch 0 in 8 slices of 8 192 trials and batch 1,
        # partly used, in one of 4 464
        per_window = [(0, 8192)] * 8 + [(1, 4464)]
        radii = {radius for radius, _, _ in draws}
        assert len(radii) == windows
        for window in radii:
            drawn = [(batch, trials) for radius, batch, trials in draws if radius == window]
            assert sorted(drawn) == per_window
        params = replace(oracle.REFERENCE, epsilon=float(epsilon))
        cfg = montecarlo.TrialConfig(n_trials=70000, seed=4)
        for row in report["rows"]:
            point = replace(params, d=row["d"])
            gz = montecarlo.run_gz_trials(point, model.GuardZoneDesign(row["r_g_star"]), cfg)
            an = montecarlo.run_an_trials(point, model.NoiseSplitDesign(row["gamma_star"]), cfg)
            assert row["mc_p_cov_gz"] == asdict(gz.p_cov)
            assert row["mc_p_cov_an"] == asdict(an.p_cov)

    def test_high_density_edge_probe(self, capsys):
        assert cli.main(["sweep-d", "--lambda-e", "3", "--mc", "2000"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"]


class TestSweepLambda:
    def test_critical_distance_curve(self, capsys):
        code, report, _ = run_json(capsys, ["sweep-lambda"])
        assert code == 0
        assert report["monotone_nondecreasing"] is True
        stars = [row["d_star"] for row in report["rows"]]
        assert len(stars) == 9
        assert all(a < b for a, b in zip(stars, stars[1:]))
        assert stars[2] == pytest.approx(oracle.D_STAR, abs=1e-8)
        for row in report["rows"]:
            assert row["verdict"] == "ok"
            # at the crossing the two coverage curves meet
            assert row["p_cov_gz"] == pytest.approx(row["p_cov_an"], abs=1e-9)
            assert row["p_sec"] == pytest.approx(0.9, abs=1e-9)

    def test_critical_distance_where_its_power_overflows(self, capsys):
        # d*^alpha overflows at d* = 2.54e77, which is no numerical failure
        argv = ["sweep-lambda", "--pt", "100", "--grid-start", "1e305",
                "--grid-stop", "1e305", "--grid-step", "1"]
        code, report, _ = run_json(capsys, argv)
        assert code == 0
        [row] = report["rows"]
        assert row["d_star"] == pytest.approx(2.5408417795406534e77, rel=1e-9)

    def test_rows_below_threshold_are_marked(self, capsys):
        code, report, _ = run_json(
            capsys,
            [
                "sweep-lambda",
                "--grid-start", "0.01",
                "--grid-stop", "0.05",
                "--grid-step", "0.02",
            ],
        )
        assert code == 0
        verdicts = [row["verdict"] for row in report["rows"]]
        assert verdicts == ["no-enhancement-needed", "no-enhancement-needed", "ok"]
        below = report["rows"][0]
        assert below["d_star"] is None
        assert below["r_g_star"] == 0.0
        assert below["gamma_star"] == 1.0

    # lambda_threshold at each alpha, and the limit of d* there
    @pytest.mark.parametrize(
        "alpha, lam_star, limit",
        [
            ("3", "0.0371503390925252", oracle.THRESHOLD_LIMITS[3.0]),
            ("4", "0.03784278358522515", oracle.THRESHOLD_LIMITS[4.0]),
            ("6", "0.03755662175089827", oracle.THRESHOLD_LIMITS[6.0]),
        ],
        ids=["alpha3", "alpha4", "alpha6"],
    )
    def test_boundary_density_reports_the_limit(self, capsys, alpha, lam_star, limit):
        code, report, _ = run_json(
            capsys,
            [
                "sweep-lambda",
                "--alpha", alpha,
                "--grid-start", lam_star,
                "--grid-stop", lam_star,
                "--grid-step", "1",
            ],
        )
        assert code == 0
        row = report["rows"][0]
        assert row["verdict"] == "ok"
        assert row["d_star"] == pytest.approx(limit, rel=1e-12)
        assert row["p_cov_gz"] == pytest.approx(row["p_cov_an"], rel=1e-12)

    def test_falling_critical_distance_is_reported(self, capsys):
        # at beta_e = 0.1 d* dips between lambda_e = 0.05 and 0.075 (the
        # values are mpmath's); that is the model, not a numerical failure
        code, report, err = run_json(
            capsys, ["sweep-lambda", "--beta-e", "0.1", "--sigma2-s", "10"]
        )
        assert code == 0
        assert report["monotone_nondecreasing"] is False
        stars = [row["d_star"] for row in report["rows"]]
        assert stars[0] == pytest.approx(0.40567168304105425, rel=1e-12)
        assert stars[1] == pytest.approx(0.40325782731025986, rel=1e-12)
        assert err.startswith("warning: ")

    def test_csv_header(self, capsys):
        code, columns, rows = run_csv(
            capsys,
            [
                "sweep-lambda",
                "--grid-start", "0.1",
                "--grid-stop", "0.1",
                "--grid-step", "1",
                "--format", "csv",
            ],
        )
        assert code == 0
        assert columns == cli._header(cli._COMMANDS["sweep-lambda"][1])
        assert len(rows) == 1


class TestSweepSolves:
    # r_g* does not depend on d, so a sweep solves its incomplete-gamma
    # inverse once per secrecy parameter set: once for all of sweep-d, and
    # once per sweep-lambda density (for d* and again at d*, a memo hit)
    @pytest.mark.parametrize(
        "argv, solves", [(["sweep-d"], 1), (["sweep-lambda"], 9)], ids=["d", "lambda"]
    )
    def test_inverse_solves_per_sweep(self, capsys, monkeypatch, argv, solves):
        calls = []
        inverse = model.inverse_upper_incomplete_gamma

        def counted(*args, **kwargs):
            calls.append(args)
            return inverse(*args, **kwargs)

        monkeypatch.setattr(model, "inverse_upper_incomplete_gamma", counted)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(calls) == solves


class TestConfigFile:
    def test_file_values_used(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[params]\nlambda_e = 0.2\nd = 1.2\n\n[output]\nformat = json\n"
        )
        _, report, _ = run_json(capsys, ["select", "--config", str(config)])
        assert report["params"]["lambda_e"] == 0.2
        assert report["params"]["d"] == 1.2
        assert report["verdict"] == "guard-zone"

    def test_flags_override_file(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[params]\nd = 0.3\n")
        _, report, _ = run_json(
            capsys, ["select", "--config", str(config), "--d", "1.0"]
        )
        assert report["params"]["d"] == 1.0
        assert report["verdict"] == "guard-zone"

    def test_mc_section(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[mc]\ntrials = 30000\nseed = 12\n")
        _, report, _ = run_json(
            capsys,
            ["mc-validate", "--config", str(config), "--d", "0.6", "--r-g", "1"],
        )
        assert report["trials"] == 30000
        assert report["seed"] == 12

    def test_keys_of_other_subcommands_ignored(self, capsys, tmp_path):
        # select takes no design, trial count or --mc, so neither their
        # values nor their bounds matter to it
        base = "[params]\nlambda_e = 0.2\nd = 1.2\n"
        other = "[design]\nr_g = 1.0\n[mc]\ntrials = 0\n[sweep]\nmc = 0\n"
        outputs = []
        for text in (base, base + other):
            config = tmp_path / "run.ini"
            config.write_text(text)
            assert cli.main(["select", "--config", str(config)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_readme_example_loads(self, tmp_path):
        # only loaded: running a command on it would write its results.csv
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        config = tmp_path / "run.ini"
        config.write_text(block)
        assert cli._load_config(str(config))["out"] == "results.csv"
        # it names every key, the alternatives in comments
        for _, key, _, _, _ in cli._OPTIONS:
            assert re.search(rf"\b{key} = ", block), key

    def test_grid_section(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[sweep]\ngrid_start = 0.1\ngrid_stop = 0.2\ngrid_step = 0.05\n"
        )
        argv = ["sweep-lambda", "--config", str(config)]
        _, report, _ = run_json(capsys, argv)
        lambdas = [row["lambda_e"] for row in report["rows"]]
        assert lambdas == [0.1 + i * 0.05 for i in range(3)]
        _, report, _ = run_json(capsys, [*argv, "--grid-stop", "0.15"])
        assert [row["lambda_e"] for row in report["rows"]] == lambdas[:2]
        # without file or flags each sweep keeps its own grid
        for command, count in (("sweep-d", 29), ("sweep-lambda", 9)):
            _, report, _ = run_json(capsys, [command])
            assert len(report["rows"]) == count

    def test_unknown_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[params]\nbogus = 1\n")
        assert cli.main(["select", "--config", str(config), "--d", "1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            "[DEFAULT]\nalpha = 3\n[params]\nd = 1\n[output]\nformat = json\n",
            "[DEFAULT]\nalpha = 3\nd = 1\n",
        ],
        ids=["with-sections", "alone"],
    )
    def test_default_section_rejected(self, capsys, tmp_path, text):
        # configparser would merge [DEFAULT] into every section: the first
        # file then failed on 'alpha' in [output], the second ran on alpha 4
        config = tmp_path / "run.ini"
        config.write_text(text)
        assert cli.main(["select", "--config", str(config), "--d", "1"]) == 2
        assert "[DEFAULT]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [
            b"alpha = 3\n",
            b"[params]\nalpha = 3\nalpha = 4\n",
            b"[params]\nalpha = \xff3\n",
        ],
        ids=["no-section-header", "duplicate-key", "not-utf8"],
    )
    def test_unparsable_file_rejected(self, capsys, tmp_path, content):
        config = tmp_path / "run.ini"
        config.write_bytes(content)
        assert cli.main(["select", "--config", str(config), "--d", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(config) in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        missing = tmp_path / "nope.ini"
        assert cli.main(["select", "--config", str(missing), "--d", "1"]) == 2
        capsys.readouterr()

    def test_directory_rejected(self, capsys, tmp_path):
        # a path that exists but cannot be read as a file is named as such,
        # not as a missing file
        assert cli.main(["select", "--config", str(tmp_path), "--d", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config file {tmp_path}: ")


# every flag each subcommand accepts, as listed by --help
_PARAM_FLAGS = [
    "--alpha", "--beta-e", "--beta-t", "--config", "--d", "--epsilon", "--format",
    "--help", "--lambda-e", "--out", "--pt", "--sigma2-p", "--sigma2-s",
]
_MC_FLAGS = ["--seed", "--tail-prob", "--window-radius"]
_GRID_FLAGS = ["--grid-start", "--grid-step", "--grid-stop"]
FLAGS = {
    "analytic": [*_PARAM_FLAGS, "--gamma", "--r-g"],
    "optimize": _PARAM_FLAGS,
    "select": _PARAM_FLAGS,
    "mc-validate": [*_PARAM_FLAGS, "--gamma", "--r-g", *_MC_FLAGS, "--trials"],
    "sweep-d": [*_PARAM_FLAGS, *_MC_FLAGS, *_GRID_FLAGS, "--mc"],
    "sweep-lambda": [*_PARAM_FLAGS, *_GRID_FLAGS],
}


@pytest.mark.parametrize("command", list(FLAGS))
def test_option_surface(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--help"])
    assert excinfo.value.code == 0
    listed = set(re.findall(r"--[a-z0-9-]+", capsys.readouterr().out))
    assert sorted(listed) == sorted(FLAGS[command])


class TestOutputPlumbing:
    def test_out_file_written(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(["optimize", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == ""
        report = json.loads(out.read_text())
        oracle.VALIDATOR.validate(report)
        assert report["command"] == "optimize"

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, where):
        # the error is the only line on stderr: select prints no verdict
        # token for a report it could not write
        out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        assert cli.main(["select", "--d", "0.8", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    def test_bad_format_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[output]\nformat = xml\n")
        assert cli.main(["optimize", "--config", str(config)]) == 2
        capsys.readouterr()

    def test_unknown_flag_exits_2(self):
        # sweep-d takes its trial count from --mc, so --trials is unknown there
        for argv in (["optimize", "--bogus", "1"], ["sweep-d", "--trials", "5"]):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            assert excinfo.value.code == 2

    def test_float_underflow_exits_3(self, capsys):
        # sigma2_s * beta_e underflows to 0, a zero divisor in the threshold
        argv = ["optimize", "--d", "1", "--sigma2-s", "1e-200", "--beta-e", "1e-200"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("lambda_e", [[], ["--lambda-e", "0"]], ids=["default", "zero"])
    def test_float_overflow_exits_3(self, capsys, lambda_e):
        # p_t / (sigma2_s * beta_e) overflows to inf, which would make the
        # threshold 0.0 and the inverse's target 0.0 or nan
        argv = ["optimize", "--pt", "1e300", "--sigma2-s", "1e-300", *lambda_e]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "not a positive finite float" in captured.err

    def test_secrecy_scale_overflow_exits_3(self, capsys):
        # 2*pi*lambda_e/alpha * sqrt(p_t) overflows although each factor is
        # finite; the inverse would get a target of 0.0
        assert cli.main(["optimize", "--lambda-e", "1e308", "--pt", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "not a finite float" in captured.err

    def test_selection_argument_overflow_exits_3(self, capsys):
        # at d* = 8.04e77, beta_t * sigma2_p * d^alpha and lambda_e * pi *
        # p_t are both inf, so the selection argument h is nan
        argv = ["sweep-lambda", "--pt", "100", "--grid-start", "1e307",
                "--grid-stop", "1e307", "--grid-step", "1"]
        assert cli.main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: selection argument h = nan is not a nonnegative float\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [["--d", "1e300"], ["--d", "0.6", "--sigma2-p", "1e308", "--beta-t", "1e308"]],
        ids=["distance", "noise"],
    )
    def test_non_finite_report_exits_3(self, capsys, argv, fmt):
        # h overflows to inf, which strict JSON cannot carry (RFC 8259) and
        # CSV would print as inf
        assert cli.main(["select", *argv, "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")

    @pytest.mark.parametrize("design", [["--gamma", "0.6"], ["--r-g", "0.5"]],
                             ids=["gamma", "r_g"])
    @pytest.mark.parametrize(
        "overflow",
        [
            ["--pt", "1e300", "--sigma2-s", "1e-300"],
            ["--lambda-e", "1e308", "--pt", "100"],
        ],
        ids=["ratio", "scale"],
    )
    def test_secrecy_overflow_exits_3_for_both_designs(self, capsys, design, overflow):
        # artificial noise scales its secrecy exponent like the guard zone,
        # so an overflow there fails alike instead of printing p_sec 0
        assert cli.main(["analytic", "--d", "1", *design, *overflow]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_guard_root_underflow_exits_3(self, capsys):
        # r_g*^alpha underflows at alpha = 1e6; the run printed r_g* = 0,
        # which misses the secrecy target (p_sec_gz 0.73)
        assert cli.main(["sweep-d", "--alpha", "1e6"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "underflows" in captured.err

    def test_readme_examples_run(self, capsys, tmp_path, monkeypatch):
        # the examples write files (sweep-d --out), so they run in tmp_path
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
        commands = [
            line.split("#", 1)[0].split()[1:]
            for line in block.split("```", 1)[0].splitlines()
            if line.startswith("d2d-secrecy ")
        ]
        assert len(commands) == 6
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert cli.main(argv) == 0, argv
            capsys.readouterr()
        assert (tmp_path / "fig_selection.csv").is_file()

    def test_csv_probabilities_use_six_significant_digits(self, capsys):
        _, _, rows = run_csv(
            capsys, ["analytic", "--d", "1", "--r-g", "1", "--format", "csv"]
        )
        for cell in rows[0][1:]:
            if cell:
                assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 6


def _codes(text, pattern):
    return {int(code) for code in re.findall(pattern, text)}


def test_exit_codes_agree_across_docs_and_tests():
    # the README's "Exit codes" paragraph and the cli docstring list the
    # same codes, and those are exactly the codes the CLI tests expect
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text()
    documented = _codes(readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0], r"`(\d+)`")
    docstring = cli.__doc__.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    assert _codes(docstring, r"(\d+) [a-z]") == documented
    tests = root / "tests"
    expected = _codes(
        (tests / "test_cli.py").read_text(), r"(?:\bcode|\bcli\.main\(.*\)) == (\d+)\b"
    ) | _codes((tests / "test_golden.py").read_text(), r"\], (\d+)\),")
    assert expected == documented
