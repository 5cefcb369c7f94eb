"""CLI commands, exit codes, and export round trips."""
import csv
import json

import numpy as np
import pytest
from scipy.stats import norm

from robustroc import (
    Group,
    PopulationSample,
    ScenarioKind,
    ScenarioSpec,
    fit_mm_nonlinear,
    make_synthetic_study,
    write_dataset,
    write_scenario_dataset,
)
from robustroc.cli import main, read_surface_csv


def _clean_dataset(tmp_path, n=200, seed=0, name="data.csv"):
    path = tmp_path / name
    write_scenario_dataset(path, ScenarioSpec(ScenarioKind.LINEAR, n, n,
                                              seed=seed))
    return path


def _run(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert _run(["frobnicate"]) == 1

    def test_missing_dataset_file(self, tmp_path):
        assert _run(["fit", tmp_path / "nope.csv", "--out", tmp_path]) == 1

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("group,y,x1\nD,abc,0.5\nH,1.0,0.1\n")
        assert _run(["fit", bad, "--out", tmp_path]) == 1

    def test_bad_config(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[bogus]\nkey = 1\n")
        data = _clean_dataset(tmp_path, n=20)
        assert _run(["fit", data, "--config", ini, "--out", tmp_path]) == 1

    def test_custom_weight_kind_is_a_config_error(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[weights]\nkind = custom\n")
        data = _clean_dataset(tmp_path, n=20)
        assert _run(["fit", data, "--config", ini, "--out", tmp_path]) == 1

    def test_numerical_failure(self, tmp_path):
        # two observations cannot support an intercept+slope robust fit
        path = tmp_path / "tiny.csv"
        path.write_text("group,y,x1\nD,1.0,0.0\nD,2.0,1.0\nH,1.0,0.0\nH,2.0,1.0\n")
        assert _run(["fit", path, "--out", tmp_path]) == 2

    def test_exponential_too_few_observations(self, tmp_path):
        # two diseased observations cannot support the two-parameter MM fit
        path = tmp_path / "tiny.csv"
        path.write_text("group,y,x1\nD,1.0,0.0\nD,2.0,1.0\n"
                        "H,1.0,0.0\nH,2.0,0.5\nH,3.0,1.0\n")
        assert _run(["fit", path, "--model", "exponential", "--out", tmp_path]) == 2

    def test_exponential_constant_covariate(self, tmp_path):
        x = np.linspace(0, 1, 20)
        d = PopulationSample(Group.DISEASED, 5 * np.exp(2 * x) + 0.1 * np.sin(9 * x),
                             np.full(20, 0.5))
        h = PopulationSample(Group.HEALTHY, 3 * np.exp(x) + 0.1 * np.cos(9 * x), x)
        path = tmp_path / "flat.csv"
        write_dataset(path, d, h)
        for variant in ("robust", "classical"):
            assert _run(["fit", path, "--model", "exponential", "--variant",
                         variant, "--out", tmp_path]) == 2

    def test_negative_eta(self, tmp_path):
        data = _clean_dataset(tmp_path, n=20)
        assert _run(["fit", data, "--eta", "-1.0", "--out", tmp_path]) == 1

    def test_success(self, tmp_path):
        data = _clean_dataset(tmp_path, n=50)
        assert _run(["fit", data, "--out", tmp_path, "--seed", "1"]) == 0


class TestCmdFit:
    def test_exact_linear_degenerate(self, tmp_path):
        x = np.linspace(0, 1, 20)
        d = PopulationSample(Group.DISEASED, 2 + 4 * x, x)
        h = PopulationSample(Group.HEALTHY, 0.5 + x, x)
        path = tmp_path / "exact.csv"
        write_dataset(path, d, h)
        with pytest.warns(Warning):
            assert _run(["fit", path, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["diseased"]["degenerate_scale"] is True
        assert report["diseased"]["sigma_hat"] == 0.0

    def test_clean_sample_flags_few_points(self, tmp_path):
        # under normality with eta = 2.5 only the far tail (roughly the 1-2%
        # beyond 2.5 residual scales) gets weight zero on clean samples
        counts = []
        for seed in range(10):
            out = tmp_path / f"run{seed}"
            out.mkdir()
            data = _clean_dataset(tmp_path, n=100, seed=seed,
                                  name=f"d{seed}.csv")
            assert _run(["fit", data, "--out", out, "--seed", str(seed)]) == 0
            report = json.loads((out / "fit_report.json").read_text())
            counts.append(len(report["healthy"]["flagged_outliers"])
                          + len(report["diseased"]["flagged_outliers"]))
        # out of 200 points per run: few flags on average, never a mass cull
        assert np.median(counts) <= 6
        assert sum(1 for c in counts if c <= 10) >= 9

    def test_synthetic_outlier_recall(self, tmp_path):
        study = make_synthetic_study(seed=3)
        path = tmp_path / "study.csv"
        write_dataset(path, study.diseased, study.healthy)
        ini = tmp_path / "run.ini"
        ini.write_text("[model]\nfamily = linear\ntransform = neg_inv_sqrt\n")
        assert _run(["fit", path, "--config", ini, "--out", tmp_path,
                     "--seed", "3"]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        flagged = set(report["healthy"]["flagged_outliers"])
        assert set(study.healthy_outlier_indices.tolist()) <= flagged

    @pytest.mark.parametrize("n_subsamples", [500, 16])
    def test_exponential_honours_n_subsamples(self, tmp_path, monkeypatch,
                                              n_subsamples):
        from robustroc import cli

        seen = []

        def spy(sample, spec, cfg):
            seen.append(cfg)
            return fit_mm_nonlinear(sample, spec, cfg)

        monkeypatch.setattr(cli, "fit_mm_nonlinear", spy)
        study = make_synthetic_study(seed=9)
        path = tmp_path / "study.csv"
        write_dataset(path, study.diseased, study.healthy)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[model]\nfamily = exponential\n"
                       f"[fit]\nn_subsamples = {n_subsamples}\n")
        assert _run(["fit", path, "--config", ini, "--out", tmp_path,
                     "--seed", "9"]) == 0
        assert [cfg.n_subsamples for cfg in seen] == [n_subsamples] * 2
        assert [cfg.seed for cfg in seen] == [9, 9]

    def test_report_fields(self, tmp_path):
        data = _clean_dataset(tmp_path, n=60, seed=2)
        assert _run(["fit", data, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        for group in ("diseased", "healthy"):
            entry = report[group]
            assert len(entry["beta_hat"]) == 2
            assert entry["sigma_hat"] > 0
            assert len(entry["residuals"]) == entry["n"] == 60
            assert len(entry["weights"]) == 60
            assert entry["t_n"] >= 2.5
            assert 0.0 <= entry["d_n"] <= 1.0


class TestCmdRoc:
    def test_surface_round_trip(self, tmp_path):
        data = _clean_dataset(tmp_path, n=100, seed=4)
        assert _run(["roc", data, "--out", tmp_path, "--seed", "4"]) == 0
        surf_path = tmp_path / "roc_surface.csv"
        first = surf_path.read_bytes()
        surface = read_surface_csv(surf_path)
        # re-export the re-imported surface: bytes must be identical
        from robustroc.cli import write_surface_csv

        write_surface_csv(surf_path, surface)
        assert surf_path.read_bytes() == first

    def test_clean_sample_close_to_truth(self, tmp_path):
        from robustroc import mse_metric, true_surface

        data = _clean_dataset(tmp_path, n=200, seed=5)
        ini = tmp_path / "run.ini"
        ini.write_text("[grids]\nx_min = -1.0\nx_max = 1.0\nx_count = 41\n")
        assert _run(["roc", data, "--config", ini, "--out", tmp_path,
                     "--seed", "5"]) == 0
        est = read_surface_csv(tmp_path / "roc_surface.csv")
        truth = true_surface(ScenarioSpec(ScenarioKind.LINEAR, 200, 200),
                             est.grid)
        assert mse_metric(est, truth) < 0.01

    def test_identical_population_auc_near_half(self, tmp_path):
        rng = np.random.default_rng(17)
        devs = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x1 = rng.uniform(-1, 1, 200)
            x2 = rng.uniform(-1, 1, 200)
            d = PopulationSample(Group.DISEASED,
                                 1 + 2 * x1 + rng.standard_normal(200), x1)
            h = PopulationSample(Group.HEALTHY,
                                 1 + 2 * x2 + rng.standard_normal(200), x2)
            out = tmp_path / f"same{seed}"
            out.mkdir()
            path = out / "same.csv"
            write_dataset(path, d, h)
            assert _run(["roc", path, "--out", out, "--seed", str(seed)]) == 0
            with open(out / "auc_curve.csv") as fh:
                rows = list(csv.DictReader(fh))
            aucs = np.array([float(r["auc"]) for r in rows])
            devs.append(np.max(np.abs(aucs - 0.5)))
        assert np.median(devs) < 0.1

    def test_metadata_sidecar(self, tmp_path):
        data = _clean_dataset(tmp_path, n=80, seed=6)
        assert _run(["roc", data, "--out", tmp_path, "--seed", "6"]) == 0
        meta = json.loads((tmp_path / "roc_meta.json").read_text())
        assert meta["variant"] == "robust"
        assert len(meta["diseased"]["beta_hat"]) == 2


def _strict_json(path):
    def reject(constant):
        raise ValueError(f"{path.name}: non-standard JSON constant {constant}")

    return json.loads(path.read_text(), parse_constant=reject)


@pytest.mark.parametrize("variant", ["classical", "robust", "hybrid"])
def test_json_outputs_are_strict(tmp_path, variant):
    data = _clean_dataset(tmp_path, n=40, seed=8)
    for command, name in (("fit", "fit_report.json"), ("roc", "roc_meta.json")):
        assert _run([command, data, "--variant", variant, "--out", tmp_path,
                     "--seed", "8"]) == 0
        payload = _strict_json(tmp_path / name)
        assert payload["variant"] == variant
    report = _strict_json(tmp_path / "fit_report.json")
    for group in ("diseased", "healthy"):
        if variant == "robust":
            assert report[group]["t_n"] >= report[group]["t_bar_n"]
        else:
            # no adaptive cut-off: the unbounded t_n and t_bar_n are null
            assert report[group]["t_n"] is None
            assert report[group]["t_bar_n"] is None


class TestCmdSimulate:
    INI = ("[simulate]\nscenario = linear\nn_rep = 5\n"
           "contamination = shift_both\ndelta = 0.05\n[output]\nseed = 11\n")

    def test_report_and_determinism(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(self.INI)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run(["simulate", "--config", ini, "--out", out1]) == 0
        assert _run(["simulate", "--config", ini, "--out", out2]) == 0
        b1 = (out1 / "metrics.csv").read_bytes()
        b2 = (out2 / "metrics.csv").read_bytes()
        assert b1 == b2
        with open(out1 / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["classical", "robust"]
        for r in rows:
            assert int(r["n_rep"]) == 5
            assert 0.0 <= float(r["mean_mse"]) <= float(r["mean_ks"]) <= 1.0

    def test_auc_matrix_export(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\nn_rep = 2\nkeep_auc = true\n"
                       "[output]\nseed = 3\n")
        assert _run(["simulate", "--config", ini, "--out", tmp_path]) == 0
        with open(tmp_path / "auc_robust.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3          # header + 2 replications
        assert len(rows[0]) == 42      # 'rep' + 41 x-grid columns

    def test_unapplied_settings_rejected(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(self.INI + "[fit]\nn_subsamples = 1\n[grids]\np_count = 5\n")
        code = _run(["simulate", "--config", ini, "--variant", "classical",
                     "--model", "exponential", "--weights", "smooth",
                     "--out", tmp_path])
        assert code == 1
        err = capsys.readouterr().err
        for name in ("[fit] n_subsamples", "[grids] p_count", "[fit] variant",
                     "[model] family", "[weights] kind"):
            assert name in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_settings_at_their_defaults_accepted(self, tmp_path):
        # the README's INI example names default values only
        ini = tmp_path / "run.ini"
        ini.write_text("[fit]\nvariant = robust\n[weights]\neta = 2.5\n"
                       "kind = hard\n[simulate]\nscenario = linear\nn_rep = 1\n"
                       "contamination = shift_both\ndelta = 0.05\n"
                       "[output]\nseed = 101\n")
        assert _run(["simulate", "--config", ini, "--variant", "robust",
                     "--model", "linear", "--weights", "hard",
                     "--out", tmp_path]) == 0
        assert (tmp_path / "metrics.csv").exists()

    def test_invalid_scheme_rejected_at_parse_time(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\nscenario = linear\n"
                       "contamination = nonlinear_shift\ndelta = 0.05\n"
                       "shift_s = 10\n")
        assert _run(["simulate", "--config", ini, "--out", tmp_path]) == 1


class TestMakeSynthetic:
    def test_writes_dataset_and_indices(self, tmp_path):
        assert _run(["make-synthetic", "--out", tmp_path, "--seed", "9"]) == 0
        from robustroc import read_dataset

        d, h = read_dataset(tmp_path / "synthetic_study.csv")
        assert h.n == 198 and d.n == 88
        idx = json.loads((tmp_path / "synthetic_outliers.json").read_text())
        assert len(idx["healthy_outlier_indices"]) == 6

    def test_console_script_installed(self, tmp_path):
        import subprocess

        proc = subprocess.run(["robustroc", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "simulate" in proc.stdout
