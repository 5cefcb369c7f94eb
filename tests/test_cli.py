"""CLI commands, exit codes, and export round trips."""
import csv
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import norm

from robustroc import (
    DatasetFormatError,
    EvalGrid,
    Group,
    PopulationSample,
    RocSurface,
    ScenarioKind,
    ScenarioSpec,
    fit_mm_nonlinear,
    generate,
    make_synthetic_study,
    write_dataset,
)
from robustroc import config
from robustroc.cli import main


def read_surface_csv(path) -> RocSurface:
    """The surface `write_surface_csv` wrote: p values in the header after
    'x', then one row per x value."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "x":
        raise DatasetFormatError("line 1: surface header must start with 'x'")
    p = np.array([float(c) for c in rows[0][1:]])
    x = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return RocSurface(grid=EvalGrid(p_grid=p, x_grid=x), values=values)


def _clean_dataset(tmp_path, n=200, seed=0, name="data.csv"):
    path = tmp_path / name
    write_dataset(path, *generate(ScenarioSpec(ScenarioKind.LINEAR, n, n, seed=seed)))
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

    def test_classical_too_few_observations(self, tmp_path, capsys):
        # n = q = 2: the classical fit raises as the MM fits do, instead of
        # returning sigma = 0 and failing later on the residuals
        path = tmp_path / "tiny.csv"
        path.write_text("group,y,x1\nD,1.0,0.0\nD,2.5,1.0\nH,1.0,0.0\nH,2.0,1.0\n")
        assert _run(["roc", path, "--variant", "classical", "--out", tmp_path]) == 2
        assert "need more than q = 2 observations" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-12, 1e300])
    @pytest.mark.parametrize("variant", ["robust", "classical"])
    def test_extreme_marker_units(self, tmp_path, capsys, scale, variant):
        # the degenerate-scale floor is relative to median|y|, and the
        # classical scale is computed from r / max|r|, so neither units exit 2
        # or warn
        d, h = generate(ScenarioSpec(ScenarioKind.LINEAR, 30, 30, seed=3))
        path = tmp_path / "scaled.csv"
        write_dataset(path, *(PopulationSample(s.label, scale * s.y, s.x)
                              for s in (d, h)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _run(["roc", path, "--variant", variant, "--out", tmp_path]) == 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["robust", "hybrid", "classical"])
    def test_one_gross_marker_fits(self, tmp_path, capsys, variant):
        # one healthy marker at 1e13 lifted the old floor, 1e-10 max|y|,
        # above the MM scale: robust and hybrid exited 2 on a degenerate scale
        study = make_synthetic_study(seed=9)
        y = study.healthy.y.copy()
        y[0] = 1e13
        path = tmp_path / "gross.csv"
        write_dataset(path, study.diseased,
                      PopulationSample(Group.HEALTHY, y, study.healthy.x))
        assert _run(["roc", path, "--variant", variant, "--out", tmp_path]) == 0
        meta = json.loads((tmp_path / "roc_meta.json").read_text())
        assert meta["healthy"]["sigma_hat"] > 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["robust", "classical"])
    def test_extreme_covariate_units(self, tmp_path, variant):
        # the rank of the design is taken with its columns scaled; on the raw
        # design both groups were rank-deficient at x * 1e14
        d, h = generate(ScenarioSpec(ScenarioKind.LINEAR, 100, 100, seed=1))
        path = tmp_path / "scaled.csv"
        write_dataset(path, *(PopulationSample(s.label, s.y, 1e14 * s.x)
                              for s in (d, h)))
        assert _run(["roc", path, "--variant", variant, "--out", tmp_path]) == 0

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

    def test_negative_eta(self, tmp_path, capsys):
        # the flag and the INI key are one setting, checked in one place
        data = _clean_dataset(tmp_path, n=20)
        assert _run(["fit", data, "--eta", "-1.0", "--out", tmp_path]) == 1
        ini = tmp_path / "run.ini"
        ini.write_text("[weights]\neta = -1\n")
        assert _run(["fit", data, "--config", ini, "--out", tmp_path]) == 1
        assert "robustroc: error: eta" in capsys.readouterr().err

    def test_invalid_fit_value_is_a_config_error(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[fit]\ntol = 0\n")
        data = _clean_dataset(tmp_path, n=20)
        assert _run(["roc", data, "--config", ini, "--out", tmp_path]) == 1
        assert "robustroc: error: [fit] tol" in capsys.readouterr().err

    def test_zero_max_iter_is_a_config_error(self, tmp_path, capsys):
        # max_iter = 0 used to return the raw S-start after 0 iterations
        ini = tmp_path / "run.ini"
        ini.write_text("[fit]\nmax_iter = 0\n")
        data = _clean_dataset(tmp_path, n=20)
        assert _run(["fit", data, "--config", ini, "--out", tmp_path]) == 1
        assert "robustroc: error: [fit] max_iter" in capsys.readouterr().err

    def test_single_p_point_is_a_config_error_for_roc(self, tmp_path, capsys):
        # roc always writes the AUC curve, which needs two p points
        ini = tmp_path / "run.ini"
        ini.write_text("[grids]\np_count = 1\n")
        data = _clean_dataset(tmp_path, n=20)
        assert _run(["roc", data, "--config", ini, "--out", tmp_path]) == 1
        assert "robustroc: error: [grids] p_count" in capsys.readouterr().err
        assert _run(["fit", data, "--config", ini, "--out", tmp_path]) == 0

    @staticmethod
    def _two_covariate_dataset(tmp_path):
        rng = np.random.default_rng(8)
        samples = []
        for group in (Group.DISEASED, Group.HEALTHY):
            x = rng.uniform(0, 1, (40, 2))
            y = np.exp(1 + x[:, 0] - x[:, 1]) + 0.1 * rng.standard_normal(40)
            samples.append(PopulationSample(group, y, x))
        path = tmp_path / "two.csv"
        write_dataset(path, *samples)
        return path

    @pytest.mark.parametrize("command, model, message", [
        ("roc", "linear", "roc evaluates the ROC surface over one covariate, "
                          "the dataset has 2"),
        ("roc", "exponential", "roc evaluates the ROC surface over one covariate, "
                               "the dataset has 2"),
        ("fit", "exponential", "fit: the exponential family takes one covariate, "
                               "found 2"),
    ], ids=["roc-linear", "roc-exponential", "fit-exponential"])
    def test_covariate_count_is_a_usage_error(self, tmp_path, capsys, command, model,
                                              message):
        # a usage error found right after the dataset loads, before any fit
        path = self._two_covariate_dataset(tmp_path)
        assert _run([command, path, "--model", model, "--out", tmp_path]) == 1
        assert f"robustroc: error: {message}" in capsys.readouterr().err
        assert list(tmp_path.glob("*.json")) == []

    def test_linear_fit_takes_two_covariates(self, tmp_path):
        path = self._two_covariate_dataset(tmp_path)
        assert _run(["fit", path, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert len(report["diseased"]["beta_hat"]) == 3

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
        # no residual distribution is built on a zero scale: only the fit is reported
        assert set(report["diseased"]) == {"n", "beta_hat", "sigma_hat", "method",
                                           "converged", "degenerate_scale"}

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
        from robustroc import simulate

        seen = []

        def spy(sample, spec, cfg):
            seen.append(cfg)
            return fit_mm_nonlinear(sample, spec, cfg)

        # the CLI fits through simulate.fit_population
        monkeypatch.setattr(simulate, "fit_mm_nonlinear", spy)
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


# 0, 1, the smallest subnormal and a tiny normal, with their neighbours one
# ulp away on each side
_SPECIAL = sorted({float(w) for v in (0.0, 1.0, 5e-324, 1e-300)
                   for w in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))})
FMT = "%.17g"


def _csv_writer_bytes(path, header, rows):
    """The bytes of a CSV written cell by cell through csv.writer, as the
    exports were written before they were templated: the oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


class TestCsvBytes:
    @pytest.mark.parametrize("k", range(len(_SPECIAL)))
    def test_surface_as_csv_writer(self, tmp_path, k):
        from robustroc.cli import write_surface_csv

        x, v, w = (_SPECIAL[(k + j) % len(_SPECIAL)] for j in range(3))
        p = np.array([5e-324, np.nextafter(1.0, 0.0)])
        surface = RocSurface(grid=EvalGrid(p_grid=p, x_grid=[x]), values=[[v, w]])
        write_surface_csv(tmp_path / "new.csv", surface)
        oracle = _csv_writer_bytes(
            tmp_path / "old.csv", ["x"] + [FMT % c for c in p],
            [[FMT % x] + [FMT % c for c in row] for row in surface.values])
        assert (tmp_path / "new.csv").read_bytes() == oracle

    def test_roc_auc_as_csv_writer(self, tmp_path, monkeypatch):
        from robustroc import cli
        from robustroc.roc import AucCurve

        curve = AucCurve(x_grid=np.array(_SPECIAL), auc=np.array(_SPECIAL[::-1]))
        monkeypatch.setattr(cli, "auc_curve", lambda surface: curve)
        data = _clean_dataset(tmp_path, n=40, seed=2)
        assert _run(["roc", data, "--out", tmp_path / "out", "--seed", "2"]) == 0
        oracle = _csv_writer_bytes(
            tmp_path / "old.csv", ["x", "auc"],
            [[FMT % x, FMT % a] for x, a in zip(curve.x_grid, curve.auc)])
        assert (tmp_path / "out" / "auc_curve.csv").read_bytes() == oracle

    def test_simulate_auc_as_csv_writer(self, tmp_path, monkeypatch):
        from robustroc import cli

        campaign = cli.run_campaign
        seen = {}

        def special_campaign(*args, **kwargs):
            report = campaign(*args, **kwargs)
            for res in report.variants.values():
                res.auc[...] = np.resize(_SPECIAL, res.auc.shape)
            seen.update(report=report, grid=kwargs["grid"])
            return report

        monkeypatch.setattr(cli, "run_campaign", special_campaign)
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\nn_rep = 2\nn_d = 30\nn_h = 30\n"
                       "keep_auc = true\n[grids]\nx_min = 5e-324\nx_max = 1e-300\n"
                       "x_count = 7\n[output]\nseed = 3\n")
        assert _run(["simulate", "--config", ini, "--out", tmp_path / "out"]) == 0
        for variant, res in seen["report"].variants.items():
            oracle = _csv_writer_bytes(
                tmp_path / "old.csv", ["rep"] + [FMT % x for x in seen["grid"].x_grid],
                [[rep] + [FMT % v for v in row] for rep, row in enumerate(res.auc)])
            assert (tmp_path / "out" / f"auc_{variant.value}.csv").read_bytes() == oracle


class TestInProcessReuse:
    """Consecutive calls of main in one process share nothing but the parser."""

    def test_flags_do_not_leak(self, tmp_path, monkeypatch):
        data = _clean_dataset(tmp_path, n=40, seed=3)
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        plain = ["fit", data]
        flagged = ["fit", data, "--seed", "12", "--variant", "classical",
                   "--out", tmp_path / "flagged"]
        assert _run(plain) == 0
        first = (cwd / "fit_report.json").read_bytes()
        (cwd / "fit_report.json").unlink()
        assert _run(flagged) == 0
        assert _run(plain) == 0
        # the flags of the call before reach neither the report nor its place
        assert (cwd / "fit_report.json").read_bytes() == first
        report = json.loads(first)
        assert report["seed"] == config.RunConfig().seed
        assert report["variant"] == config.RunConfig().variant.value
        flagged_report = json.loads((tmp_path / "flagged" / "fit_report.json").read_text())
        assert (flagged_report["seed"], flagged_report["variant"]) == (12, "classical")

    def test_exit_codes_after_a_success(self, tmp_path, capsys):
        data = _clean_dataset(tmp_path, n=40, seed=3)
        ok = ["fit", data, "--out", tmp_path]
        assert _run(ok) == 0
        assert _run(["fit", data, "--variant", "bogus", "--out", tmp_path]) == 1
        assert "invalid choice: 'bogus'" in capsys.readouterr().err
        assert _run(["frobnicate"]) == 1
        assert _run(["--help"]) == 0
        assert "make-synthetic" in capsys.readouterr().out
        assert _run(["fit"]) == 1
        assert _run(ok) == 0


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

    # A small campaign in which every setting matters: diseased_line changes
    # the shift_diseased scheme only. The report reads a fit through step
    # ECDFs, so a small move of the fit often leaves it unchanged. Newton
    # steps bring most single elemental starts to the default's minimum and
    # tol = 0.1 to within about 1e-4 of it; seed 9 (the first from 0 on)
    # has a start that lands in another minimum, and there tol = 0.1 also
    # ends in other bits than the defaults do.
    BASE = {"simulate": {"scenario": "linear", "n_rep": "1", "n_d": "30",
                         "n_h": "30", "contamination": "shift_diseased",
                         "delta": "0.1", "shift_s": "5"},
            "output": {"seed": "9"}}
    # (section, key) -> (a value off the base's, settings the key needs)
    OFF_BASE = {
        ("model", "family"): ("exponential", {}),
        ("model", "transform"): ("neg_inv_sqrt", {}),
        ("fit", "variant"): ("hybrid", {}),
        ("fit", "rho_s_tuning"): ("2.5", {}),
        ("fit", "rho_m_tuning"): ("3.5", {}),
        ("fit", "breakdown_b"): ("0.3", {}),
        ("fit", "n_subsamples"): ("1", {}),
        ("fit", "max_iter"): ("1", {}),
        ("fit", "tol"): ("0.1", {}),
        ("weights", "eta"): ("1.5", {}),
        ("weights", "kind"): ("smooth", {}),
        ("grids", "p_min"): ("0.05", {}),
        ("grids", "p_max"): ("0.95", {}),
        ("grids", "p_count"): ("50", {}),
        ("grids", "x_min"): ("-0.5", {}),
        ("grids", "x_max"): ("0.5", {}),
        ("grids", "x_count"): ("11", {}),
        ("output", "out_dir"): ("elsewhere", {}),
        ("output", "seed"): ("10", {}),
        ("simulate", "scenario"): ("nonlinear", {"contamination": "none",
                                                 "delta": "0", "shift_s": "0"}),
        ("simulate", "n_d"): ("31", {}),
        ("simulate", "n_h"): ("31", {}),
        ("simulate", "n_rep"): ("2", {}),
        ("simulate", "contamination"): ("shift_both", {}),
        ("simulate", "delta"): ("0.2", {}),
        ("simulate", "shift_s"): ("10", {}),
        ("simulate", "diseased_line"): ("true", {}),
        ("simulate", "keep_auc"): ("true", {}),
    }
    REJECTED = {("model", "family"), ("model", "transform")}

    @staticmethod
    def _outputs(run_dir, sections, monkeypatch, capsys):
        """Run simulate from run_dir with these INI sections and no --out, and
        return its exit code, its error text and the report files written to
        the working directory."""
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        Path("run.ini").write_text("".join(f"[{section}]\n" + "".join(
            f"{key} = {value}\n" for key, value in entries.items())
            for section, entries in sections.items()))
        code = _run(["simulate", "--config", "run.ini"])
        files = {path.name: path.read_bytes() for path in sorted(run_dir.iterdir())
                 if path.name == "metrics.csv" or path.name.startswith("auc_")}
        return code, capsys.readouterr().err, files

    @pytest.mark.parametrize("section,key", [(section, key)
                                             for section in config._SCHEMA
                                             for key in config._SCHEMA[section]])
    def test_every_config_key_applied_or_rejected(self, tmp_path, monkeypatch,
                                                  capsys, section, key):
        # each key moved off the base either changes the reports or fails
        # with exit 1 naming the key: none is dropped silently
        value, needs = self.OFF_BASE[(section, key)]
        base = {name: dict(entries) for name, entries in self.BASE.items()}
        base["simulate"].update(needs)
        changed = {name: dict(entries) for name, entries in base.items()}
        changed.setdefault(section, {})[key] = value
        code, _, before = self._outputs(tmp_path / "base", base,
                                        monkeypatch, capsys)
        assert code == 0 and "metrics.csv" in before
        code, err, after = self._outputs(tmp_path / "changed", changed,
                                         monkeypatch, capsys)
        if (section, key) in self.REJECTED:
            assert code == 1
            assert f"[{section}] {key}" in err
            assert not after
        else:
            assert code == 0
            assert after != before
        if key == "out_dir":
            assert (tmp_path / "changed" / value / "metrics.csv").exists()

    def test_variant_flag_adds_its_row(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\nn_rep = 1\nn_d = 30\nn_h = 30\n")
        assert _run(["simulate", "--config", ini, "--variant", "hybrid",
                     "--out", tmp_path]) == 0
        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == ["classical", "hybrid"]

    def test_model_flag_must_match_scenario(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\nscenario = nonlinear\nn_rep = 1\n"
                       "n_d = 30\nn_h = 30\n")
        assert _run(["simulate", "--config", ini, "--model", "exponential",
                     "--out", tmp_path]) == 0
        assert _run(["simulate", "--config", ini, "--model", "linear",
                     "--out", tmp_path / "linear"]) == 1
        assert "[model] family" in capsys.readouterr().err
        assert not (tmp_path / "linear" / "metrics.csv").exists()

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

    @pytest.mark.parametrize("section,key,value", [
        ("simulate", "n_rep", "0"),
        ("simulate", "n_rep", "-3"),
        ("simulate", "n_d", "0"),
        ("simulate", "n_h", "-1"),
        ("grids", "p_count", "1"),           # with keep_auc below
        ("grids", "p_count", "0"),
        ("grids", "x_count", "0"),
        ("grids", "p_min", "0.99"),           # the default p_max
        ("grids", "p_max", "0.005"),          # below the default p_min
        ("grids", "p_min", "nan"),
        ("grids", "x_min", "nan"),
        ("grids", "x_max", "inf"),
        ("weights", "eta", "inf"),
        ("weights", "eta", "nan"),
    ])
    def test_invalid_settings_are_config_errors(self, tmp_path, capsys,
                                                section, key, value):
        # each used to reach numpy and exit 2 as a numerical failure, or
        # (eta = inf) to be accepted
        sections = {"simulate": {"n_rep": "1", "n_d": "30", "n_h": "30",
                                 "keep_auc": "true"}}
        sections.setdefault(section, {})[key] = value
        ini = tmp_path / "run.ini"
        ini.write_text("".join(f"[{name}]\n" + "".join(
            f"{k} = {v}\n" for k, v in entries.items())
            for name, entries in sections.items()))
        assert _run(["simulate", "--config", ini, "--out", tmp_path]) == 1
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("shift_s", ["1e10", "1e308"])
    def test_gross_healthy_shift_runs(self, tmp_path, capsys, shift_s):
        # the shifted markers lifted the old floor, 1e-10 max|y|, above the
        # MM scale (exit 2), and at 1e308 the candidates through them
        # overflowed with RuntimeWarnings
        ini = tmp_path / "run.ini"
        ini.write_text("[simulate]\nn_rep = 2\nn_d = 30\nn_h = 30\n"
                       "contamination = shift_healthy\ndelta = 0.1\n"
                       f"shift_s = {shift_s}\n")
        assert _run(["simulate", "--config", ini, "--out", tmp_path]) == 0
        assert "Warning" not in capsys.readouterr().err

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
