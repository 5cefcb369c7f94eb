"""Command-line front end: fit, roc, simulate, make-synthetic."""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .datasets import (
    DatasetFormatError,
    make_synthetic_study,
    read_dataset,
    write_dataset,
)
from .models import (
    EvalGrid,
    Family,
    PopulationSample,
    RegressionSpec,
    default_grids,
)
from .roc import (
    ConditionalRocModel,
    RocSurface,
    Variant,
    auc_curve,
    roc_surface,
    transform_marker,
)
from .simulate import fit_population, residual_distribution, run_campaign
from .weighting import WeightKind, weight_function

FMT = "%.17g"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dataset_config(cfg: RunConfig) -> RunConfig:
    """cfg with an unset family and weight kind at the defaults of the
    commands that read a dataset: linear, with hard-rejection weights."""
    return replace(cfg, family=cfg.family or Family.LINEAR,
                   weight_kind=cfg.weight_kind or WeightKind.HARD_REJECTION)


def _load_samples(path, cfg: RunConfig, command: str):
    """The dataset's two samples, with cfg's marker transform, and the spec
    of cfg's family for the dataset's covariates. roc evaluates over one
    covariate, and the exponential family takes one."""
    diseased, healthy = read_dataset(path)
    if command == "roc" and diseased.p != 1:
        raise UsageError(f"roc evaluates the ROC surface over one covariate, "
                         f"the dataset has {diseased.p}")
    try:
        spec = RegressionSpec(cfg.family, diseased.p)
    except ValueError as exc:
        raise UsageError(f"{command}: {exc} in the dataset") from exc
    if cfg.transform is not None:
        diseased = PopulationSample(diseased.label,
                                    transform_marker(diseased.y, cfg.transform),
                                    diseased.x)
        healthy = PopulationSample(healthy.label,
                                   transform_marker(healthy.y, cfg.transform),
                                   healthy.x)
    return diseased, healthy, spec


def _population_report(sample: PopulationSample, fit, ecdf=None) -> dict:
    """The fit of one population and, when an ECDF is given (there is none for
    a degenerate scale), its residuals, weights and cut-off."""
    report = {
        "n": sample.n,
        "beta_hat": fit.beta_hat.tolist(),
        "sigma_hat": fit.sigma_hat,
        "method": fit.method.value,
        "converged": fit.converged,
        "degenerate_scale": fit.degenerate_scale,
    }
    if ecdf is not None:
        weights = ecdf.weights
        report.update({
            "residuals": _original_order(ecdf).tolist(),
            "weights": weights.tolist(),
            "d_n": ecdf.d_n,
            "t_bar_n": _finite_or_none(ecdf.t_bar_n),
            "t_n": _finite_or_none(ecdf.t_n),
            "flagged_outliers": np.flatnonzero(weights == 0.0).tolist(),
        })
    return report


def _original_order(ecdf) -> np.ndarray:
    out = np.empty_like(ecdf.r_sorted)
    out[ecdf.order] = ecdf.r_sorted
    return out


def _finite_or_none(value: float) -> Optional[float]:
    """JSON has no infinity: an unbounded cut-off (no weighting) becomes null."""
    return float(value) if np.isfinite(value) else None


def _write_json(path: Path, payload: dict) -> None:
    # strict JSON: a non-finite float raises instead of writing Infinity or NaN
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               allow_nan=False) + "\n")


def cmd_fit(dataset: str, cfg: RunConfig, out_dir: Path) -> Path:
    """Fit both populations and write the residual/weight diagnostics report."""
    cfg = _dataset_config(cfg)
    diseased, healthy, spec = _load_samples(dataset, cfg, "fit")
    report = {"variant": cfg.variant.value, "family": cfg.family.value,
              "eta": cfg.eta, "seed": cfg.seed}
    mm = replace(cfg.mm, seed=cfg.seed)
    weights = weight_function(cfg.weight_kind)
    for name, sample in (("diseased", diseased), ("healthy", healthy)):
        fit = fit_population(sample, spec, cfg.variant, mm)
        ecdf = None if fit.degenerate_scale else residual_distribution(
            sample, fit, cfg.variant, weights, cfg.eta)
        report[name] = _population_report(sample, fit, ecdf)
    out = out_dir / "fit_report.json"
    _write_json(out, report)
    return out


def _eval_grid(cfg: RunConfig, x_min: float, x_max: float,
               x_count: int) -> EvalGrid:
    """The [grids] settings, with the command's defaults for the x settings
    that are unset."""
    p = np.linspace(cfg.p_min, cfg.p_max, cfg.p_count)
    lo = x_min if cfg.x_min is None else cfg.x_min
    hi = x_max if cfg.x_max is None else cfg.x_max
    count = x_count if cfg.x_count is None else cfg.x_count
    return EvalGrid(p_grid=p, x_grid=np.linspace(lo, hi, count))


def _template(first: str, count: int) -> str:
    """A CSV line: `first`, then count '%.17g' cells. csv.writer writes the
    same bytes, since '%.17g' yields no comma, quote or line break."""
    return first + ("," + FMT) * count + "\r\n"


def _write_table(path: Path, header: str, first: str, column,
                 values: np.ndarray) -> None:
    """The header line, then one line per entry of column: the entry in the
    format `first`, then its row of values."""
    row = _template(first, values.shape[1])
    with open(path, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(row % (c, *r) for c, r in zip(column, values.tolist()))


def write_surface_csv(path: Path, surface: RocSurface) -> None:
    """Header row of p values ('x' in the corner), first column of x values."""
    p = surface.grid.p_grid
    _write_table(path, _template("x", p.size) % tuple(p.tolist()), FMT,
                 surface.grid.x_grid.tolist(), surface.values)


def cmd_roc(dataset: str, cfg: RunConfig, out_dir: Path) -> tuple[Path, Path, Path]:
    """Fit, build the plug-in ROC surface and AUC curve, and export them."""
    if cfg.p_count < 2:
        raise UsageError(f"[grids] p_count must be at least 2 for roc, whose AUC "
                         f"curve needs two p points, found {cfg.p_count}")
    cfg = _dataset_config(cfg)
    diseased, healthy, spec = _load_samples(dataset, cfg, "roc")
    mm = replace(cfg.mm, seed=cfg.seed)
    weights = weight_function(cfg.weight_kind)
    fit_d = fit_population(diseased, spec, cfg.variant, mm)
    fit_h = fit_population(healthy, spec, cfg.variant, mm)
    g_d = residual_distribution(diseased, fit_d, cfg.variant, weights, cfg.eta)
    g_h = residual_distribution(healthy, fit_h, cfg.variant, weights, cfg.eta)
    model = ConditionalRocModel(fit_D=fit_d, fit_H=fit_h, gD_hat=g_d, gH_hat=g_h,
                                variant=cfg.variant)
    x_all = np.concatenate([diseased.x[:, 0], healthy.x[:, 0]])
    grid = _eval_grid(cfg, float(x_all.min()), float(x_all.max()), 41)
    surface = roc_surface(model, grid)
    auc = auc_curve(surface)

    surf_path = out_dir / "roc_surface.csv"
    write_surface_csv(surf_path, surface)
    auc_path = out_dir / "auc_curve.csv"
    _write_table(auc_path, "x,auc\r\n", FMT, auc.x_grid.tolist(), auc.auc[:, None])
    meta_path = out_dir / "roc_meta.json"
    _write_json(meta_path, {
        "variant": cfg.variant.value,
        "family": cfg.family.value,
        "seed": cfg.seed,
        "diseased": {"beta_hat": fit_d.beta_hat.tolist(), "sigma_hat": fit_d.sigma_hat,
                     "converged": fit_d.converged},
        "healthy": {"beta_hat": fit_h.beta_hat.tolist(), "sigma_hat": fit_h.sigma_hat,
                    "converged": fit_h.converged},
        "grid": {"p_min": cfg.p_min, "p_max": cfg.p_max, "p_count": cfg.p_count,
                 "x_min": float(grid.x_grid[0]), "x_max": float(grid.x_grid[-1]),
                 "x_count": grid.x_grid.size},
    })
    return surf_path, auc_path, meta_path


def cmd_simulate(cfg: RunConfig, out_dir: Path) -> Path:
    """Run a replication campaign of the classical variant and cfg.variant,
    and export the metrics report (and, when requested, the per-replication
    AUC matrix per variant). The scenario sets the family and, unless they
    are given, the weights and the x grid."""
    if cfg.transform is not None:
        raise UsageError("[model] transform does not apply to simulate: "
                         "generated markers have no raw scale to transform")
    family = cfg.scenario.family
    if cfg.family not in (None, family):
        raise UsageError(f"[model] family (--model) {cfg.family.value} contradicts "
                         f"[simulate] scenario {cfg.scenario.value}, whose family "
                         f"is {family.value}")
    try:
        scheme = cfg.contamination_scheme()
        scheme.validate_for(cfg.scenario)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    variants = list(dict.fromkeys([Variant.CLASSICAL, cfg.variant]))
    x_default = default_grids(cfg.scenario).x_grid
    grid = _eval_grid(cfg, x_default[0], x_default[-1], x_default.size)
    weights = None if cfg.weight_kind is None else weight_function(cfg.weight_kind)
    report = run_campaign(cfg.scenario_spec(), scheme, variants, cfg.n_rep,
                          grid=grid, eta=cfg.eta, mm=cfg.mm,
                          keep_auc=cfg.keep_auc, weights=weights)
    metrics_path = out_dir / "metrics.csv"
    with open(metrics_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "n_rep", "mean_mse", "mean_ks",
                         "n_nonconverged"])
        for variant in variants:
            res = report.variants[variant]
            writer.writerow([variant.value, report.n_rep, FMT % res.mean_mse,
                             FMT % res.mean_ks, res.n_nonconverged])
    if cfg.keep_auc:
        x = grid.x_grid
        header = _template("rep", x.size) % tuple(x.tolist())
        for variant in variants:
            auc = report.variants[variant].auc
            _write_table(out_dir / f"auc_{variant.value}.csv", header, "%d",
                         range(len(auc)), auc)
    return metrics_path


def cmd_make_synthetic(cfg: RunConfig, out_dir: Path) -> tuple[Path, Path]:
    """Write a synthetic two-group glucose-style dataset plus the indices of
    the injected healthy-group outliers."""
    study = make_synthetic_study(seed=cfg.seed)
    data_path = out_dir / "synthetic_study.csv"
    write_dataset(data_path, study.diseased, study.healthy)
    idx_path = out_dir / "synthetic_outliers.json"
    _write_json(idx_path, {
        "healthy_outlier_indices": [int(i) for i in study.healthy_outlier_indices],
        "note": "synthetic stand-in dataset; outliers injected at these "
                "healthy-group row indices",
    })
    return data_path, idx_path


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones: parsing
    leaves no state in it."""
    parser = _Parser(prog="robustroc",
                     description="Robust covariate-conditional ROC estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False):
        if dataset:
            p.add_argument("dataset", help="dataset CSV (group,y,x1..xp)")
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--seed", type=int, help="RNG seed override")
        p.add_argument("--variant", choices=[v.value for v in Variant])
        p.add_argument("--model", choices=[f.value for f in Family])
        p.add_argument("--eta", type=float, help="cut-off floor (> 0)")
        p.add_argument("--weights", choices=[k.value for k in WeightKind])
        p.add_argument("--out", help="output directory (default: [output] "
                       "out_dir, else the current directory)")

    common(sub.add_parser("fit", help="fit both populations, report diagnostics"),
           dataset=True)
    common(sub.add_parser("roc", help="export the ROC surface and AUC curve"),
           dataset=True)
    common(sub.add_parser("simulate", help="run a Monte Carlo campaign"))
    common(sub.add_parser("make-synthetic", help="write a synthetic study dataset"))
    return parser


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.variant is not None:
        overrides["variant"] = Variant(args.variant)
    if args.model is not None:
        overrides["family"] = Family(args.model)
    if args.eta is not None:
        overrides["eta"] = args.eta
    if args.weights is not None:
        overrides["weight_kind"] = WeightKind(args.weights)
    if args.out is not None:
        overrides["out_dir"] = Path(args.out)
    return replace(cfg, **overrides) if overrides else cfg


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
    except (ConfigError, UsageError) as exc:
        print(f"robustroc: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return int(exc.code or 0)

    out_dir = cfg.out_dir
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "fit":
            cmd_fit(args.dataset, cfg, out_dir)
        elif args.command == "roc":
            cmd_roc(args.dataset, cfg, out_dir)
        elif args.command == "simulate":
            cmd_simulate(cfg, out_dir)
        elif args.command == "make-synthetic":
            cmd_make_synthetic(cfg, out_dir)
        else:  # pragma: no cover - argparse enforces the choices
            raise UsageError(f"unknown command {args.command!r}")
    except (DatasetFormatError, ConfigError, UsageError, FileNotFoundError) as exc:
        print(f"robustroc: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, np.linalg.LinAlgError,
            RuntimeError) as exc:
        print(f"robustroc: numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
