"""Command-line front end: fit, roc, simulate, make-synthetic."""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields, replace
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
    exponential_spec,
    linear_spec,
    standardized_residuals,
)
from .robust import MMConfig, fit_least_squares, fit_mm_linear, fit_mm_nonlinear
from .roc import (
    ConditionalRocModel,
    MarkerTransform,
    RocSurface,
    Variant,
    auc_curve,
    roc_surface,
    transform_marker,
)
from .simulate import run_campaign
from .weighting import (
    build_weighted_ecdf,
    plain_ecdf,
    standard_normal_reference,
    weight_function,
)

FMT = "%.17g"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fit_population(sample: PopulationSample, cfg: RunConfig):
    if cfg.family is Family.LINEAR:
        spec = linear_spec(sample.p, intercept=True)
    else:
        spec = exponential_spec()
    if cfg.variant is Variant.CLASSICAL:
        return fit_least_squares(sample, spec)
    mm = replace(cfg.mm, seed=cfg.seed)
    if cfg.family is Family.LINEAR:
        return fit_mm_linear(sample, intercept=True, cfg=mm)
    return fit_mm_nonlinear(sample, spec, mm)


def _residual_ecdf(residuals, cfg: RunConfig):
    if cfg.variant is Variant.ROBUST:
        return build_weighted_ecdf(residuals, weight_function(cfg.weight_kind),
                                   standard_normal_reference(), cfg.eta)
    return plain_ecdf(residuals)


def _load_samples(path, cfg: RunConfig):
    diseased, healthy = read_dataset(path)
    if cfg.transform is not None:
        diseased = PopulationSample(diseased.label,
                                    transform_marker(diseased.y, cfg.transform),
                                    diseased.x)
        healthy = PopulationSample(healthy.label,
                                   transform_marker(healthy.y, cfg.transform),
                                   healthy.x)
    return diseased, healthy


def _population_report(sample: PopulationSample, fit, ecdf) -> dict:
    weights = ecdf.weights
    flagged = np.flatnonzero(weights == 0.0)
    return {
        "n": sample.n,
        "beta_hat": list(fit.beta_hat),
        "sigma_hat": fit.sigma_hat,
        "method": fit.method.value,
        "converged": fit.converged,
        "degenerate_scale": fit.degenerate_scale,
        "residuals": list(_original_order(ecdf)),
        "weights": list(weights),
        "d_n": ecdf.d_n,
        "t_bar_n": _finite_or_none(ecdf.t_bar_n),
        "t_n": _finite_or_none(ecdf.t_n),
        "flagged_outliers": [int(i) for i in flagged],
    }


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
    diseased, healthy = _load_samples(dataset, cfg)
    report = {"variant": cfg.variant.value, "family": cfg.family.value,
              "eta": cfg.eta, "seed": cfg.seed}
    for name, sample in (("diseased", diseased), ("healthy", healthy)):
        fit = _fit_population(sample, cfg)
        if fit.degenerate_scale:
            report[name] = {
                "n": sample.n,
                "beta_hat": list(fit.beta_hat),
                "sigma_hat": fit.sigma_hat,
                "method": fit.method.value,
                "converged": fit.converged,
                "degenerate_scale": True,
            }
            continue
        res = standardized_residuals(sample, fit)
        ecdf = _residual_ecdf(res, cfg)
        report[name] = _population_report(sample, fit, ecdf)
    out = out_dir / "fit_report.json"
    _write_json(out, report)
    return out


def _eval_grid(cfg: RunConfig, diseased: PopulationSample,
               healthy: PopulationSample) -> EvalGrid:
    p = np.linspace(cfg.p_min, cfg.p_max, cfg.p_count)
    x_all = np.concatenate([diseased.x[:, 0], healthy.x[:, 0]])
    lo = cfg.x_min if cfg.x_min is not None else float(x_all.min())
    hi = cfg.x_max if cfg.x_max is not None else float(x_all.max())
    return EvalGrid(p_grid=p, x_grid=np.linspace(lo, hi, cfg.x_count))


def write_surface_csv(path: Path, surface: RocSurface) -> None:
    """Header row of p values ('x' in the corner), first column of x values."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x"] + [FMT % p for p in surface.grid.p_grid])
        for x, row in zip(surface.grid.x_grid, surface.values):
            writer.writerow([FMT % x] + [FMT % v for v in row])


def read_surface_csv(path) -> RocSurface:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][0] != "x":
        raise DatasetFormatError("line 1: surface header must start with 'x'")
    p = np.array([float(c) for c in rows[0][1:]])
    x = np.array([float(r[0]) for r in rows[1:]])
    values = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    return RocSurface(grid=EvalGrid(p_grid=p, x_grid=x), values=values)


def cmd_roc(dataset: str, cfg: RunConfig, out_dir: Path) -> tuple[Path, Path, Path]:
    """Fit, build the plug-in ROC surface and AUC curve, and export them."""
    diseased, healthy = _load_samples(dataset, cfg)
    fit_d = _fit_population(diseased, cfg)
    fit_h = _fit_population(healthy, cfg)
    g_d = _residual_ecdf(standardized_residuals(diseased, fit_d), cfg)
    g_h = _residual_ecdf(standardized_residuals(healthy, fit_h), cfg)
    model = ConditionalRocModel(fit_D=fit_d, fit_H=fit_h, gD_hat=g_d, gH_hat=g_h,
                                variant=cfg.variant)
    grid = _eval_grid(cfg, diseased, healthy)
    surface = roc_surface(model, grid)
    auc = auc_curve(surface)

    surf_path = out_dir / "roc_surface.csv"
    write_surface_csv(surf_path, surface)
    auc_path = out_dir / "auc_curve.csv"
    with open(auc_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "auc"])
        for x, a in zip(auc.x_grid, auc.auc):
            writer.writerow([FMT % x, FMT % a])
    meta_path = out_dir / "roc_meta.json"
    _write_json(meta_path, {
        "variant": cfg.variant.value,
        "family": cfg.family.value,
        "seed": cfg.seed,
        "diseased": {"beta_hat": list(fit_d.beta_hat), "sigma_hat": fit_d.sigma_hat,
                     "converged": fit_d.converged},
        "healthy": {"beta_hat": list(fit_h.beta_hat), "sigma_hat": fit_h.sigma_hat,
                    "converged": fit_h.converged},
        "grid": {"p_min": cfg.p_min, "p_max": cfg.p_max, "p_count": cfg.p_count,
                 "x_min": float(grid.x_grid[0]), "x_max": float(grid.x_grid[-1]),
                 "x_count": cfg.x_count},
    })
    return surf_path, auc_path, meta_path


# Settings a campaign does not apply yet: its scenario fixes the model, the
# variants, the weight function and the grids, and run_campaign its MM tuning.
_SIMULATE_UNAPPLIED = {
    "family": "[model] family (--model)",
    "transform": "[model] transform",
    "variant": "[fit] variant (--variant)",
    "weight_kind": "[weights] kind (--weights)",
    **{attr: f"[grids] {attr}"
       for attr in ("p_min", "p_max", "p_count", "x_min", "x_max", "x_count")},
}


def _check_simulate_settings(cfg: RunConfig) -> None:
    """Reject, by name, each setting `simulate` would drop that is not at its default."""
    default = RunConfig()
    unapplied = [name for attr, name in _SIMULATE_UNAPPLIED.items()
                 if getattr(cfg, attr) != getattr(default, attr)]
    unapplied += [f"[fit] {f.name}" for f in fields(MMConfig) if f.name != "seed"
                  and getattr(cfg.mm, f.name) != getattr(default.mm, f.name)]
    if unapplied:
        raise UsageError("simulate does not apply these settings yet; remove them "
                         "or give their defaults: " + ", ".join(unapplied))


def cmd_simulate(cfg: RunConfig, out_dir: Path,
                 variants: Optional[list] = None) -> Path:
    """Run a replication campaign and export the metrics report (and, when
    requested, the per-replication AUC matrix per variant)."""
    _check_simulate_settings(cfg)
    if variants is None:
        variants = [Variant.CLASSICAL, Variant.ROBUST]
    try:
        scheme = cfg.contamination_scheme()
        scheme.validate_for(cfg.scenario)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = run_campaign(cfg.scenario_spec(), scheme,
                          variants, cfg.n_rep, eta=cfg.eta,
                          keep_auc=cfg.keep_auc)
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
        from .models import default_grids

        grid = default_grids(cfg.scenario)
        for variant in variants:
            res = report.variants[variant]
            path = out_dir / f"auc_{variant.value}.csv"
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["rep"] + [FMT % x for x in grid.x_grid])
                for rep, row in enumerate(res.auc):
                    writer.writerow([rep] + [FMT % v for v in row])
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robustroc",
                     description="Robust covariate-conditional ROC estimation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, dataset=False):
        if dataset:
            p.add_argument("dataset", help="dataset CSV (group,y,x1..xp)")
        p.add_argument("--config", help="INI run configuration")
        p.add_argument("--seed", type=int, help="RNG seed override")
        p.add_argument("--variant", choices=[v.value for v in Variant])
        p.add_argument("--model", choices=["linear", "exponential"])
        p.add_argument("--eta", type=float, help="cut-off floor (> 0)")
        p.add_argument("--weights", choices=["hard", "smooth"])
        p.add_argument("--out", default=".", help="output directory")

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
        if args.eta <= 0:
            raise UsageError("--eta must be positive")
        overrides["eta"] = args.eta
    if args.weights is not None:
        from .weighting import WeightKind

        overrides["weight_kind"] = (WeightKind.HARD_REJECTION
                                    if args.weights == "hard"
                                    else WeightKind.SMOOTH_POLYNOMIAL)
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
