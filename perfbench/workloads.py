"""The robustroc workloads: set-up, timed phase, output checks and metrics.

Every workload goes through robustroc's public functions only. The Monte Carlo
workloads call ``robustroc.run_campaign`` in chunks of a few replications, each
chunk with its own scenario seed; the CLI workload calls ``robustroc.cli.main``
in-process. Checks compare the outputs with computations written here or with
properties the method must have, never with a stored copy of earlier output.
"""
from __future__ import annotations

import csv
import importlib
import json
import resource
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy.stats import norm

from tracing import Patches, Tracer, stamp_calls

clock = time.perf_counter

SETUP_REPEATS = 3
TAG_WARMUP, TAG_TIMED, TAG_STUDY = 0, 1, 2
N_PER_GROUP = 100

# Binormal truth of the linear scenario, from the paper's simulation design.
LINEAR_TRUTH = {"beta_D": (2.0, 4.0), "sigma_D": 2.0,
                "beta_H": (0.5, 1.0), "sigma_H": 1.5}

LAYERS = ("simulate", "robust", "models", "weighting", "roc", "datasets",
          "config", "cli")

END_TO_END_UNITS = {"setup_s": "s", "rep_ms": "ms", "reps_per_s": "1/s",
                    "peak_rss_mb": "MB"}

# per-layer time metric -> span names whose self time it sums, in ms per unit
SELF_MS = {
    "robust.fit_mm_linear_self_ms": ("robust.fit_mm_linear",),
    "robust.fit_mm_nonlinear_self_ms": ("robust.fit_mm_nonlinear",),
    "robust.m_scale_ms": ("robust.m_scale",),
    "robust.fit_least_squares_ms": ("robust.fit_least_squares",),
    "simulate.run_campaign_self_ms": ("simulate.run_campaign",),
    "simulate.generate_ms": ("simulate.generate",),
    "simulate.true_surface_ms": ("simulate.true_surface",),
    "simulate.score_ms": ("simulate.score",),
    "simulate.fit_variant_model_ms": ("simulate.fit_variant_model",),
    "models.standardized_residuals_ms": ("models.standardized_residuals",),
    "weighting.build_weighted_ecdf_ms": ("weighting.build_weighted_ecdf",),
    "weighting.plain_ecdf_ms": ("weighting.plain_ecdf",),
    "roc.roc_surface_ms": ("roc.roc_surface",),
    "roc.auc_curve_ms": ("roc.auc_curve",),
    "datasets.read_dataset_ms": ("datasets.read_dataset",),
    "config.load_config_ms": ("config.load_config",),
    "cli.write_surface_csv_ms": ("cli.write_surface_csv",),
    "cli.command_self_ms": ("cli.main", "cli.cmd_fit", "cli.cmd_roc"),
}
COUNTS = ("robust.m_scale_calls", "robust.fits", "robust.iterations",
          "robust.nonconverged", "robust.degenerate", "weighting.zero_weight_points")

PER_LAYER_UNITS = {
    **{name: "ms" for name in SELF_MS},
    "datasets.write_dataset_ms": "ms",
    **{name: "count" for name in COUNTS},
    **{f"{layer}.share_pct": "%" for layer in LAYERS},
    "cli.fit_cmd_s": "s",
    "cli.roc_cmd_s": "s",
    "trace.units": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
}

# (attribute of the calling module, span name); wrapped only where present
CALLEE_SPANS = (
    ("fit_mm_linear", "robust.fit_mm_linear"),
    ("fit_mm_nonlinear", "robust.fit_mm_nonlinear"),
    ("fit_least_squares", "robust.fit_least_squares"),
    ("standardized_residuals", "models.standardized_residuals"),
    ("build_weighted_ecdf", "weighting.build_weighted_ecdf"),
    ("plain_ecdf", "weighting.plain_ecdf"),
    ("roc_surface", "roc.roc_surface"),
    ("auc_curve", "roc.auc_curve"),
    # campaign runner
    ("generate", "simulate.generate"),
    ("true_surface", "simulate.true_surface"),
    ("fit_variant_model", "simulate.fit_variant_model"),
    ("mse_metric", "simulate.score"),
    ("ks_metric", "simulate.score"),
    # command line
    ("cmd_fit", "cli.cmd_fit"),
    ("cmd_roc", "cli.cmd_roc"),
    ("load_config", "config.load_config"),
    ("read_dataset", "datasets.read_dataset"),
    ("write_surface_csv", "cli.write_surface_csv"),
)


def derived_seed(seed: int, tag: int, k: int = 0) -> int:
    """A 32-bit seed for input ``k`` of kind ``tag`` of the workload seed."""
    return int(np.random.SeedSequence([seed, tag, k]).generate_state(1)[0])


def fresh_import():
    """Import robustroc anew, so that each set-up pays the package's import."""
    for name in [m for m in sys.modules if m == "robustroc" or m.startswith("robustroc.")]:
        del sys.modules[name]
    return importlib.import_module("robustroc")


def timed_setups(build: Callable[[], object]):
    """Run ``build`` SETUP_REPEATS times; keep the last state and all times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        state = build()
        times.append(clock() - start)
    return state, times


def count_fit(counts: dict, fit) -> None:
    counts["robust.fits"] += 1
    counts["robust.iterations"] += fit.iterations
    counts["robust.nonconverged"] += not fit.converged
    counts["robust.degenerate"] += bool(fit.degenerate_scale)


def count_m_scale(counts: dict, _scale) -> None:
    counts["robust.m_scale_calls"] += 1


def count_zero_weights(counts: dict, ecdf) -> None:
    counts["weighting.zero_weight_points"] += int(np.sum(ecdf.weights_sorted == 0.0))


COUNTERS = {"robust.m_scale": count_m_scale,
            "robust.fit_mm_linear": count_fit,
            "robust.fit_mm_nonlinear": count_fit,
            "robust.fit_least_squares": count_fit,
            "weighting.build_weighted_ecdf": count_zero_weights}


def install_tracer(tracer: Tracer, patches: Patches, caller) -> None:
    """Wrap the functions ``caller`` (a robustroc module) looks up, and m_scale."""
    for attr, name in CALLEE_SPANS:
        if hasattr(caller, attr):
            tracer.wrap(patches, caller, attr, name, COUNTERS.get(name))
    tracer.wrap(patches, sys.modules["robustroc.robust"], "m_scale", "robust.m_scale",
                count_m_scale)


def layer_metrics(tracer: Tracer, units: int) -> dict:
    """Per-unit self times and counts, and each layer's share of the root spans."""
    selfs = tracer.self_times()
    per_unit = 1.0 / max(units, 1)
    out = {name: 1e3 * per_unit * sum(selfs.get(s, 0.0) for s in spans)
           for name, spans in SELF_MS.items()}
    for name in COUNTS:
        out[name] = per_unit * tracer.counts.get(name, 0)
    root = tracer.root_seconds()
    for layer in LAYERS:
        layer_self = sum(t for name, t in selfs.items() if name.startswith(layer + "."))
        out[f"{layer}.share_pct"] = 100.0 * layer_self / root if root > 0 else 0.0
    out["trace.units"] = float(units)
    return out


@dataclass
class Check:
    name: str
    ok: bool
    known_fault: bool = False


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(checks: list, attempted_units: int, failed_units: int, metrics: dict,
           units: dict) -> dict:
    """The benchmark's last output line; every check is one operation."""
    failing = Counter((c.name, c.known_fault) for c in checks if not c.ok)
    for (name, known), times in failing.items():
        note = " (known fault)" if known else ""
        print(f"check failed {times}x{note}: {name}", file=sys.stderr)
    return {
        "correct": all(c.ok or c.known_fault for c in checks),
        "attempted": attempted_units + len(checks),
        "failed": failed_units + sum(not c.ok for c in checks),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }


# --------------------------------------------------------------------------
# Monte Carlo campaign workloads


def binormal_truth(grid_x: np.ndarray, grid_p: np.ndarray) -> np.ndarray:
    """1 - Phi(a(x) + b Phi^-1(1 - p)) for the linear scenario's true model."""
    t = LINEAR_TRUTH
    mu_d = t["beta_D"][0] + t["beta_D"][1] * grid_x
    mu_h = t["beta_H"][0] + t["beta_H"][1] * grid_x
    a = (mu_h - mu_d) / t["sigma_D"]
    b = t["sigma_H"] / t["sigma_D"]
    return 1.0 - norm.cdf(a[:, None] + b * norm.ppf(1.0 - grid_p)[None, :])


def numpy_classical_mse(sample_d, sample_h, grid_x, grid_p) -> float:
    """Classical plug-in MSE from numpy alone: OLS by polyfit, plain ECDFs,
    the plug-in surface and its mean squared distance to the binormal truth."""
    def ols(sample):
        x, y = sample.x[:, 0], sample.y
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (intercept + slope * x)
        sigma = np.sqrt(np.sum(resid ** 2) / (y.size - 2))
        return intercept, slope, sigma, np.sort(resid / sigma)

    b0_d, b1_d, s_d, r_d = ols(sample_d)
    b0_h, b1_h, s_h, r_h = ols(sample_h)
    n_h = r_h.size
    # generalized inverse of the healthy ECDF: smallest r with k/n >= level
    k = np.searchsorted(np.arange(1, n_h + 1) / n_h, 1.0 - grid_p, side="left")
    q_h = r_h[np.minimum(k, n_h - 1)]
    a = ((b0_h + b1_h * grid_x) - (b0_d + b1_d * grid_x)) / s_d
    arg = a[:, None] + (s_h / s_d) * q_h[None, :]
    est = 1.0 - np.searchsorted(r_d, arg, side="right") / r_d.size
    return float(np.mean((est - binormal_truth(grid_x, grid_p)) ** 2))


def check_linear_shift(ctx, phase) -> list:
    rr = ctx.rr
    mse = {v: phase.mean_mse(v) for v in ctx.variants}
    ks = {v: phase.mean_ks(v) for v in ctx.variants}
    cl, ro, hy = rr.Variant.CLASSICAL, rr.Variant.ROBUST, rr.Variant.HYBRID
    truth_gap = float(np.max(np.abs(
        ctx.truth.values - binormal_truth(ctx.grid.x_grid, ctx.grid.p_grid))))
    return [
        Check(f"classical mean MSE {mse[cl]:.4g} >= 3 x robust {mse[ro]:.4g}",
              mse[cl] >= 3.0 * mse[ro]),
        Check(f"robust mean KS {ks[ro]:.4g} < 0.3", ks[ro] < 0.3),
        Check(f"classical mean KS {ks[cl]:.4g} > 0.5", ks[cl] > 0.5),
        Check(f"mean MSE robust {mse[ro]:.4g} < hybrid {mse[hy]:.4g} < "
              f"classical {mse[cl]:.4g}", mse[ro] < mse[hy] < mse[cl]),
        Check(f"true_surface within 1e-12 of the binormal formula ({truth_gap:.3g})",
              truth_gap <= 1e-12),
    ]


def check_nonlinear_shift(ctx, phase) -> list:
    cl = phase.mean_mse(ctx.rr.Variant.CLASSICAL)
    ro = phase.mean_mse(ctx.rr.Variant.ROBUST)
    return [Check(f"classical mean MSE {cl:.4g} > 0.010", cl > 0.010),
            Check(f"robust mean MSE {ro:.4g} < 0.006", ro < 0.006)]


RECOMPUTED_REPS = 3


def check_classical_clean(ctx, phase) -> list:
    rr = ctx.rr
    mse = phase.mean_mse(rr.Variant.CLASSICAL)
    checks = [Check(f"classical mean MSE {mse:.4g} in [0.0019, 0.0048]",
                    0.0019 <= mse <= 0.0048)]
    scenario, report = phase.first
    reported = report.variants[rr.Variant.CLASSICAL].mse
    for rep in range(min(RECOMPUTED_REPS, reported.size)):
        # run_campaign draws replication rep from default_rng([seed, rep])
        sample_d, sample_h = rr.generate(
            scenario, ctx.scheme, np.random.default_rng([scenario.seed, rep]))
        mine = numpy_classical_mse(sample_d, sample_h, ctx.grid.x_grid, ctx.grid.p_grid)
        checks.append(Check(
            f"replication {rep} MSE {reported[rep]:.6g} matches numpy {mine:.6g}",
            bool(np.isclose(reported[rep], mine, rtol=1e-9, atol=0.0))))
    return checks


@dataclass(frozen=True)
class CampaignSpec:
    scenario: str
    contamination: str
    delta: float
    shift_s: float
    variants: tuple
    chunk: int            # replications per run_campaign call
    check: Callable


CAMPAIGNS = {
    "mc_linear_shift": CampaignSpec("linear", "shift_both", 0.10, 0.0,
                                    ("classical", "robust", "hybrid"), 4,
                                    check_linear_shift),
    "mc_nonlinear_shift": CampaignSpec("nonlinear", "nonlinear_shift", 0.05, 10.0,
                                       ("classical", "robust"), 2,
                                       check_nonlinear_shift),
    "mc_classical_clean": CampaignSpec("linear", "none", 0.0, 0.0,
                                       ("classical",), 400,
                                       check_classical_clean),
}


@dataclass
class CampaignContext:
    rr: object
    kind: object
    scheme: object
    variants: list
    grid: object
    truth: object


class Phase:
    """Replication times and score sums of a run, without keeping the
    reports, so that memory does not grow with the replications completed."""

    def __init__(self):
        self.rep_ms = array("d")
        self.mse_sum = defaultdict(float)
        self.ks_sum = defaultdict(float)
        self.first = None           # (scenario, report) of the first chunk
        self.failed_reps = 0

    def add(self, scenario, report, rep_ms) -> None:
        self.rep_ms.extend(rep_ms)
        for variant, res in report.variants.items():
            self.mse_sum[variant] += float(np.sum(res.mse))
            self.ks_sum[variant] += float(np.sum(res.ks))
        if self.first is None:
            self.first = (scenario, report)

    def mean_mse(self, variant) -> float:
        return self.mse_sum[variant] / len(self.rep_ms)

    def mean_ks(self, variant) -> float:
        return self.ks_sum[variant] / len(self.rep_ms)


def campaign_setup(spec: CampaignSpec, seed: int) -> CampaignContext:
    rr = fresh_import()
    kind = rr.ScenarioKind(spec.scenario)
    scheme = rr.ContaminationScheme(kind=rr.ContaminationKind(spec.contamination),
                                    delta=spec.delta, shift_s=spec.shift_s)
    variants = [rr.Variant(v) for v in spec.variants]
    grid = rr.default_grids(kind)
    truth = rr.true_surface(rr.ScenarioSpec(model=kind), grid)
    warm = rr.ScenarioSpec(model=kind, n_D=N_PER_GROUP, n_H=N_PER_GROUP,
                           seed=derived_seed(seed, TAG_WARMUP))
    rr.run_campaign(warm, scheme, variants, 1, grid=grid, keep_auc=True)
    return CampaignContext(rr, kind, scheme, variants, grid, truth)


def run_chunk(spec: CampaignSpec, ctx: CampaignContext, scenario, phase: Phase,
              tracer: Optional[Tracer] = None):
    """One ``run_campaign`` call of ``spec.chunk`` replications, added to
    ``phase``; returns its report, or None when the chunk failed.

    A replication's time runs from the start of its ``generate`` call to the
    start of the next one, or to the return of ``run_campaign``.
    """
    simulate = sys.modules["robustroc.simulate"]
    patches, stamps = Patches(), []
    if tracer is not None:
        install_tracer(tracer, patches, simulate)
        tracer.next_unit()
    stamp_calls(patches, simulate, "generate", stamps,
                tracer.next_unit if tracer is not None else None)
    args = (scenario, ctx.scheme, ctx.variants, spec.chunk)
    try:
        if tracer is None:
            report = ctx.rr.run_campaign(*args, grid=ctx.grid, keep_auc=True)
        else:
            report = tracer.call("simulate.run_campaign", ctx.rr.run_campaign, *args,
                                 grid=ctx.grid, keep_auc=True)
        end = clock()
    except RuntimeError as exc:
        print(f"chunk with scenario seed {scenario.seed} failed: {exc}", file=sys.stderr)
        phase.failed_reps += spec.chunk
        return None
    finally:
        patches.undo()
    bounds = stamps + [end]
    phase.add(scenario, report, (1e3 * (b - a) for a, b in zip(bounds, bounds[1:])))
    return report


def run_campaign_workload(name: str, seed: int, seconds: float, trace: bool,
                          out_dir: Path) -> dict:
    """Chunks of replications until ``seconds`` have passed. A traced run
    replays each chunk traced right after its untraced run."""
    spec = CAMPAIGNS[name]
    ctx, setup_times = timed_setups(lambda: campaign_setup(spec, seed))
    plain, traced = Phase(), Phase()
    tracer = Tracer() if trace else None
    replay_same = True
    chunk = 0
    start = clock()
    while clock() - start < seconds:
        scenario = ctx.rr.ScenarioSpec(model=ctx.kind, n_D=N_PER_GROUP, n_H=N_PER_GROUP,
                                       seed=derived_seed(seed, TAG_TIMED, chunk))
        chunk += 1
        report = run_chunk(spec, ctx, scenario, plain)
        if tracer is not None:
            replayed = run_chunk(spec, ctx, scenario, traced, tracer)
            replay_same = replay_same and same_scores(report, replayed, ctx.variants)
    wall_s = clock() - start

    checks = spec.check(ctx, plain) if plain.first is not None else [
        Check("at least one chunk completes", False)]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "rep_ms": statistics.median(plain.rep_ms),
            "reps_per_s": len(plain.rep_ms) / wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    else:
        checks.append(Check("traced replay reproduces every untraced MSE and KS",
                            replay_same))
        metrics = layer_metrics(tracer, len(traced.rep_ms))
        metrics.update(overhead(plain.rep_ms, traced.rep_ms))
        metrics.update({"datasets.write_dataset_ms": 0.0,
                        "cli.fit_cmd_s": 0.0, "cli.roc_cmd_s": 0.0})
        tracer.write_csv(out_dir / f"trace-{name}-seed{seed}.csv")
        units = PER_LAYER_UNITS
    failed = plain.failed_reps + traced.failed_reps
    attempted = len(plain.rep_ms) + len(traced.rep_ms) + failed
    return result(checks, attempted, failed, metrics, units)


def same_scores(report, replayed, variants: list) -> bool:
    return report is not None and replayed is not None and all(
        np.array_equal(report.variants[v].mse, replayed.variants[v].mse)
        and np.array_equal(report.variants[v].ks, replayed.variants[v].ks)
        for v in variants)


def overhead(untraced_ms: list, traced_ms: list) -> dict:
    """Median of the paired differences, traced minus untraced, of units run
    on the same inputs one after the other."""
    diff = statistics.median(t - u for u, t in zip(untraced_ms, traced_ms))
    return {"trace.overhead_ms": diff,
            "trace.overhead_pct": 100.0 * diff / statistics.median(untraced_ms)}


# --------------------------------------------------------------------------
# In-process command-line analysis of the synthetic study

COMMANDS = (("fit", "robust"), ("roc", "robust"), ("fit", "classical"))
INI = "[model]\ntransform = neg_inv_sqrt\n"


@dataclass
class CliContext:
    cli: object
    csv_path: Path
    ini_path: Path
    out_dir: Path
    cli_seed: int
    outliers: np.ndarray
    write_s: float

    def argv(self, command: str, variant: str) -> list:
        return [command, str(self.csv_path), "--config", str(self.ini_path),
                "--variant", variant, "--seed", str(self.cli_seed),
                "--out", str(self.out_dir / f"{command}_{variant}")]


def cli_setup(seed: int, out_dir: Path) -> CliContext:
    rr = fresh_import()
    cli = importlib.import_module("robustroc.cli")
    study = rr.make_synthetic_study(seed=derived_seed(seed, TAG_STUDY))
    work = out_dir / "cli_study"
    work.mkdir(parents=True, exist_ok=True)
    csv_path, ini_path = work / "study.csv", work / "run.ini"
    start = clock()
    rr.write_dataset(csv_path, study.diseased, study.healthy)
    write_s = clock() - start
    ini_path.write_text(INI)
    ctx = CliContext(cli, csv_path, ini_path, work, derived_seed(seed, TAG_STUDY, 1),
                     np.asarray(study.healthy_outlier_indices), write_s)
    warm = ctx.argv("fit", "robust")
    warm[-1] = str(work / "warmup")
    if cli.main(warm) != 0:
        raise RuntimeError("warm-up fit failed")
    return ctx


def strict_json(path: Path):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(path.read_text(), parse_constant=reject)


def read_csv_matrix(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(c) for c in row] for row in rows[1:]])


def check_outputs(ctx: CliContext) -> list:
    fit_r = ctx.out_dir / "fit_robust"
    roc_r = ctx.out_dir / "roc_robust"
    fit_c = ctx.out_dir / "fit_classical"

    def outliers_rejected():
        weights = np.array(json.loads((fit_r / "fit_report.json").read_text())
                           ["healthy"]["weights"])
        return bool(np.all(weights[ctx.outliers] == 0.0))

    def classical_flags_none():
        report = json.loads((fit_c / "fit_report.json").read_text())
        return not report["healthy"]["flagged_outliers"] and \
            not report["diseased"]["flagged_outliers"]

    def surface_valid():
        _, table = read_csv_matrix(roc_r / "roc_surface.csv")
        values = table[:, 1:]
        return bool(np.all((values >= 0.0) & (values <= 1.0))
                    and np.all(np.diff(values, axis=1) >= 0.0))

    def auc_is_trapezoid():
        header, table = read_csv_matrix(roc_r / "roc_surface.csv")
        _, auc = read_csv_matrix(roc_r / "auc_curve.csv")
        p = np.concatenate([[0.0], [float(c) for c in header[1:]], [1.0]])
        values = np.column_stack([np.zeros(len(table)), table[:, 1:],
                                  np.ones(len(table))])
        mine = np.trapezoid(values, p, axis=1)
        return bool(np.array_equal(auc[:, 0], table[:, 0])
                    and np.max(np.abs(auc[:, 1] - mine)) <= 1e-12)

    def parses(path):
        return lambda: strict_json(path) is not None

    tests = [
        ("robust fit gives every injected healthy outlier weight 0", outliers_rejected, False),
        ("classical fit flags no outlier", classical_flags_none, False),
        ("roc_surface.csv lies in [0, 1] and is non-decreasing in p", surface_valid, False),
        ("auc_curve.csv is the anchored trapezoid of the surface", auc_is_trapezoid, False),
        ("robust fit_report.json is strict JSON", parses(fit_r / "fit_report.json"), False),
        ("roc_meta.json is strict JSON", parses(roc_r / "roc_meta.json"), False),
        # t_n and t_bar_n of a plain ECDF are written as Infinity
        ("classical fit_report.json is strict JSON", parses(fit_c / "fit_report.json"), True),
    ]
    checks = []
    for name, test, known in tests:
        try:
            ok = test()
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            name, ok = f"{name}: {exc}", False
        checks.append(Check(name, ok, known))
    return checks


def clear_outputs(ctx: CliContext) -> None:
    for command, variant in COMMANDS:
        for path in (ctx.out_dir / f"{command}_{variant}").glob("*"):
            path.unlink()


def cli_round(ctx: CliContext, tracer: Optional[Tracer] = None) -> tuple:
    """Robust fit, robust roc and classical fit; returns the seconds each
    command took and the checks of the exit codes and outputs."""
    patches = Patches()
    if tracer is not None:
        install_tracer(tracer, patches, ctx.cli)
    main = ctx.cli.main
    clear_outputs(ctx)
    took, checks = [], []
    try:
        for command in COMMANDS:
            argv = ctx.argv(*command)
            start = clock()
            if tracer is None:
                code = main(argv)
            else:
                tracer.next_unit()
                code = tracer.call("cli.main", main, argv)
            took.append(clock() - start)
            checks.append(Check(f"{' '.join(command)} exits with 0", code == 0))
    finally:
        patches.undo()
    return took, checks + check_outputs(ctx)


def run_cli_workload(seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Rounds until ``seconds`` of command time have passed. A traced run
    repeats each round traced right after its untraced run."""
    ctx, setup_times = timed_setups(lambda: cli_setup(seed, out_dir))
    tracer = Tracer() if trace else None
    plain, traced, checks = [], [], []
    while sum(map(sum, plain + traced)) < seconds:
        took, round_checks = cli_round(ctx)
        plain.append(took)
        checks += round_checks
        if tracer is not None:
            took, round_checks = cli_round(ctx, tracer)
            traced.append(took)
            checks += round_checks
    round_ms = [1e3 * sum(took) for took in plain]
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "rep_ms": statistics.median(round_ms),
            "reps_per_s": len(round_ms) / (1e-3 * sum(round_ms)),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    else:
        metrics = layer_metrics(tracer, len(COMMANDS) * len(traced))
        metrics.update(overhead(round_ms, [1e3 * sum(took) for took in traced]))
        metrics["datasets.write_dataset_ms"] = 1e3 * ctx.write_s
        metrics["cli.fit_cmd_s"] = statistics.median(
            took[COMMANDS.index(("fit", "robust"))] for took in plain)
        metrics["cli.roc_cmd_s"] = statistics.median(
            took[COMMANDS.index(("roc", "robust"))] for took in plain)
        tracer.write_csv(out_dir / f"trace-cli_study-seed{seed}.csv")
        units = PER_LAYER_UNITS
    return result(checks, 0, 0, metrics, units)


WORKLOADS = (*CAMPAIGNS, "cli_study")


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    if name == "cli_study":
        return run_cli_workload(seed, seconds, trace, out_dir)
    return run_campaign_workload(name, seed, seconds, trace, out_dir)
