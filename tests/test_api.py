"""The package's public names."""
import robustroc


def test_all_has_no_duplicates():
    assert len(robustroc.__all__) == len(set(robustroc.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in robustroc.__all__ if not hasattr(robustroc, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from robustroc import *", namespace)
    assert set(robustroc.__all__) <= set(namespace)


def _loaded_after_import(expression):
    """The value of expression, printed by a fresh interpreter that ran
    `import sys, robustroc` from this source tree."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(robustroc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, robustroc; print({expression})"
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def test_import_leaves_out_scipy_stats():
    # scipy.stats dominates a cold start; the normal CDF and quantile come
    # from scipy.special and the trapezoid rule from numpy
    assert _loaded_after_import(
        "sorted(m for m in sys.modules if m.startswith(('scipy.stats', "
        "'scipy.integrate')))") == "[]"


def test_import_leaves_out_cli():
    # the command line and its parser cost nothing until a command runs
    assert _loaded_after_import("'robustroc.cli' in sys.modules") == "False"


def test_names_the_benchmark_looks_up():
    # perfbench/workloads.py builds its workloads from these names and wraps
    # its timing spans around the functions where their callers look them up:
    # the campaign's steps on robustroc.simulate, the commands' steps on
    # robustroc.cli, and m_scale on robustroc.robust. The tracer skips a
    # caller's name that is gone without an error, so a simplification that
    # moved one would silently blind the benchmark's per-layer metrics.
    import robustroc.cli
    import robustroc.robust
    import robustroc.simulate

    assert callable(robustroc.robust.m_scale)
    for name in ("generate", "fit_mm_linear", "fit_mm_nonlinear", "fit_least_squares",
                 "standardized_residuals", "build_weighted_ecdf", "plain_ecdf",
                 "roc_surface", "auc_curve", "true_surface", "mse_metric", "ks_metric"):
        assert callable(getattr(robustroc.simulate, name)), name
    for name in ("main", "cmd_fit", "cmd_roc", "load_config", "read_dataset",
                 "write_surface_csv"):
        assert callable(getattr(robustroc.cli, name)), name
    kind = robustroc.ScenarioKind("nonlinear")
    assert robustroc.ScenarioSpec(model=kind).model is kind
    assert robustroc.default_grids(kind).x_grid.size == 21
