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


def test_import_leaves_out_scipy_stats():
    # scipy.stats dominates a cold start; the normal CDF and quantile come
    # from scipy.special and the trapezoid rule from numpy
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(robustroc.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, robustroc; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', "
            "'scipy.integrate'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
