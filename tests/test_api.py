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
