"""Dataset CSV I/O and the synthetic glucose-style study generator."""
import numpy as np
import pytest

from robustroc import (
    DatasetFormatError,
    Group,
    PopulationSample,
    ScenarioKind,
    ScenarioSpec,
    generate,
    make_synthetic_study,
    read_dataset,
    transform_marker,
    write_dataset,
)


def _pair():
    rng = np.random.default_rng(1)
    d = PopulationSample(Group.DISEASED, rng.standard_normal(10),
                         rng.uniform(-1, 1, 10))
    h = PopulationSample(Group.HEALTHY, rng.standard_normal(8),
                         rng.uniform(-1, 1, 8))
    return d, h


class TestRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        d, h = _pair()
        path = tmp_path / "data.csv"
        write_dataset(path, d, h)
        d2, h2 = read_dataset(path)
        np.testing.assert_array_equal(d2.y, d.y)
        np.testing.assert_array_equal(d2.x, d.x)
        np.testing.assert_array_equal(h2.y, h.y)
        np.testing.assert_array_equal(h2.x, h.x)

    def test_scenario_dataset(self, tmp_path):
        path = tmp_path / "sim.csv"
        write_dataset(path, *generate(ScenarioSpec(ScenarioKind.LINEAR, 20, 30, seed=2)))
        d, h = read_dataset(path)
        assert d.n == 20 and h.n == 30


class TestParseErrors:
    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("D,1.0,0.5\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            read_dataset(p)

    def test_bad_group_token(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,y,x1\nD,1.0,0.5\nZ,2.0,0.5\nH,1.0,0.1\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            read_dataset(p)

    def test_missing_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,y,x1\nD,1.0\nH,1.0,0.1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(p)

    def test_non_numeric_cell(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,y,x1\nD,abc,0.5\nH,1.0,0.1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(p)

    def test_single_group_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,y,x1\nD,1.0,0.5\nD,2.0,0.6\n")
        with pytest.raises(DatasetFormatError, match="both groups"):
            read_dataset(p)

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("group,y,x1\nD,inf,0.5\nH,1.0,0.1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            read_dataset(p)


class TestSyntheticStudy:
    def test_structure(self):
        study = make_synthetic_study(seed=0)
        assert study.healthy.n == 198
        assert study.diseased.n == 88
        assert study.healthy_outlier_indices.size == 6
        assert np.all(study.healthy.y > 0) and np.all(study.diseased.y > 0)
        assert np.all((study.healthy.x >= 20) & (study.healthy.x <= 88))

    def test_outliers_are_gross_on_transformed_scale(self):
        study = make_synthetic_study(seed=0)
        z = transform_marker(study.healthy.y)
        x = study.healthy.x[:, 0]
        # crude clean-line reference from the non-outlier points
        mask = np.ones(198, dtype=bool)
        mask[study.healthy_outlier_indices] = False
        coef = np.polynomial.polynomial.polyfit(x[mask], z[mask], 1)
        resid = z - (coef[0] + coef[1] * x)
        scale = np.std(resid[mask])
        assert np.all(np.abs(resid[study.healthy_outlier_indices]) > 5 * scale)

    def test_deterministic(self):
        a = make_synthetic_study(seed=5)
        b = make_synthetic_study(seed=5)
        np.testing.assert_array_equal(a.healthy.y, b.healthy.y)
        np.testing.assert_array_equal(a.healthy_outlier_indices,
                                      b.healthy_outlier_indices)
