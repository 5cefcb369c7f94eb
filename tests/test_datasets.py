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

    def test_cells_parse_as_float_does(self, tmp_path):
        # every cell is float(cell), bit for bit, whatever its spelling; blank
        # lines are skipped and tags may carry spaces
        rows = [(" D ", "1", "-0.0", "1e-320"),
                ("H", "  3.25", "+7", "1.7976931348623157e308"),
                ("D", "5e-324", "12345678901234567890", "-2.5E-3 "),
                ("H ", "0.1", "1_000", "-1e300")]
        path = tmp_path / "data.csv"
        path.write_text("group,y,x1,x2\n\n" + "\n\n".join(
            ",".join(row) for row in rows) + "\n\n")
        d, h = read_dataset(path)
        for sample, tag in ((d, "D"), (h, "H")):
            cells = [[float(c) for c in row[1:]] for row in rows
                     if row[0].strip() == tag]
            oracle = np.array(cells)
            assert sample.y.tobytes() == oracle[:, 0].tobytes()
            assert sample.x.tobytes() == np.ascontiguousarray(oracle[:, 1:]).tobytes()
            assert sample.x.shape == (2, 2)

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

    def test_nan_rejected_with_its_line(self, tmp_path):
        # the blank line 3 counts: the nan is on line 4
        p = tmp_path / "bad.csv"
        p.write_text("group,y,x1\nD,1.0,0.5\n\nH,0.2,nan\nH,1.0,0.1\n")
        with pytest.raises(DatasetFormatError,
                           match="^line 4: non-finite value$"):
            read_dataset(p)

    def test_first_bad_line_wins(self, tmp_path):
        # a non-finite row before a non-numeric one: the error names line 2
        p = tmp_path / "bad.csv"
        p.write_text("group,y,x1\nD,inf,0.5\nH,abc,0.1\n")
        with pytest.raises(DatasetFormatError,
                           match="^line 2: non-finite value$"):
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
