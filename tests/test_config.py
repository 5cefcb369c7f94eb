"""INI run-configuration parsing."""
import pytest

from robustroc import ConfigError, Family, RunConfig, Variant, WeightKind, load_config
from robustroc.simulate import ContaminationKind
from robustroc.models import ScenarioKind


FULL = """
[model]
family = linear

[fit]
variant = robust
n_subsamples = 100
tol = 1e-6

[weights]
eta = 3.0
kind = smooth

[grids]
p_count = 50
x_min = -1.0
x_max = 1.0

[output]
out_dir = results
seed = 42

[simulate]
scenario = linear
n_rep = 10
contamination = shift_both
delta = 0.05
keep_auc = true
"""


def _write(tmp_path, text):
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


class TestLoadConfig:
    def test_full_config(self, tmp_path):
        cfg = load_config(_write(tmp_path, FULL))
        assert cfg.family is Family.LINEAR
        assert cfg.variant is Variant.ROBUST
        assert cfg.mm.n_subsamples == 100
        assert cfg.mm.tol == 1e-6
        assert cfg.eta == 3.0
        assert cfg.weight_kind is WeightKind.SMOOTH_POLYNOMIAL
        assert cfg.p_count == 50
        assert cfg.seed == 42
        assert cfg.contamination is ContaminationKind.SHIFT_BOTH
        assert cfg.delta == 0.05
        assert cfg.keep_auc is True
        assert str(cfg.out_dir) == "results"

    def test_defaults(self, tmp_path):
        cfg = load_config(_write(tmp_path, "[output]\nseed = 1\n"))
        assert cfg.variant is Variant.ROBUST
        assert cfg.eta == 2.5
        assert cfg.n_rep == 200
        assert cfg.scenario is ScenarioKind.LINEAR

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(_write(tmp_path, "[nonsense]\nfoo = 1\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(_write(tmp_path, "[weights]\netaa = 2.5\n"))

    def test_bad_enum_value(self, tmp_path):
        with pytest.raises(ConfigError, match="is not one of"):
            load_config(_write(tmp_path, "[fit]\nvariant = bogus\n"))

    def test_custom_weight_kind_rejected(self, tmp_path):
        # a custom weight function has no name to load it by
        with pytest.raises(ConfigError, match=r"\[weights\] kind"):
            load_config(_write(tmp_path, "[weights]\nkind = custom\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot parse"):
            load_config(_write(tmp_path, "[weights]\neta = two\n"))

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ConfigError, match="boolean"):
            load_config(_write(tmp_path, "[simulate]\nkeep_auc = maybe\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.ini")

    def test_scheme_helpers(self, tmp_path):
        cfg = load_config(_write(tmp_path, FULL))
        spec = cfg.scenario_spec()
        assert spec.seed == 42 and spec.n_D == 100
        scheme = cfg.contamination_scheme()
        assert scheme.kind is ContaminationKind.SHIFT_BOTH

    def test_default_runconfig_consistent(self):
        cfg = RunConfig()
        assert cfg.contamination is ContaminationKind.NONE
        assert cfg.delta == 0.0
