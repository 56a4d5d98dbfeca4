"""DatasetSpec content hashing and the scenario registry."""

import dataclasses

import pytest

from repro.data import (
    SCENARIO_REGISTRY,
    DatasetSpec,
    ManifestCell,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_spec,
)
from repro.errors import DatasetError


class TestSpec:
    def test_digest_stable(self):
        assert DatasetSpec().digest() == DatasetSpec().digest()

    def test_every_corpus_parameter_changes_the_digest(self):
        base = DatasetSpec()
        for change in (
            {"scale": 0.5},
            {"seed": 1},
            {"scenario": "other"},
            {"genome_length": 10_000},
            {"n_haplotypes": 4},
            {"rates": dataclasses.replace(base.rates, snp=0.01)},
            {"short_reads": 10},
            {"long_reads": 4},
            {"long_read_length": 900},
            {"held_out_divergence": 3.0},
            {"tsu_error_rate": 0.05},
        ):
            changed = dataclasses.replace(base, **change)
            assert changed.digest() != base.digest(), change

    def test_generator_version_in_key(self):
        from repro.data import GENERATOR_VERSION

        assert DatasetSpec().key()["generator_version"] == GENERATOR_VERSION

    def test_with_run_axes(self):
        spec = scenario_spec("divergent").with_run_axes(0.5, 3)
        assert spec.scale == 0.5 and spec.seed == 3
        assert spec.scenario == "divergent"
        assert spec.tsu_error_rate == 0.02  # overrides survive re-axing

    def test_validation(self):
        with pytest.raises(DatasetError):
            DatasetSpec(scale=0)
        with pytest.raises(DatasetError):
            DatasetSpec(genome_length=-1)
        with pytest.raises(DatasetError):
            DatasetSpec(n_haplotypes=0)


class TestScenarios:
    def test_five_scenarios_registered(self):
        names = scenario_names()
        assert len(names) >= 5
        assert {"default", "dense-pop", "divergent", "long-read-heavy",
                "sv-rich"} <= set(names)

    def test_each_scenario_yields_a_distinct_corpus(self):
        digests = {name: scenario_spec(name).digest()
                   for name in scenario_names()}
        assert len(set(digests.values())) == len(digests)

    def test_scenario_axes_match_papers(self):
        assert scenario_spec("dense-pop").n_haplotypes > \
            scenario_spec("default").n_haplotypes
        assert scenario_spec("divergent").rates.snp == \
            pytest.approx(2 * scenario_spec("default").rates.snp)
        assert scenario_spec("long-read-heavy").long_read_length > \
            scenario_spec("default").long_read_length
        assert scenario_spec("sv-rich").rates.inversion > \
            scenario_spec("default").rates.inversion

    def test_unknown_scenario_rejected(self):
        with pytest.raises(DatasetError):
            get_scenario("nope")

    def test_unknown_scenario_message_lists_sorted_names(self):
        with pytest.raises(DatasetError, match="unknown scenario") as info:
            scenario_spec("nope")
        message = str(info.value)
        listed = message.split("known: ", 1)[1].split(", ")
        assert listed == sorted(listed)
        assert "default" in listed

    @pytest.mark.parametrize("scale", [0, -1, -0.5])
    def test_non_positive_scale_rejected_naming_scenario(self, scale):
        with pytest.raises(DatasetError, match="'default' scale must be"):
            scenario_spec("default", scale=scale)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DatasetError):
            register_scenario(ManifestCell("default", "again"))

    def test_bad_overrides_rejected_at_registration(self):
        with pytest.raises(DatasetError):
            register_scenario(ManifestCell("broken", "bad", {"n_haplotypes": 0}))
        assert "broken" not in SCENARIO_REGISTRY
