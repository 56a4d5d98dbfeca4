"""Scenario manifests: parsing, grid expansion, and registry install."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    SCENARIO_REGISTRY,
    DatasetSpec,
    available_manifests,
    install_manifest,
    loads_manifest,
    parse_manifest,
    resolve_manifest,
    scenario_spec,
)
from repro.data.manifest import SUITE_MANIFEST
from repro.errors import ManifestError

#: Golden spec digests captured from the hand-written registry this
#: manifest replaced — the bit-for-bit compatibility contract.
LEGACY_DIGESTS = {
    "default": "33190fcb6023c929",
    "dense-pop": "edae65e934e6c2e3",
    "divergent": "1f1e0ddd5c969d6a",
    "long-read-heavy": "48ceabb9196b7276",
    "sv-rich": "7994289f619b72d0",
}


@pytest.fixture(autouse=True)
def _registry_snapshot():
    """Installing manifests mutates the global scenario registry;
    restore it so these tests can't leak cells into others."""
    saved = dict(SCENARIO_REGISTRY)
    yield
    SCENARIO_REGISTRY.clear()
    SCENARIO_REGISTRY.update(saved)


class TestSuiteManifest:
    def test_committed(self):
        assert SUITE_MANIFEST in available_manifests()

    def test_expands_to_exactly_the_five_legacy_scenarios(self):
        manifest = resolve_manifest(SUITE_MANIFEST)
        assert manifest.cell_names() == tuple(LEGACY_DIGESTS)

    def test_legacy_corpora_bit_for_bit(self):
        """Each cell's spec digest equals the digest the hand-written
        registration produced — same content hash, same corpus bytes,
        same artifact-store and result-cache keys."""
        manifest = resolve_manifest(SUITE_MANIFEST)
        for name, digest in LEGACY_DIGESTS.items():
            assert manifest.cell(name).digest() == digest, name

    def test_registry_is_a_view_over_the_manifest(self):
        """The import-time registry resolves identically to the
        manifest it expanded from."""
        manifest = resolve_manifest(SUITE_MANIFEST)
        for name in LEGACY_DIGESTS:
            assert scenario_spec(name).digest() == \
                manifest.cell(name).digest()

    def test_default_cell_is_paper_fidelity(self):
        manifest = resolve_manifest(SUITE_MANIFEST)
        assert manifest.cell("default").fidelity == "paper"
        assert [c.name for c in manifest.paper_cells()] == ["default"]


class TestMatrixManifest:
    def test_committed_grid_shape(self):
        """The acceptance floor: >= 48 cells across >= 4 axes."""
        manifest = resolve_manifest("matrix")
        assert len(manifest.axes) >= 4
        assert len(manifest) >= 48
        expected = 1
        for _axis, levels in manifest.axes:
            expected *= len(levels)
        assert len(manifest) == expected

    def test_axis_order_names_cells(self):
        manifest = resolve_manifest("matrix")
        order = [axis for axis, _ in manifest.axes]
        assert order == ["population", "divergence", "sv", "reads"]
        first = manifest.cells[0]
        assert first.name == "-".join(level for _, level in first.axes)
        assert [axis for axis, _ in first.axes] == order

    def test_all_digests_distinct(self):
        manifest = resolve_manifest("matrix")
        assert len(manifest.digest_set()) == len(manifest)

    def test_paper_cell_reproduces_default_parameters(self):
        """The all-paper-levels grid cell is the default corpus under a
        different scenario name."""
        manifest = resolve_manifest("matrix")
        (paper,) = manifest.paper_cells()
        assert paper.name == "pop8-div1x-sv1x-short"
        renamed = dataclasses.replace(paper.spec(), scenario="default")
        assert renamed.digest() == LEGACY_DIGESTS["default"]

    def test_rate_scale_composes_across_axes(self):
        manifest = resolve_manifest("matrix")
        base = DatasetSpec().rates
        cell = manifest.cell("pop16-div2x-sv8x-long")
        spec = cell.spec()
        assert spec.n_haplotypes == 16
        assert spec.rates.snp == pytest.approx(2 * base.snp)
        assert spec.rates.inversion == pytest.approx(8 * base.inversion)
        assert spec.rates.sv_mean_length == 240.0
        assert spec.long_reads == 30


MINIMAL = """
[manifest]
name = "mini"
axis_order = ["pop", "div"]

[axes.pop.p4]
n_haplotypes = 4
[axes.pop.p8]
fidelity = "paper"

[axes.div.d1]
fidelity = "paper"
[axes.div.d2]
rate_scale = {snp = 2.0}
"""


class TestParsing:
    def test_grid_expansion(self):
        manifest = loads_manifest(MINIMAL)
        assert manifest.cell_names() == ("p4-d1", "p4-d2", "p8-d1", "p8-d2")
        assert manifest.cell("p4-d2").spec().n_haplotypes == 4
        base = DatasetSpec().rates.snp
        assert manifest.cell("p4-d2").spec().rates.snp == \
            pytest.approx(2 * base)

    def test_grid_fidelity_needs_every_level_paper(self):
        manifest = loads_manifest(MINIMAL)
        assert manifest.cell("p8-d1").fidelity == "paper"
        for name in ("p4-d1", "p4-d2", "p8-d2"):
            assert manifest.cell(name).fidelity == "bench"

    def test_explicit_cells_alongside_axes(self):
        manifest = loads_manifest(MINIMAL + """
[cells.special]
n_haplotypes = 24
""")
        assert "special" in manifest.cell_names()
        assert manifest.cell("special").spec().n_haplotypes == 24
        assert manifest.cell("special").axes == ()

    def test_duplicate_cell_name_raises(self):
        with pytest.raises(ManifestError, match="duplicate cell"):
            loads_manifest(MINIMAL + """
[cells.p4-d1]
n_haplotypes = 24
""")

    def test_cross_axis_field_conflict_raises(self):
        with pytest.raises(ManifestError, match="both set"):
            loads_manifest("""
[manifest]
name = "conflict"
[axes.a.x]
n_haplotypes = 4
[axes.b.y]
n_haplotypes = 8
""")

    def test_absolute_and_scaled_rate_conflict_raises(self):
        with pytest.raises(ManifestError, match="absolutely and"):
            loads_manifest("""
[manifest]
name = "conflict"
[axes.a.x]
rates = {snp = 0.01}
[axes.b.y]
rate_scale = {snp = 2.0}
""")

    @pytest.mark.parametrize("text, match", [
        ("[axes.pop.p4]\nn_haplotypes = 4", "needs a string 'name'"),
        ("[manifest]\nname = 'x'", "neither axes nor cells"),
        ("[manifest]\nname = 'x'\n[axes.pop]", "has no levels"),
        ("[manifest]\nname = 'x'\n[cells.c]\nbogus_key = 1", "unknown key"),
        ("[manifest]\nname = 'x'\n[cells.c]\nfidelity = 'gold'",
         "fidelity must be"),
        ("[manifest]\nname = 'x'\n[cells.c]\nrates = {bogus = 1.0}",
         "unknown rate field"),
        ("[manifest]\nname = 'x'\n[cells.c]\nrate_scale = {snp = 'big'}",
         "must be a number"),
        ("[manifest]\nname = 'x'\n[cells.c]\nn_haplotypes = 0",
         "invalid spec"),
        ("[manifest]\nname = 'x'\naxis_order = ['a']\n[axes.a.x]\n"
         "[axes.b.y]\nn_haplotypes = 4", "axis_order"),
        ("[manifest]\nname = 'x'\n[wat]\nkey = 1", "unknown section"),
    ])
    def test_malformed_manifests_raise(self, text, match):
        with pytest.raises(ManifestError, match=match):
            loads_manifest(text)

    def test_invalid_toml_raises_manifest_error(self):
        with pytest.raises(ManifestError, match="invalid TOML"):
            loads_manifest("[broken")

    def test_resolve_unknown_name(self):
        with pytest.raises(ManifestError, match="unknown manifest"):
            resolve_manifest("no-such-manifest")


class TestInstall:
    def test_install_is_idempotent(self):
        before = dict(SCENARIO_REGISTRY)
        install_manifest(SUITE_MANIFEST)
        assert dict(SCENARIO_REGISTRY) == before

    def test_install_adds_cells(self):
        install_manifest(loads_manifest(MINIMAL))
        assert scenario_spec("p4-d2").n_haplotypes == 4
        assert SCENARIO_REGISTRY["p8-d1"].fidelity == "paper"
        assert dict(SCENARIO_REGISTRY["p8-d1"].axes) == {"pop": "p8", "div": "d1"}

    def test_name_collision_with_different_content_raises(self):
        with pytest.raises(ManifestError, match="collides"):
            install_manifest(loads_manifest("""
[manifest]
name = "evil"
[cells.default]
n_haplotypes = 24
"""))


# -- property tests: expansion is deterministic and order-independent --

#: Each axis overrides a distinct DatasetSpec field and scales a
#: distinct rate, so any cross-product composes without conflicts.
AXIS_FIELDS = (
    ("n_haplotypes", st.integers(2, 24), "snp"),
    ("short_reads", st.integers(1, 90), "inversion"),
    ("long_reads", st.integers(1, 40), "deletion"),
)

_level_names = st.lists(
    st.text(alphabet="abcdefghij", min_size=1, max_size=4),
    min_size=1, max_size=3, unique=True,
)


@st.composite
def manifest_payloads(draw):
    n_axes = draw(st.integers(1, 3))
    axes = {}
    for index in range(n_axes):
        field, values, rate = AXIS_FIELDS[index]
        levels = {}
        for level_name in draw(_level_names):
            body = {field: draw(values)}
            if draw(st.booleans()):
                body["rate_scale"] = {
                    rate: draw(st.floats(0.5, 4.0, allow_nan=False))
                }
            levels[f"{field[0]}{index}{level_name}"] = body
        axes[f"axis{index}"] = levels
    return {"manifest": {"name": "prop"}, "axes": axes}


def _reordered(payload):
    """The same payload with every table's key insertion order reversed
    (dicts preserve insertion order, so this simulates a reordered TOML
    file)."""
    if isinstance(payload, dict):
        return {key: _reordered(payload[key]) for key in reversed(payload)}
    return payload


@settings(max_examples=25, deadline=None)
@given(payload=manifest_payloads())
def test_expansion_deterministic_and_order_independent(payload):
    first = parse_manifest(payload)
    again = parse_manifest(payload)
    reordered = parse_manifest(_reordered(payload))
    expected = 1
    for levels in payload["axes"].values():
        expected *= len(levels)
    assert len(first) == expected
    # Determinism: same payload, same cells and digests, in order.
    assert again.cell_names() == first.cell_names()
    assert [c.digest() for c in again.cells] == \
        [c.digest() for c in first.cells]
    # Order-independence: table order changes neither the name set nor
    # the content identity (canonical axis order names the cells).
    assert set(reordered.cell_names()) == set(first.cell_names())
    assert reordered.digest_set() == first.digest_set()
    for cell in first.cells:
        assert reordered.cell(cell.name).digest() == cell.digest()


@settings(max_examples=25, deadline=None)
@given(payload=manifest_payloads())
def test_expanded_digests_are_distinct_per_cell(payload):
    manifest = parse_manifest(payload)
    assert len(manifest.digest_set()) == len(manifest)
