"""Tests for the module library loader and the composition catalog."""

import pytest

from repro.errors import CompileError
from repro.frontend.json_ir import dump_module, load_module
from repro.lib.catalog import (
    COMPOSITIONS,
    EXTRA_COMPOSITIONS,
    MODULE_MATRIX,
    MODULES,
    PROGRAMS,
    build_monolithic,
    build_pipeline,
    composition_matrix,
    link_composition,
)
from repro.lib.loader import compile_library_module, list_sources, load_module_source


class TestLoader:
    def test_lists_modules(self):
        names = list_sources("modules")
        for expected in ("eth", "ipv4", "ipv6", "acl", "mpls", "nat",
                         "nptv6", "srv4", "srv6", "vlan"):
            assert expected in names

    def test_lists_monolithic(self):
        assert list_sources("monolithic") == [
            "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8",
        ]

    def test_source_text(self):
        text = load_module_source("ipv4")
        assert "program IPv4" in text

    def test_unknown_source_names_alternatives(self):
        with pytest.raises(CompileError) as exc:
            load_module_source("quic")
        assert "ipv4" in str(exc.value)

    def test_compile_cached(self):
        a = compile_library_module("ipv4")
        b = compile_library_module("ipv4")
        assert a is b

    def test_loader_and_driver_are_one_frontend(self, monkeypatch):
        """A module with a header stack comes out of the loader lowered,
        as the driver's front-end gives it — and is the driver's very
        object, so catalog recipes and ``repro compile`` share modules."""
        from repro.core.driver import Up4Compiler
        from repro.lib import loader
        from repro.midend.hdr_stack import has_header_stacks
        from tests.midend.test_hdr_stack import SRC as STACK_SRC

        monkeypatch.setattr(
            loader, "load_module_source", lambda name, kind="modules": STACK_SRC
        )
        loaded = compile_library_module("stacked")
        assert not has_header_stacks(loaded.source)
        driven = Up4Compiler().frontend(STACK_SRC, "stacked.up4")
        assert dump_module(loaded) == dump_module(driven)
        assert loaded is driven

    @pytest.mark.parametrize("name", sorted(set(
        module for recipe in COMPOSITIONS.values() for module in recipe
    )))
    def test_every_module_compiles(self, name):
        module = compile_library_module(name)
        assert module.programs

    @pytest.mark.parametrize("name", ["eth", "ipv4", "srv6", "mpls"])
    def test_library_ir_roundtrips(self, name):
        module = compile_library_module(name)
        restored = load_module(dump_module(module))
        assert set(restored.programs) == set(module.programs)


class TestCatalog:
    def test_program_list(self):
        assert PROGRAMS == ["P1", "P2", "P3", "P4", "P5", "P6", "P7"]
        assert "P8" in EXTRA_COMPOSITIONS

    def test_matrix_consistent_with_modules(self):
        assert set(MODULE_MATRIX) == set(MODULES)
        for module in MODULES:
            assert set(MODULE_MATRIX[module]) == set(PROGRAMS)

    def test_matrix_renders_all_rows(self):
        text = composition_matrix()
        for module in MODULES:
            assert module in text
        assert text.count("✓") == sum(
            1 for m in MODULES for p in PROGRAMS if MODULE_MATRIX[m][p]
        )

    def test_unknown_composition_rejected(self):
        with pytest.raises(CompileError):
            link_composition("P99")
        with pytest.raises(CompileError):
            build_monolithic("P99")

    def test_extension_composition_builds(self):
        composed = build_pipeline("P8")
        assert composed.region.extract_length == 58  # eth+vlan+ipv6

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_regions_consistent(self, name):
        """El must cover eth (14) plus the largest L3 chain."""
        composed = build_pipeline(name)
        assert composed.region.extract_length >= 54
        assert composed.byte_stack_size >= composed.region.extract_length
        assert composed.region.min_packet_size == 14


class TestModuleEncapsulation:
    """Modules must not leak names into each other (paper's C1)."""

    def test_no_shared_type_names_collide_at_link(self):
        # Every leaf module declares its own ipv4 header type under a
        # unique name; linking all of them together must not clash.
        for name in PROGRAMS:
            link_composition(name)  # raises on duplicate providers

    def test_composed_variables_disjoint_per_instance(self):
        composed = build_pipeline("P1")
        hdr_vars = [v for v in composed.variables if v.endswith("_hdr")]
        assert len(hdr_vars) == len(set(hdr_vars))
        assert any("acl_i" in v for v in hdr_vars)
        assert any("ipv4_i" in v for v in hdr_vars)
