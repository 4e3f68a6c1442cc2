"""Tests for the §8.1 trivial-MAT elision optimization."""

import pytest

from repro.backend.tna import TnaBackend
from repro.frontend import astnodes as ast
from repro.ir.visitor import walk
from repro.lib.catalog import PROGRAMS, build_pipeline
from repro.midend.optimize import OptimizationStats, elide_trivial_mats
from repro.targets.pipeline import PipelineInstance
from repro.targets.runtime_api import RuntimeAPI

from tests.integration.helpers import ENTRY_SETS, standard_corpus


def optimized_instance(name):
    composed = build_pipeline(name, optimize=True)
    instance = PipelineInstance(composed)
    api = RuntimeAPI(instance)
    for table, matches, act_micro, _, args in ENTRY_SETS[name]:
        api.add_entry(table, matches, act_micro, args)
    return instance


class TestElision:
    def test_stats_reported(self):
        composed = build_pipeline("P4")
        stats = elide_trivial_mats(composed)
        assert isinstance(stats, OptimizationStats)
        assert stats.total >= 3

    def test_dispatch_parser_mat_elided(self):
        composed = build_pipeline("P4", optimize=True)
        # The L3 dispatch module parses nothing: its parser MAT is gone.
        assert "main_l3_i_parser_tbl" not in composed.tables

    def test_single_path_leaf_parsers_gatewayed(self):
        composed = build_pipeline("P4")
        stats = elide_trivial_mats(composed)
        assert any("ipv4_i_parser" in n for n in stats.gatewayed_parser_mats)

    def test_empty_deparser_elided(self):
        composed = build_pipeline("P4", optimize=True)
        assert "main_l3_i_deparser_tbl" not in composed.tables

    def test_main_parser_kept(self):
        # The main parser extracts Ethernet and must survive (as a MAT
        # or gateway); the forwarding table is untouched.
        composed = build_pipeline("P4", optimize=True)
        assert "main_forward_tbl" in composed.tables

    def test_idempotent(self):
        composed = build_pipeline("P4", optimize=True)
        stats = elide_trivial_mats(composed)
        assert stats.total == 0

    def test_monolithic_untouched(self):
        from repro.lib.catalog import build_monolithic

        composed = build_monolithic("P4")
        before = len(composed.tables)
        stats = elide_trivial_mats(composed)
        assert stats.total == 0 and len(composed.tables) == before


class TestElisionLeavesNothingBehind:
    """The pass used to pop an elided table from ``composed.tables`` and
    leave its MAT record and its synthesized actions in place."""

    @pytest.mark.parametrize("name", ["P2", "P4", "P6"])
    def test_tables_records_and_actions_agree(self, name):
        composed = build_pipeline(name)
        tables = len(composed.tables)
        parsers = len(composed.parser_mats)
        deparsers = len(composed.deparser_mats)
        stats = elide_trivial_mats(composed)
        assert len(composed.tables) == tables - stats.total
        assert len(composed.parser_mats) == parsers - len(
            stats.elided_parser_mats
        ) - len(stats.gatewayed_parser_mats)
        assert len(composed.deparser_mats) == deparsers - len(
            stats.elided_deparser_mats
        )
        for mat in [
            *composed.parser_mats.values(),
            *composed.deparser_mats.values(),
        ]:
            assert composed.tables[mat.table.name] is mat.table
        # Every action left has a caller: a table that lists it or a
        # direct call from the control flow.
        listed = {"NoAction"}
        for table in composed.tables.values():
            listed.update(table.actions)
            listed.add(table.default_action)
        called = {
            node.target.name
            for root in [*composed.statements,
                         *(a.body for a in composed.actions.values())]
            for node in walk(root)
            if isinstance(node, ast.MethodCallExpr)
            and getattr(node, "resolved", ("",))[0] == "action"
        }
        assert set(composed.actions) <= listed | called

    def test_p4_counts(self):
        composed = build_pipeline("P4")
        assert (len(composed.tables), len(composed.actions)) == (11, 25)
        elide_trivial_mats(composed)
        assert (len(composed.tables), len(composed.actions)) == (6, 15)
        assert not composed.parser_mats

    def test_codegen_does_not_emit_the_orphans(self):
        from repro.targets.codegen import CodegenPipeline

        pipe = CodegenPipeline(build_pipeline("P4", optimize=True))
        assert "cp_main_l3_i_empty_1" not in pipe.source
        assert "dep_main_l3_i_noop" not in pipe.source


class TestWhyElisionIsNotTheDefault:
    """Elision removes tables, and a table is a fault site and a trace
    event.  Fault-free behaviour is preserved; under injected faults the
    per-site RNG streams of the removed ``table:`` sites are never
    drawn, so different packets die and the digest moves.  Lifting this
    needs fault sites that are explicit in the IR (DESIGN.md §16)."""

    @staticmethod
    def _soak(composed, fault_rate=0.0, sites=None):
        from repro.targets.soak import (
            NUM_PORTS, SoakConfig, consume, iter_stream, switch_around,
        )

        config = SoakConfig(
            programs=["P4"],
            packets=400,
            seed=11,
            fault_rate=fault_rate,
            fault_spec={"sites": sites} if sites else None,
        )
        switch = switch_around(PipelineInstance(composed), config, "P4")
        return consume(
            switch, iter_stream(config, "P4", NUM_PORTS), batch_lanes=64
        )

    def test_fault_free_digest_kept(self):
        plain = self._soak(build_pipeline("P4"))
        elided = self._soak(build_pipeline("P4", optimize=True))
        assert elided["digest"] == plain["digest"]

    def test_default_fault_mix_moves_the_digest(self):
        plain = self._soak(build_pipeline("P4"), fault_rate=0.1)
        elided = self._soak(build_pipeline("P4", optimize=True), fault_rate=0.1)
        assert elided["digest"] != plain["digest"]
        assert elided["fault_trips"]["table"] < plain["fault_trips"]["table"]

    def test_the_difference_is_confined_to_table_sites(self):
        others = {"extern": 0.1, "buffer": 0.1, "corrupt": 0.1, "truncate": 0.1}
        plain = self._soak(build_pipeline("P4"), sites=others)
        elided = self._soak(build_pipeline("P4", optimize=True), sites=others)
        assert plain["fault_trips"] and elided["digest"] == plain["digest"]
        assert elided["fault_trips"] == plain["fault_trips"]

        plain = self._soak(build_pipeline("P4"), sites={"table": 0.1})
        elided = self._soak(build_pipeline("P4", optimize=True), sites={"table": 0.1})
        assert set(plain["fault_trips"]) == set(elided["fault_trips"]) == {"table"}
        assert elided["digest"] != plain["digest"]


class TestResourceEffect:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_never_more_tables(self, name):
        plain = build_pipeline(name)
        opt = build_pipeline(name, optimize=True)
        assert len(opt.tables) < len(plain.tables)

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_never_more_stages(self, name):
        backend = TnaBackend()
        plain = backend.compile(build_pipeline(name))
        opt = backend.compile(build_pipeline(name, optimize=True))
        assert opt.num_stages <= plain.num_stages


class TestBehaviorPreserved:
    @pytest.mark.parametrize("name", PROGRAMS)
    def test_optimized_equals_unoptimized(self, name):
        from tests.integration.helpers import make_instance

        plain = make_instance(name, "micro")
        opt = optimized_instance(name)
        for pkt in standard_corpus(name):
            a = plain.process(pkt.copy(), 1)
            b = opt.process(pkt.copy(), 1)
            assert len(a) == len(b), f"{name}: {pkt!r}"
            for x, y in zip(a, b):
                assert x.port == y.port
                assert x.packet.tobytes() == y.packet.tobytes()
