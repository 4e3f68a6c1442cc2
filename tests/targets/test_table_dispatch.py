"""Table-scoped action dispatch: every executor lowers, under a table's
apply, exactly the actions that table can select
(``TableRuntime.selectable_actions``).

Three things are pinned here: the build-time invariant that makes the
set well defined, the one behaviour that differs from inlining every
composed action (an entry forced past ``add_entry`` that names another
table's action is *unknown to this table* on every backend, with the
same verdict, text and trace), and that build output stays linear in
tables.
"""

import re

import pytest

from repro import cli
from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.lib.catalog import COMPOSITIONS, build_pipeline
from repro.net.packet import Packet
from repro.obs.metrics import METRICS, collecting
from repro.obs.pkttrace import PacketTrace
from repro.targets.backends import make_pipeline
from repro.targets.soak import SoakConfig, build_switch
from repro.targets.tables import Entry, TableRuntime
from repro.targets.vector import NUMPY_AVAILABLE, columnwise_module

from tests.integration.helpers import eth_ipv4, eth_ipv6
from tests.targets.helpers import EXECUTORS, LANE_LOOP, columnwise_floor

_COMPOSED = {}


def composed_for(program):
    if program not in _COMPOSED:
        _COMPOSED[program] = build_pipeline(program)
    return _COMPOSED[program]


# ----------------------------------------------------------------------
# Build-time invariant
# ----------------------------------------------------------------------


def _decl(actions=("hit", "miss"), default="miss", entry_action=None):
    expr = ast.PathExpr(name="k")
    expr.type = ast.BitType(width=8)
    entries = []
    if entry_action is not None:
        entries.append(
            ast.TableEntry(
                keysets=[ast.IntLit(value=1)], action_name=entry_action
            )
        )
    return ast.TableDecl(
        name="t",
        keys=[ast.KeyElement(expr=expr, match_kind="exact")],
        actions=list(actions),
        default_action=default,
        const_entries=entries,
    )


def _action(name):
    return ast.ActionDecl(name=name, params=[], body=ast.BlockStmt(stmts=[]))


class TestBuildInvariant:
    def test_selectable_is_the_tables_own_list_in_order(self):
        composed = {n: _action(n) for n in ("other", "miss", "hit")}
        t = TableRuntime(
            _decl(actions=("hit", "NoAction", "miss")), actions=composed
        )
        assert list(t.selectable_actions) == ["hit", "miss"]
        assert t.selectable_actions["hit"] is composed["hit"]

    def test_unresolved_table_selects_nothing(self):
        assert TableRuntime(_decl()).selectable_actions == {}

    @pytest.mark.parametrize(
        "kwargs, where",
        [
            (dict(default="other"), "default_action"),
            (dict(entry_action="other"), "const entry 0"),
        ],
    )
    def test_static_action_outside_the_list_fails_the_build(self, kwargs, where):
        composed = {n: _action(n) for n in ("hit", "miss", "other")}
        with pytest.raises(TargetError, match="not in its actions list") as info:
            TableRuntime(_decl(**kwargs), actions=composed)
        assert info.value.code == "action-not-listed"
        assert where in str(info.value) and "'other'" in str(info.value)

    @pytest.mark.parametrize(
        "kwargs", [dict(default="miss"), dict(entry_action="miss", default=None)]
    )
    def test_static_action_must_be_composed(self, kwargs):
        with pytest.raises(TargetError, match="not a composed action") as info:
            TableRuntime(_decl(**kwargs), actions={"hit": _action("hit")})
        assert info.value.code == "action-not-composed"

    def test_noaction_needs_no_declaration(self):
        t = TableRuntime(
            _decl(actions=("hit",), default=None, entry_action="NoAction"),
            actions={"hit": _action("hit")},
        )
        assert t.default_action == "NoAction"
        assert list(t.selectable_actions) == ["hit"]

    @pytest.mark.parametrize("backend", EXECUTORS)
    def test_every_backend_fails_at_build(self, backend):
        """A synthesised table the typechecker never saw is caught when
        the executor is built, before any packet."""
        composed = build_pipeline("P4")
        victim = next(
            t for n, t in composed.tables.items() if n.endswith("parser_tbl")
        )
        victim.default_action = "no_such_action"
        with pytest.raises(TargetError) as info:
            make_pipeline(composed, backend)
        assert info.value.code == "action-not-listed"


# ----------------------------------------------------------------------
# The behaviour that changes: a composed-but-foreign action in an entry
# ----------------------------------------------------------------------

FOREIGN_DST = "10.2.0.5"


def _p4_switch(backend):
    config = SoakConfig(programs=["P4"], fault_rate=0.0, exec_backend=backend)
    return build_switch(config, "P4", composed_for("P4"))


def _table(switch, suffix):
    return next(
        t for n, t in switch.pipeline.tables.items() if n.endswith(suffix)
    )


def _foreign_action(switch, runtime):
    """A composed action of the same program that ``runtime`` cannot
    select, with its parameter count (so the arity check cannot be what
    fires)."""
    name, decl = next(
        (n, d)
        for n, d in switch.pipeline.composed.actions.items()
        if n not in runtime.selectable_actions
    )
    return name, len(decl.params)


def _inject_foreign(switch):
    runtime = _table(switch, "ipv4_lpm_tbl")
    action, nparams = _foreign_action(switch, runtime)
    # Past add_entry on purpose: it would refuse this action.
    runtime.runtime_entries.append(
        Entry(
            matches=[("lpm", 0x0A020000, 16)],
            action_name=action,
            action_args=[0] * nparams,
        )
    )
    runtime._index = None
    runtime.version += 1
    return runtime.name, action


def _corpus():
    return [
        (eth_ipv4(dst="10.0.0.5").tobytes(), 1),
        (eth_ipv4(dst=FOREIGN_DST).tobytes(), 2),
        (eth_ipv6().tobytes(), 3),
        (eth_ipv4(dst=FOREIGN_DST, ttl=9).tobytes(), 1),
    ]


def _summary(verdict):
    return (
        verdict.kind,
        dict(verdict.reasons),
        verdict.error,
        [(o.packet.tobytes(), o.port) for o in verdict.outputs],
    )


def _per_packet(switch):
    rows = []
    for data, port in _corpus():
        trace = PacketTrace()
        verdict = switch.process(Packet(data), port, trace)
        rows.append((_summary(verdict), trace.events))
    return rows


def _batch(switch):
    items = [(Packet(data), port) for data, port in _corpus()]
    return [_summary(v) for v in switch.process_batch(items, soa=True)]


class TestForeignActionParity:
    def test_unknown_to_the_table_on_every_path(self):
        reference = _p4_switch("interp")
        table, action = _inject_foreign(reference)
        want = _per_packet(reference)
        text = f"TargetError: table {table!r} selected unknown action {action!r}"
        kinds = [summary[0] for summary, _ in want]
        assert kinds == ["emit", "killed", "emit", "killed"]
        for (kind, reasons, error, outputs), events in want:
            if kind == "killed":
                assert (reasons, error, outputs) == ({"internal": 1}, text, [])
                # The lookup is traced before the dispatch fails.
                assert [e for e in events if e.kind == "table" and e.data["table"] == table]

        for backend in EXECUTORS[1:]:
            switch = _p4_switch(backend)
            assert _inject_foreign(switch) == (table, action)
            assert _per_packet(switch) == want, backend

        for floor in (LANE_LOOP, 1):  # the lane loop, the columnwise tier
            switch = _p4_switch("codegen")
            _inject_foreign(switch)
            assert switch.pipeline.batch_supported
            with columnwise_floor(floor), collecting() as registry:
                assert _batch(switch) == [s for s, _ in want], floor
            columnwise = floor == 1 and NUMPY_AVAILABLE
            loops = registry.counter("vector.soa_fallback_batches")
            assert loops == (0 if columnwise else 1), floor

    @pytest.mark.parametrize("backend", EXECUTORS)
    def test_install_still_refuses_a_foreign_action(self, backend):
        switch = _p4_switch(backend)
        runtime = _table(switch, "ipv4_lpm_tbl")
        action, nparams = _foreign_action(switch, runtime)
        before = (len(runtime.runtime_entries), runtime.default_action)
        with pytest.raises(TargetError, match="has no action"):
            runtime.add_entry([(0x0A020000, 16)], action, [0] * nparams)
        with pytest.raises(TargetError, match="has no action"):
            runtime.set_default(action, [0] * nparams)
        with pytest.raises(TargetError):
            switch.api.add_entry(
                "ipv4_lpm_tbl", [(0x0A020000, 16)], action, [0] * nparams
            )
        assert (len(runtime.runtime_entries), runtime.default_action) == before


class TestArgumentCountAtInstall:
    """A wrong number of action arguments used to install fine and then
    kill every packet that hit the entry; it is refused where the other
    install-time checks are, the same way on every backend."""

    @pytest.mark.parametrize("backend", EXECUTORS)
    def test_install_refuses_a_wrong_argument_count(self, backend):
        switch = _p4_switch(backend)
        runtime = _table(switch, "ipv4_lpm_tbl")
        action = next(a for a in runtime.selectable_actions if a.endswith("process"))
        before = (
            list(runtime.runtime_entries), runtime.default_action,
            list(runtime.default_args), runtime.version,
        )
        text = (
            f"table {runtime.name!r}: action {action!r} expects 1 args, got {{}}"
        )
        with pytest.raises(TargetError, match=re.escape(text.format(0))):
            switch.api.add_entry("ipv4_lpm_tbl", [(0x0A020000, 16)], "process")
        with pytest.raises(TargetError, match=re.escape(text.format(2))):
            switch.api.add_entry(
                "ipv4_lpm_tbl", [(0x0A020000, 16)], "process", [1, 2]
            )
        with pytest.raises(TargetError, match=re.escape(text.format(3))):
            switch.api.set_default("ipv4_lpm_tbl", "process", [1, 2, 3])
        assert before == (
            list(runtime.runtime_entries), runtime.default_action,
            list(runtime.default_args), runtime.version,
        )
        verdict = switch.process(Packet(eth_ipv4(dst=FOREIGN_DST).tobytes()), 1)
        assert verdict.kind != "killed"

    @pytest.mark.parametrize("backend", EXECUTORS)
    def test_forced_entry_still_fails_per_packet(self, backend):
        """Behind the API the per-packet check is what is left."""
        switch = _p4_switch(backend)
        runtime = _table(switch, "ipv4_lpm_tbl")
        action = next(a for a in runtime.selectable_actions if a.endswith("process"))
        runtime.runtime_entries.append(
            Entry(matches=[("lpm", 0x0A020000, 16)], action_name=action)
        )
        runtime._index = None
        runtime.version += 1
        verdict = switch.process(Packet(eth_ipv4(dst=FOREIGN_DST).tobytes()), 1)
        assert (verdict.kind, dict(verdict.reasons)) == ("killed", {"internal": 1})
        assert verdict.error == (
            f"TargetError: action {action!r} expects 1 args, got 0"
        )

    @pytest.mark.parametrize(
        "floor", [LANE_LOOP, 1], ids=["lane-loop", "columnwise"]
    )
    def test_forced_entry_fails_only_its_lanes_in_a_batch(self, floor):
        """In one SoA batch the entry kills the lanes that hit it, with
        the per-packet text, and leaves the others as they were."""
        want = _p4_switch("interp")
        switch = _p4_switch("codegen")
        for each in (want, switch):
            runtime = _table(each, "ipv4_lpm_tbl")
            action = next(
                a for a in runtime.selectable_actions if a.endswith("process")
            )
            runtime.runtime_entries.append(
                Entry(matches=[("lpm", 0x0A020000, 16)], action_name=action)
            )
            runtime._index = None
            runtime.version += 1
        expected = [
            _summary(want.process(Packet(data), port)) for data, port in _corpus()
        ]
        assert [row[0] for row in expected] == ["emit", "killed", "emit", "killed"]
        assert expected[1][2] == (
            f"TargetError: action {action!r} expects 1 args, got 0"
        )
        with columnwise_floor(floor), collecting() as registry:
            assert _batch(switch) == expected
            loops = registry.counter("vector.soa_fallback_batches")
        assert loops == (0 if floor == 1 and NUMPY_AVAILABLE else 1)


# ----------------------------------------------------------------------
# Build output is linear in tables
# ----------------------------------------------------------------------

#: P7's generated module was 395 481 lines when every table apply
#: inlined every composed action, 29 215 with table-scoped arms, and is
#: ~3.2 k now that the byte-stack copies are shrunk first, step checks
#: cover side-effect regions and one function serves every lane count.
P7_SOURCE_LINE_BUDGET = 4_000

_ARM = re.compile(r"^\s*(?:if|elif) _t\d+ == '", re.M)


@pytest.mark.parametrize("program", sorted(COMPOSITIONS))
class TestLinearInTables:
    def test_codegen_arms(self, program):
        pipe = make_pipeline(composed_for(program), "codegen")
        selectable = sum(len(t.selectable_actions) for t in pipe.tables.values())
        assert selectable == sum(
            len({a for a in t.decl.actions if a != "NoAction"})
            for t in pipe.tables.values()
        )
        assert pipe.dispatch_arms == selectable
        assert len(_ARM.findall(pipe.source)) == pipe.dispatch_arms
        if program == "P7":
            assert len(pipe.source.splitlines()) < P7_SOURCE_LINE_BUDGET

    def test_vector_arms(self, program):
        pipe = make_pipeline(composed_for(program), "codegen")
        plan = columnwise_module(pipe.composed, pipe.tables)
        arms = plan.arms
        assert set(arms) == set(pipe.tables)
        for name, runtime in pipe.tables.items():
            selectable = runtime.selectable_actions
            assert list(arms[name]) == list(selectable)
            assert list(arms[name].values()) == [
                (ai, len(adecl.params))
                for ai, adecl in enumerate(selectable.values())
            ]
        # One arm per selectable action at every apply site.
        sites = plan.sites
        assert plan.source.count(" = _arm(") == sum(
            len(arms[name]) for name in sites.values()
        )


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------


class TestSourceSizeGauges:
    def test_gauges_beside_locals(self):
        with collecting():
            pipe = make_pipeline(composed_for("P4"), "codegen")
            assert METRICS.gauge("codegen.source_lines") == len(
                pipe.source.splitlines()
            )
            assert METRICS.gauge("codegen.dispatch_arms") == pipe.dispatch_arms
            assert METRICS.gauge("codegen.locals") > 0

    def test_profile_prints_them(self, capsys):
        assert cli.main(["profile", "P4", "--packets", "30", "--exec", "codegen"]) == 0
        out = capsys.readouterr().out
        assert re.search(
            r"generated source: \d+ lines, 25 action arms, \d+ locals", out
        )

    def test_profile_without_codegen_prints_no_source_line(self, capsys):
        assert cli.main(["profile", "P4", "--packets", "30", "--exec", "interp"]) == 0
        assert "generated source" not in capsys.readouterr().out
