"""Differential tests: the indexed table-lookup fast path must return
exactly what the reference linear scan returns — same action, args,
hit flag and matched entry — over randomized entry sets, and identical
packet traces end-to-end through composed pipelines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import astnodes as ast
from repro.targets.tables import TableRuntime

WIDTH = 16
FULL = (1 << WIDTH) - 1

# Small value pool so random queries actually collide with entries.
values = st.one_of(st.integers(0, 7), st.integers(0, FULL))


def match_for(kind):
    if kind == "exact":
        return st.one_of(st.none(), values)
    if kind == "lpm":
        return st.one_of(
            st.none(), st.tuples(values, st.integers(0, WIDTH))
        )
    if kind == "ternary":
        return st.one_of(st.none(), st.tuples(values, values))
    if kind == "range":
        return st.one_of(
            st.none(),
            st.tuples(values, values).map(lambda p: (min(p), max(p))),
        )
    raise AssertionError(kind)


KIND_COMBOS = [
    ["exact"],
    ["exact", "exact"],
    ["lpm"],
    ["lpm", "exact"],
    ["exact", "lpm", "exact"],
    ["ternary"],
    ["ternary", "exact"],
    ["range", "exact"],
    ["lpm", "ternary"],
    ["lpm", "lpm"],
]


def table_config():
    def entries_for(kinds):
        entry = st.tuples(
            st.tuples(*[match_for(k) for k in kinds]),
            st.integers(0, 3),  # priority
        )
        queries = st.lists(
            st.tuples(*[values for _ in kinds]), min_size=1, max_size=8
        )
        return st.tuples(
            st.just(kinds),
            st.lists(entry, max_size=10),
            st.lists(entry, max_size=4),  # installed after the first lookups
            queries,
        )

    return st.sampled_from(KIND_COMBOS).flatmap(entries_for)


def build_table(kinds):
    keys = []
    for i, kind in enumerate(kinds):
        expr = ast.PathExpr(name=f"k{i}")
        expr.type = ast.BitType(width=WIDTH)
        keys.append(ast.KeyElement(expr=expr, match_kind=kind))
    decl = ast.TableDecl(
        name="t", keys=keys, actions=["hit", "miss"], default_action="miss"
    )
    return TableRuntime(decl)


def assert_equivalent(table, query):
    scan = table.lookup_scan_full(query)
    # Twice: whatever the first lookup found in the memo, the second
    # one is a memo hit, and both must be the reference scan's answer.
    for _ in range(2):
        indexed = table.lookup_full(query)
        assert indexed[0] == scan[0], (query, indexed, scan)
        assert indexed[1] == scan[1]
        assert indexed[2] == scan[2]
        assert indexed[3] is scan[3]  # the very same Entry object
        assert table._index.memo[tuple(query)] is scan[3]
    if scan[3] is not None:
        # The order a live index hands out is the entry's position in
        # the const-then-runtime list, whatever was appended since.
        combined = [*table.const_entries, *table.runtime_entries]
        assert table.entry_index(scan[3]) == next(
            i for i, e in enumerate(combined) if e is scan[3]
        )


@settings(max_examples=200, deadline=None)
@given(table_config())
def test_indexed_matches_reference_scan(config):
    kinds, first_batch, second_batch, queries = config
    table = build_table(kinds)
    for i, (matches, priority) in enumerate(first_batch):
        table.add_entry(list(matches), "hit", [i], priority=priority)
    for query in queries:
        assert_equivalent(table, query)
    # Mutations under traffic: every query was looked up (and memoised)
    # right before each install, so the index is live and its memo warm
    # when the entry arrives.  A tail append (priority <= every
    # installed one) is filed in place and a mid-list insert drops the
    # index; either way no answer from before the install may survive.
    for i, (matches, priority) in enumerate(second_batch):
        table.lookup(queries[0])
        live = table._index
        tail = all(priority <= e.priority for e in table.runtime_entries)
        table.add_entry(list(matches), "hit", [100 + i], priority=priority)
        assert table._index is (live if tail else None)
        if tail:
            assert not live.memo
        for query in queries:
            assert_equivalent(table, query)
    table.set_default("hit", [7])
    assert table._index is not None  # no index stores the default row
    for query in queries:
        assert_equivalent(table, query)
    table.clear_runtime_entries()
    for query in queries:
        assert_equivalent(table, query)


def _routes(n=8):
    table = build_table(["lpm", "exact"])
    for i in range(n):
        table.add_entry([(i << 8, 8), i % 2], "hit", [i, i + 1])
    return table


def test_memo_hit_counts_like_an_index_probe():
    """``interp.lookup.*`` moves the same with a cold and a warm memo."""
    from repro.obs.metrics import METRICS, collecting

    queries = [(i << 8 | 5, i % 2) for i in range(8)] + [(0xFFFF, 0)]
    for kinds, second in ((["lpm", "exact"], 8), (["ternary", "exact"], 0xFF00)):
        table = build_table(kinds)
        for i in range(8):
            table.add_entry([(i << 8, second), i % 2], "hit", [i])
        counts = []
        for _ in ("cold", "warm"):
            with collecting():
                for query in queries:
                    table.lookup_full(query)
                counts.append({
                    key: METRICS.counter(key)
                    for key in ("interp.lookup.indexed", "interp.lookup.scan")
                })
        assert counts[0] == counts[1]
        assert sum(counts[0].values()) == len(queries)
        assert len(table._index.memo) == len(queries)


def test_memo_is_bounded():
    from repro.targets.tables import _MEMO_CAP

    table = _routes()
    for key in range(_MEMO_CAP + 50):
        table.lookup_full((key, 0))
        assert len(table._index.memo) <= _MEMO_CAP
    assert_equivalent(table, (0x0105, 1))


def test_memo_never_shares_an_args_list():
    table = _routes()
    for query in ((0x0105, 1), (0xFFFF, 0)):  # a hit and a default miss
        first = table.lookup_full(query)
        first[1].append(99)
        again = table.lookup_full(query)
        assert again[1] is not first[1]
        assert again[1] == table.lookup_scan_full(query)[1]
        assert 99 not in again[1]


def test_reference_scan_mode_has_no_memo():
    decl = build_table(["lpm", "exact"]).decl
    table = TableRuntime(decl, use_index=False)
    table.add_entry([(0x0100, 8), 1], "hit", [1])
    for _ in range(3):
        assert table.lookup_full((0x0105, 1))[2]
    assert table._index is None  # the memo lives on the index


@pytest.mark.parametrize("name", ["P2", "P4"])
def test_pipeline_traces_identical(name):
    """Indexed and scan instances of a composed pipeline must produce
    identical outputs and identical packet traces (hit sequences, entry
    indices) over the standard corpus."""
    from tests.integration.helpers import make_instance, standard_corpus

    indexed = make_instance(name, "micro", use_table_index=True)
    scan = make_instance(name, "micro", use_table_index=False)
    for pkt in standard_corpus(name):
        outs_i, trace_i = indexed.process_traced(pkt.copy(), 1)
        outs_s, trace_s = scan.process_traced(pkt.copy(), 1)
        assert [
            (o.packet.tobytes(), o.port, o.mcast_grp, o.recirculate)
            for o in outs_i
        ] == [
            (o.packet.tobytes(), o.port, o.mcast_grp, o.recirculate)
            for o in outs_s
        ]
        assert trace_i.hit_sequence() == trace_s.hit_sequence()
        assert [(e.kind, e.data) for e in trace_i.events] == [
            (e.kind, e.data) for e in trace_s.events
        ]


@pytest.mark.parametrize("backend", ["interp", "compiled", "codegen"])
def test_traced_entry_order_at_a_thousand_routes(backend):
    """A traced table hit reports the entry's position in the
    const-then-runtime order.  The live index hands that out from the
    order it filed the entry at — including entries appended in place
    after it was built — where the reference instance scans the list;
    at 1200 routes installed under traffic both agree, event for event."""
    from repro.lib.catalog import build_pipeline
    from repro.net.packet import Packet
    from repro.targets.backends import make_pipeline
    from repro.targets.runtime_api import RuntimeAPI
    from tests.integration.helpers import MAC_A, MAC_B, eth_ipv4, mac

    composed = build_pipeline("P4")
    indexed = make_pipeline(composed, backend, use_table_index=True)
    scan = make_pipeline(composed, backend, use_table_index=False)

    def traced(instance, dst):
        outputs, trace = instance.process_traced(Packet(eth_ipv4(dst=dst).tobytes()), 1)
        return [o.port for o in outputs], [(e.kind, e.data) for e in trace.events]

    routes = 1200
    for i in range(routes):
        for instance in (indexed, scan):
            api = RuntimeAPI(instance)
            api.add_entry("ipv4_lpm_tbl", [((11 << 24) + (i << 8), 24)], "process", [100 + i])
            api.add_entry("forward_tbl", [100 + i], "forward",
                          [mac(MAC_A), mac(MAC_B), 1 + i % 7])
        if i % 100 == 0:  # traffic between installs keeps the index live
            dst = "11.%d.%d.9" % (i >> 8, i & 255)
            assert traced(indexed, dst) == traced(scan, dst)
    lpm = RuntimeAPI(indexed)._table("ipv4_lpm_tbl")
    assert lpm.index_events == {
        "tables.index.rebuilt": 1, "tables.index.appended": routes - 1,
    }
    for i in (0, 1, 599, routes - 1):
        ports, events = traced(indexed, "11.%d.%d.9" % (i >> 8, i & 255))
        assert (ports, events) == traced(scan, "11.%d.%d.9" % (i >> 8, i & 255))
        hits = [d["entry"] for kind, d in events
                if kind == "table" and d["table"].endswith(("ipv4_lpm_tbl", "forward_tbl"))]
        assert hits == [i, i]
