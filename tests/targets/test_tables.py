"""Unit tests for the match-action table runtime."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.targets.tables import TableRuntime


def make_table(match_kinds, actions=("hit", "miss"), entries=(), default="miss"):
    keys = []
    for kind in match_kinds:
        expr = ast.PathExpr(name=f"k{len(keys)}")
        expr.type = ast.BitType(width=32)
        keys.append(ast.KeyElement(expr=expr, match_kind=kind))
    decl = ast.TableDecl(
        name="t",
        keys=keys,
        actions=list(actions),
        default_action=default,
        const_entries=list(entries),
    )
    return TableRuntime(decl)


class TestExact:
    def test_hit_and_miss(self):
        t = make_table(["exact"])
        t.add_entry([5], "hit", [1])
        assert t.lookup([5]) == ("hit", [1], True)
        assert t.lookup([6]) == ("miss", [], False)

    def test_first_match_priority(self):
        t = make_table(["exact"])
        t.add_entry([5], "hit", [1])
        t.add_entry([5], "hit", [2])
        assert t.lookup([5])[1] == [1]

    def test_explicit_priority(self):
        t = make_table(["exact"])
        t.add_entry([5], "hit", [1], priority=0)
        t.add_entry([5], "hit", [2], priority=10)
        assert t.lookup([5])[1] == [2]


class TestLpm:
    def test_longest_prefix_wins(self):
        t = make_table(["lpm"])
        t.add_entry([(0x0A000000, 8)], "hit", [1])
        t.add_entry([(0x0A010000, 16)], "hit", [2])
        assert t.lookup([0x0A010203])[1] == [2]
        assert t.lookup([0x0A020304])[1] == [1]

    def test_zero_length_prefix_matches_all(self):
        t = make_table(["lpm"])
        t.add_entry([(0, 0)], "hit", [9])
        assert t.lookup([0xFFFFFFFF])[1] == [9]

    @given(st.integers(0, 2**32 - 1))
    def test_full_prefix_is_exact(self, addr):
        t = make_table(["lpm"])
        t.add_entry([(addr, 32)], "hit", [1])
        hit = t.lookup([addr])
        assert hit[0] == "hit"
        assert t.lookup([(addr + 1) % 2**32])[0] == "miss"


class TestTernary:
    def test_mask_match(self):
        t = make_table(["ternary"])
        t.add_entry([(0x0800, 0xFF00)], "hit", [1])
        assert t.lookup([0x08AB])[0] == "hit"
        assert t.lookup([0x0700])[0] == "miss"

    def test_dont_care(self):
        t = make_table(["ternary", "exact"])
        t.add_entry([None, 7], "hit", [1])
        assert t.lookup([12345, 7])[0] == "hit"
        assert t.lookup([12345, 8])[0] == "miss"


class TestRange:
    def test_inclusive_bounds(self):
        t = make_table(["range"])
        t.add_entry([(10, 20)], "hit", [1])
        assert t.lookup([10])[0] == "hit"
        assert t.lookup([20])[0] == "hit"
        assert t.lookup([9])[0] == "miss"
        assert t.lookup([21])[0] == "miss"


class TestManagement:
    def test_arity_checked(self):
        t = make_table(["exact", "exact"])
        with pytest.raises(TargetError):
            t.add_entry([1], "hit")

    def test_unknown_action_rejected(self):
        t = make_table(["exact"])
        with pytest.raises(TargetError):
            t.add_entry([1], "fly")

    def test_set_default(self):
        t = make_table(["exact"])
        t.set_default("hit", [42])
        assert t.lookup([0]) == ("hit", [42], False)

    def test_clear(self):
        t = make_table(["exact"])
        t.add_entry([5], "hit")
        t.clear_runtime_entries()
        assert t.lookup([5])[0] == "miss"

    def test_const_entries_precede_runtime(self):
        entry = ast.TableEntry(
            keysets=[ast.IntLit(value=5, width=32)],
            action_name="hit",
            action_args=[ast.IntLit(value=1)],
        )
        t = make_table(["exact"], entries=[entry])
        t.add_entry([5], "hit", [2])
        assert t.lookup([5])[1] == [1]


class TestLpmTieBreak:
    """Equal prefix lengths fall back to the first-match priority order:
    const before runtime, then priority, then insertion order."""

    def test_const_beats_runtime_at_equal_length(self):
        entry = ast.TableEntry(
            keysets=[ast.IntLit(value=0x0A000000, width=32)],
            action_name="hit",
            action_args=[ast.IntLit(value=1)],
        )
        t = make_table(["lpm"], entries=[entry])  # const is a /32
        t.add_entry([(0x0A000000, 32)], "hit", [2])
        assert t.lookup([0x0A000000])[1] == [1]
        assert t.lookup_scan_full([0x0A000000])[1] == [1]

    def test_priority_breaks_equal_length_ties(self):
        t = make_table(["lpm"])
        t.add_entry([(0x0A000000, 8)], "hit", [1], priority=0)
        t.add_entry([(0x0A000000, 8)], "hit", [2], priority=10)
        assert t.lookup([0x0A112233])[1] == [2]
        assert t.lookup_scan_full([0x0A112233])[1] == [2]

    def test_insertion_order_breaks_remaining_ties(self):
        t = make_table(["lpm"])
        t.add_entry([(0x0A000000, 8)], "hit", [1])
        t.add_entry([(0x0A000000, 8)], "hit", [2])
        assert t.lookup([0x0A112233])[1] == [1]
        assert t.lookup_scan_full([0x0A112233])[1] == [1]

    def test_longer_prefix_still_beats_priority(self):
        t = make_table(["lpm"])
        t.add_entry([(0x0A000000, 8)], "hit", [1], priority=99)
        t.add_entry([(0x0A010000, 16)], "hit", [2], priority=0)
        assert t.lookup([0x0A010203])[1] == [2]


class TestEntryValidation:
    def test_overlong_lpm_prefix_rejected(self):
        t = make_table(["lpm"])
        with pytest.raises(TargetError, match="prefix length 33"):
            t.add_entry([(0x0A000000, 33)], "hit")

    def test_negative_lpm_prefix_rejected(self):
        t = make_table(["lpm"])
        with pytest.raises(TargetError, match="prefix length"):
            t.add_entry([(0x0A000000, -1)], "hit")

    def test_exact_value_masked_to_key_width(self):
        t = make_table(["exact"])
        t.add_entry([(1 << 40) | 5], "hit", [1])
        assert t.lookup([5])[0] == "hit"

    def test_ternary_value_and_mask_masked(self):
        t = make_table(["ternary"])
        t.add_entry([((1 << 40) | 0x0800, (1 << 40) | 0xFF00)], "hit", [1])
        assert t.lookup([0x08AB])[0] == "hit"

    def test_empty_range_after_masking_rejected(self):
        t = make_table(["range"])
        with pytest.raises(TargetError, match="empty range"):
            t.add_entry([(10, (1 << 32) + 5)], "hit")


class TestKeyValidation:
    def test_untyped_key_expr_rejected(self):
        expr = ast.PathExpr(name="mystery")  # no .type annotation
        decl = ast.TableDecl(
            name="t",
            keys=[ast.KeyElement(expr=expr, match_kind="exact")],
            actions=["hit"],
        )
        with pytest.raises(TargetError, match="'mystery'"):
            TableRuntime(decl)

    @pytest.mark.parametrize("kind", ["exact", "lpm", "range"])
    def test_mask_keyset_only_valid_on_ternary(self, kind):
        entry = ast.TableEntry(
            keysets=[
                ast.MaskExpr(
                    value=ast.IntLit(value=0x0800), mask=ast.IntLit(value=0xFF00)
                )
            ],
            action_name="hit",
        )
        with pytest.raises(TargetError, match="mask keyset"):
            make_table([kind], entries=[entry])

    @pytest.mark.parametrize("kind", ["exact", "lpm", "ternary"])
    def test_range_keyset_only_valid_on_range(self, kind):
        entry = ast.TableEntry(
            keysets=[
                ast.RangeExpr(lo=ast.IntLit(value=1), hi=ast.IntLit(value=9))
            ],
            action_name="hit",
        )
        with pytest.raises(TargetError, match="range keyset"):
            make_table([kind], entries=[entry])

    def test_mask_keyset_on_ternary_still_works(self):
        entry = ast.TableEntry(
            keysets=[
                ast.MaskExpr(
                    value=ast.IntLit(value=0x0800), mask=ast.IntLit(value=0xFF00)
                )
            ],
            action_name="hit",
            action_args=[ast.IntLit(value=1)],
        )
        t = make_table(["ternary"], entries=[entry])
        assert t.lookup([0x08AB])[0] == "hit"


class TestIndexing:
    def test_strategies_by_match_kind(self):
        assert make_table(["exact", "exact"]).index_info()["strategy"] == "exact-hash"
        assert make_table(["lpm", "exact"]).index_info()["strategy"] == "lpm-buckets"
        assert make_table(["ternary"]).index_info()["strategy"] == "compiled-scan"
        assert make_table(["range", "lpm"]).index_info()["strategy"] == "compiled-scan"
        assert make_table(["lpm", "lpm"]).index_info()["strategy"] == "compiled-scan"

    @pytest.mark.parametrize("exec_backend", ["interp", "codegen"])
    def test_lookup_info_reports_without_building(self, exec_backend):
        # A report is read-only: it builds no index, counts no event and
        # leaves ``as_declared`` alone — yet names the strategy a built
        # index has.
        from repro.obs.metrics import collecting
        from repro.targets.soak import SoakConfig, build_switch, compose_program

        config = SoakConfig(exec_backend=exec_backend)
        switch = build_switch(config, "P4", compose_program(config, "P4"))
        tables = switch.api.instance.tables

        def state():
            return (
                {n: dict(t.index_events) for n, t in tables.items()},
                {n: t.as_declared for n, t in tables.items()},
            )

        with collecting() as registry:
            before = state()
            first = switch.api.lookup_info()
            second = switch.api.lookup_info()
            assert registry.snapshot()["counters"] == {}
            assert state() == before
        assert first == second
        for name, table in tables.items():
            built = table._index or table._build_index()
            assert first[name]["strategy"] == built.strategy, name
            # What a report cannot know without a build, it leaves out.
            assert set(first[name]) == {
                "entries", "indexed", "index_events", "strategy"
            }, name

    def test_add_entry_invalidates_index(self):
        t = make_table(["exact"])
        t.add_entry([1], "hit", [1])
        assert t.lookup([2])[0] == "miss"  # index built here
        t.add_entry([2], "hit", [2])  # ... and must not go stale
        assert t.lookup([2])[1] == [2]

    def test_clear_invalidates_index(self):
        t = make_table(["exact"])
        t.add_entry([1], "hit", [1])
        assert t.lookup([1])[0] == "hit"
        t.clear_runtime_entries()
        assert t.lookup([1])[0] == "miss"

    @pytest.mark.parametrize("kinds, first, second, probe", [
        (["exact"], [1], [2], [2]),
        # A prefix length no bucket exists for yet.
        (["lpm"], [(0x0A000000, 8)], [(0x0A010000, 16)], [0x0A010203]),
        (["ternary"], [(0x10, 0xF0)], [(0x20, 0xF0)], [0x25]),
    ])
    def test_tail_append_is_filed_in_the_live_index(self, kinds, first, second, probe):
        t = make_table(kinds)
        t.add_entry(first, "hit", [1])
        assert t.lookup(probe)[1] != [2]
        index, version, epoch = t._index, t.version, t.epoch
        t.add_entry(second, "hit", [2], priority=-3)  # lower: still the tail
        assert t._index is index
        assert (t.version, t.epoch) == (version + 1, epoch)
        assert t.lookup(probe) == ("hit", [2], True)
        assert t.entry_index(t.lookup_full(probe)[3]) == 1
        assert t.index_events == {
            "tables.index.rebuilt": 1, "tables.index.appended": 1,
        }

    def test_mid_list_insert_drops_the_index(self):
        t = make_table(["exact"])
        t.add_entry([1], "hit", [1])
        t.lookup([1])
        epoch = t.epoch
        t.add_entry([1], "hit", [2], priority=1)  # ahead of the first
        assert t._index is None
        assert (t.epoch, t.epoch_reason) == (epoch + 1, "reordered")
        assert t.lookup([1])[1] == [2]
        assert [e.action_args for e in t.runtime_entries] == [[2], [1]]

    def test_set_default_keeps_the_index(self):
        """No index stores the default row: a miss reads it live."""
        t = make_table(["lpm"])
        t.add_entry([(0x0A000000, 8)], "hit", [1])
        t.lookup([0])
        index, version, epoch = t._index, t.version, t.epoch
        t.set_default("hit", [9])
        assert t._index is index
        assert (t.version, t.epoch, t.epoch_reason) == (
            version + 1, epoch + 1, "default"
        )
        assert t.lookup([0]) == ("hit", [9], False)
        assert t.index_events == {"tables.index.rebuilt": 1}

    def test_dont_care_residual_keeps_priority_order(self):
        t = make_table(["exact"])
        t.add_entry([None], "hit", [1], priority=5)  # wildcard, residual
        t.add_entry([7], "hit", [2], priority=0)  # hashed
        assert t.lookup([7])[1] == [1]  # higher priority wins
        assert t.lookup([8])[1] == [1]
        assert t.lookup_scan_full([7])[1] == [1]

    def test_hashed_entry_before_residual_wins(self):
        t = make_table(["exact"])
        t.add_entry([7], "hit", [2])
        t.add_entry([None], "hit", [1])
        assert t.lookup([7])[1] == [2]
        assert t.lookup([8])[1] == [1]

    def test_lpm_wildcard_acts_as_zero_length(self):
        t = make_table(["lpm"])
        t.add_entry([None], "hit", [1])
        t.add_entry([(0x0A000000, 8)], "hit", [2])
        assert t.lookup([0x0A112233])[1] == [2]
        assert t.lookup([0x0B000000])[1] == [1]

    def test_lpm_with_exact_cokey(self):
        t = make_table(["lpm", "exact"])
        t.add_entry([(0x0A000000, 8), 1], "hit", [1])
        t.add_entry([(0x0A010000, 16), 2], "hit", [2])
        assert t.lookup([0x0A010203, 1])[1] == [1]
        assert t.lookup([0x0A010203, 2])[1] == [2]
        assert t.lookup([0x0A010203, 3])[0] == "miss"

    def test_scan_reference_disabled_index(self):
        expr = ast.PathExpr(name="k0")
        expr.type = ast.BitType(width=32)
        decl = ast.TableDecl(
            name="t",
            keys=[ast.KeyElement(expr=expr, match_kind="exact")],
            actions=["hit", "miss"],
            default_action="miss",
        )
        t = TableRuntime(decl, use_index=False)
        t.add_entry([5], "hit", [1])
        assert t.index_info()["strategy"] == "reference-scan"
        assert t.lookup([5]) == ("hit", [1], True)
