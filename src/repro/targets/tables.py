"""Match-action table runtime.

Supports the four match kinds µP4 requires of targets (§6.4): ``exact``,
``lpm``, ``ternary`` and ``range``.  Entries come from two sources:

* const entries compiled into the program (matched in declaration order,
  i.e. first-match priority — this is what the parser-MAT transformation
  relies on), and
* runtime entries installed through the control API, inserted after the
  const entries in priority order (higher ``priority`` first, insertion
  order among equals).

Lookup semantics
----------------

A lookup evaluates each key expression, then:

* without an ``lpm`` key, the **first** matching entry in the combined
  const-then-runtime order wins;
* with an ``lpm`` key, the matching entry with the **longest prefix**
  wins, and equal prefix lengths fall back to the same first-match
  order (const before runtime, then priority, then insertion order).

Key values are expected to already fit their declared key widths — the
interpreter guarantees this through ``bit<W>`` wrap-around semantics.

Indexed fast path
-----------------

Hardware MATs resolve every lookup in O(1) — exact match hashes, lpm and
ternary live in TCAM (Bosshart et al., RMT).  A linear scan over
``const_entries + runtime_entries`` instead collapses under the
homogenization passes that turn parsers and deparsers into large MATs
(§5.3), so :class:`TableRuntime` mirrors the hardware cost model with a
per-match-kind index, built lazily on first lookup.  A *tail append* —
an ``add_entry`` whose priority is no higher than any installed runtime
entry's, so no existing entry's position moves — is filed into the live
index in place, the way hardware writes one SRAM/TCAM word; only an
insert that lands mid-list and ``clear_runtime_entries`` drop it:

* exact-only tables hash the full key tuple (``_ExactIndex``);
* tables with one ``lpm`` key and otherwise-exact keys bucket entries by
  prefix length and probe buckets longest-first (``_LpmIndex``);
* everything else keeps the priority-ordered list but precompiles each
  entry's specs into flat ``(position, mask, value)`` /
  ``(position, lo, hi)`` check tuples (``_CompiledScan``), avoiding the
  per-spec kind branch of the reference scan.

Entries whose specs do not fit an index's fast map (e.g. a don't-care
spec on an exact key) go to a small residual list that is scanned in
priority order, so every strategy reproduces the reference semantics
bit-for-bit.  :meth:`TableRuntime.lookup_scan_full` keeps the reference
scan alive for differential tests.

Answers as declared
-------------------

A table with const entries and no ``lpm`` key answers a pure function
of its key until something writes it.  :meth:`TableRuntime.declared_form`
says how an apply site may compute that function (one dict probe, or a
first-match chain over the const entries' checks),
:meth:`TableRuntime.declared_answers` gives one runtime's rows for it,
and :attr:`TableRuntime.as_declared` says whether they still hold — the
generated executors read it before every such apply.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.obs.metrics import METRICS

# A match spec per key, normalized by kind:
#   exact   -> ("exact", value)
#   lpm     -> ("lpm", value, prefix_len)
#   ternary -> ("ternary", value, mask)
#   range   -> ("range", lo, hi)
#   any     -> ("any",)          (don't care, any kind)
MatchSpec = Tuple


@dataclass
class Entry:
    """One table entry."""

    matches: List[MatchSpec]
    action_name: str
    action_args: List[int] = field(default_factory=list)
    priority: int = 0
    is_const: bool = False

    def matches_key(self, key_values: Sequence[int], key_widths: Sequence[int]) -> bool:
        for spec, value, width in zip(self.matches, key_values, key_widths):
            kind = spec[0]
            if kind == "any":
                continue
            if kind == "exact":
                if value != spec[1]:
                    return False
            elif kind == "lpm":
                _, prefix_value, prefix_len = spec
                if prefix_len == 0:
                    continue
                shift = width - prefix_len
                if (value >> shift) != (prefix_value >> shift):
                    return False
            elif kind == "ternary":
                _, tvalue, mask = spec
                if (value & mask) != (tvalue & mask):
                    return False
            elif kind == "range":
                _, lo, hi = spec
                if not (lo <= value <= hi):
                    return False
            else:
                raise TargetError(f"unknown match kind {kind!r}")
        return True

    def lpm_length(self) -> int:
        for spec in self.matches:
            if spec[0] == "lpm":
                return spec[2]
        return 0


class DeclaredAnswers(NamedTuple):
    """What a table answers as declared, each in ``lookup_full``'s shape
    ``(action, args, hit, entry)``: ``rows[i]`` for const entry i,
    ``by_key`` key tuple -> row for the exact form, ``default`` for a
    miss; ``metric`` is the counter ``lookup_full`` would tick."""

    by_key: Dict[tuple, tuple]
    rows: Tuple[tuple, ...]
    default: tuple
    metric: str


# ======================================================================
# Compiled entry checks (shared by every index strategy)
# ======================================================================


def _prefix_mask(width: int, prefix_len: int) -> int:
    return ((1 << prefix_len) - 1) << (width - prefix_len)


def compile_checks(entry: Entry, key_widths: Sequence[int]):
    """Flatten an entry's specs into ``(pos, mask, value)`` ternary checks
    and ``(pos, lo, hi)`` range checks — no kind branch left at lookup
    time."""
    tchecks: List[Tuple[int, int, int]] = []
    rchecks: List[Tuple[int, int, int]] = []
    for pos, spec in enumerate(entry.matches):
        kind = spec[0]
        if kind == "any":
            continue
        width = key_widths[pos]
        full = (1 << width) - 1
        if kind == "exact":
            tchecks.append((pos, full, spec[1] & full))
        elif kind == "lpm":
            mask = _prefix_mask(width, spec[2])
            if mask:
                tchecks.append((pos, mask, spec[1] & mask))
        elif kind == "ternary":
            mask = spec[2] & full
            if mask:
                tchecks.append((pos, mask, spec[1] & mask))
        elif kind == "range":
            rchecks.append((pos, spec[1], spec[2]))
        else:
            raise TargetError(f"unknown match kind {kind!r}")
    return tuple(tchecks), tuple(rchecks)


def checks_match(key_values, tchecks, rchecks) -> bool:
    for pos, mask, want in tchecks:
        if key_values[pos] & mask != want:
            return False
    for pos, lo, hi in rchecks:
        if not lo <= key_values[pos] <= hi:
            return False
    return True


# Every index strategy below carries ``memo``: key tuple -> what its
# ``lookup`` answered (None: a miss) since the last mutation.
# ``TableRuntime.lookup_full`` fills and reads it, ``add_entry`` and
# ``_new_epoch`` empty it, and it dies with the index.


class _ExactIndex:
    """All keys ``exact``: one dict probe on the full key tuple."""

    metric = "interp.lookup.indexed"
    strategy = "exact-hash"

    def __init__(self, entries: Sequence[Entry], key_widths: Sequence[int]) -> None:
        self.key_widths = key_widths
        # key tuple -> (order, entry); first entry per tuple wins.
        self.map: Dict[Tuple[int, ...], Tuple[int, Entry]] = {}
        # Entries with a don't-care spec cannot live in the hash; they
        # stay in a (usually empty) priority-ordered residual list.
        self.residual: List[tuple] = []
        self.order_of: Dict[int, int] = {}
        self.memo: Dict[tuple, Optional[Entry]] = {}
        for order, entry in enumerate(entries):
            self.add(order, entry)

    def add(self, order: int, entry: Entry) -> None:
        """File ``entry`` at ``order``, which must be past every order
        filed so far (the build loop and a tail append both are)."""
        self.order_of[id(entry)] = order
        if all(spec[0] == "exact" for spec in entry.matches):
            key = tuple(spec[1] for spec in entry.matches)
            if key not in self.map:
                self.map[key] = (order, entry)
        else:
            tchecks, rchecks = compile_checks(entry, self.key_widths)
            self.residual.append((order, entry, tchecks, rchecks))

    def lookup(self, key_values) -> Optional[Entry]:
        best = self.map.get(tuple(key_values))
        for order, entry, tchecks, rchecks in self.residual:
            if best is not None and best[0] < order:
                break
            if checks_match(key_values, tchecks, rchecks):
                best = (order, entry)
                break
        return best[1] if best is not None else None


class _LpmIndex:
    """One ``lpm`` key, rest ``exact``: per-prefix-length hash buckets on
    the masked key tuple, probed longest-first."""

    metric = "interp.lookup.indexed"
    strategy = "lpm-buckets"

    def __init__(
        self, entries: Sequence[Entry], key_widths: Sequence[int], lpm_pos: int
    ) -> None:
        self.key_widths = key_widths
        self.lpm_pos = lpm_pos
        # prefix_len -> {masked key tuple: (order, entry)}
        self.buckets: Dict[int, Dict[Tuple[int, ...], Tuple[int, Entry]]] = {}
        self.masks: Dict[int, int] = {}
        # Bucket lengths, longest first: the probe order.
        self.lengths: List[int] = []
        # Entries with a don't-care on an exact key position.
        self.residual: List[tuple] = []
        self.order_of: Dict[int, int] = {}
        self.memo: Dict[tuple, Optional[Entry]] = {}
        for order, entry in enumerate(entries):
            self.add(order, entry)

    def add(self, order: int, entry: Entry) -> None:
        """File ``entry`` at ``order``, which must be past every order
        filed so far (the build loop and a tail append both are)."""
        self.order_of[id(entry)] = order
        lpm_pos = self.lpm_pos
        prefix_len, fast = self._classify(entry, lpm_pos)
        if not fast:
            tchecks, rchecks = compile_checks(entry, self.key_widths)
            self.residual.append((order, prefix_len, entry, tchecks, rchecks))
            return
        bucket = self.buckets.get(prefix_len)
        if bucket is None:
            bucket = self.buckets[prefix_len] = {}
            self.masks[prefix_len] = _prefix_mask(
                self.key_widths[lpm_pos], prefix_len
            )
            self.lengths = sorted(self.buckets, reverse=True)
        mask = self.masks[prefix_len]
        key = tuple(
            (spec[1] & mask if spec[0] == "lpm" else 0)
            if pos == lpm_pos
            else spec[1]
            for pos, spec in enumerate(entry.matches)
        )
        if key not in bucket:
            bucket[key] = (order, entry)

    @staticmethod
    def _classify(entry: Entry, lpm_pos: int) -> Tuple[int, bool]:
        prefix_len = 0
        fast = True
        for pos, spec in enumerate(entry.matches):
            if pos == lpm_pos:
                if spec[0] == "lpm":
                    prefix_len = spec[2]
                elif spec[0] != "any":
                    fast = False
            elif spec[0] != "exact":
                fast = False
        return prefix_len, fast

    def lookup(self, key_values) -> Optional[Entry]:
        key_values = tuple(key_values)
        lpm_pos = self.lpm_pos
        best_len, best_order, best_entry = -1, -1, None
        for prefix_len in self.lengths:
            probe = (
                key_values[:lpm_pos]
                + (key_values[lpm_pos] & self.masks[prefix_len],)
                + key_values[lpm_pos + 1 :]
            )
            hit = self.buckets[prefix_len].get(probe)
            if hit is not None:
                # Longest-first probing: no shorter bucket can win now.
                best_len, best_order, best_entry = prefix_len, hit[0], hit[1]
                break
        for order, prefix_len, entry, tchecks, rchecks in self.residual:
            if prefix_len < best_len or (prefix_len == best_len and order > best_order):
                continue
            if checks_match(key_values, tchecks, rchecks):
                best_len, best_order, best_entry = prefix_len, order, entry
        return best_entry


class _CompiledScan:
    """Ternary/range/mixed tables: priority-ordered scan over precompiled
    flat check tuples."""

    metric = "interp.lookup.scan"
    strategy = "compiled-scan"

    def __init__(
        self, entries: Sequence[Entry], key_widths: Sequence[int], has_lpm: bool
    ) -> None:
        self.key_widths = key_widths
        self.has_lpm = has_lpm
        self.rows: List[tuple] = []
        self.order_of: Dict[int, int] = {}
        self.memo: Dict[tuple, Optional[Entry]] = {}
        for order, entry in enumerate(entries):
            self.add(order, entry)

    def add(self, order: int, entry: Entry) -> None:
        """File ``entry`` at ``order`` — its position in ``rows``."""
        self.order_of[id(entry)] = order
        tchecks, rchecks = compile_checks(entry, self.key_widths)
        self.rows.append((entry.lpm_length(), entry, tchecks, rchecks))

    def lookup(self, key_values) -> Optional[Entry]:
        if not self.has_lpm:
            for _, entry, tchecks, rchecks in self.rows:
                if checks_match(key_values, tchecks, rchecks):
                    return entry
            return None
        best_entry = None
        best_len = -1
        for prefix_len, entry, tchecks, rchecks in self.rows:
            # Strict > keeps the earliest entry among equal lengths.
            if prefix_len > best_len and checks_match(key_values, tchecks, rchecks):
                best_entry, best_len = entry, prefix_len
        return best_entry


def _index_class(match_kinds: Sequence[str]):
    """The index a table with these match kinds builds: a pure function
    of the declaration, so reporting it needs no build."""
    if all(kind == "exact" for kind in match_kinds):
        return _ExactIndex
    if match_kinds.count("lpm") == 1 and all(
        kind in ("exact", "lpm") for kind in match_kinds
    ):
        return _LpmIndex
    return _CompiledScan


#: Keys a table's lookup memo holds before it is emptied and refilled.
_MEMO_CAP = 4096


class TableRuntime:
    """Runtime state of one MAT.

    ``actions`` is the composed program's action map.  Given it,
    :attr:`selectable_actions` resolves the table's own ``actions`` list
    (declaration order, ``NoAction`` implicit) to declarations: the only
    actions an entry or the default can name, and so the only ones an
    executor lowers under this table's apply.  Without it (a table built
    on its own) entries can be installed and looked up but not applied.
    """

    def __init__(
        self,
        decl: ast.TableDecl,
        use_index: bool = True,
        actions: Optional[Mapping[str, ast.ActionDecl]] = None,
    ) -> None:
        self.decl = decl
        self.name = decl.name
        self.match_kinds = [k.match_kind for k in decl.keys]
        self.key_exprs = tuple(k.expr for k in decl.keys)
        key_widths = getattr(decl, "_key_width_cache", None)
        if key_widths is None:
            key_widths = tuple(
                _width_of(k.expr, table=decl.name, key=_key_name(k.expr))
                for k in decl.keys
            )
            decl._key_width_cache = key_widths  # type: ignore[attr-defined]
        self.key_widths = key_widths
        self._key_names = [_key_name(k.expr) for k in decl.keys]
        self._has_lpm = "lpm" in self.match_kinds
        self.use_index = use_index
        self._index = None
        #: True while the table is exactly as declared — no runtime
        #: entry, declared default, scalar index built — so an apply
        #: site may take its answer from :meth:`declared_answers`.  Set
        #: by the first index build, cleared for good by any mutation.
        self.as_declared = False
        # Bumped on every mutation so batch executors that pre-compile
        # per-table lookup structures (the vector backend) can tell when
        # a cached structure is stale without comparing entry lists.
        self.version = 0
        # Bumped only by a mutation that is *not* a tail append — a
        # mid-list insert, a clear, a new default — with the reason
        # beside it.  A snapshot holder that finds ``version`` moved but
        # ``epoch`` not has missed nothing but ``combined[n:]``.
        self.epoch = 0
        self.epoch_reason = ""
        # Index maintenance per table, by metric name (see ``count_index_event``).
        self.index_events: Dict[str, int] = {}
        self.const_entries: List[Entry] = [
            self._convert_const_entry(e) for e in decl.const_entries
        ]
        self.runtime_entries: List[Entry] = []
        self.default_action = decl.default_action or "NoAction"
        self.default_args: List[int] = [
            _literal_value(a) for a in decl.default_action_args
        ]
        self.selectable_actions: Dict[str, ast.ActionDecl] = (
            self._resolve_actions(actions)
        )

    def _resolve_actions(
        self, actions: Optional[Mapping[str, ast.ActionDecl]]
    ) -> Dict[str, ast.ActionDecl]:
        """Check what the typechecker checks for source tables — the
        midend's synthesised parser/deparser MATs never pass it — so a
        bad table fails the build, not every packet."""
        static = [("default_action", self.default_action)] + [
            (f"const entry {i}", e.action_name)
            for i, e in enumerate(self.const_entries)
        ]
        for where, name in static:
            if name == "NoAction":
                continue
            if name not in self.decl.actions:
                code, why = "action-not-listed", "not in its actions list"
            elif actions is not None and name not in actions:
                code, why = "action-not-composed", "not a composed action"
            else:
                continue
            err = TargetError(
                f"table {self.name!r}: {where} names action {name!r}, "
                f"which is {why}"
            )
            err.code = code
            raise err
        if actions is None:
            return {}
        return {
            name: actions[name]
            for name in self.decl.actions
            if name != "NoAction" and name in actions
        }

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------
    def _convert_const_entry(self, entry: ast.TableEntry) -> Entry:
        matches = [
            _keyset_to_spec(ks, kind, width, table=self.name, key=name)
            for ks, kind, width, name in zip(
                entry.keysets, self.match_kinds, self.key_widths, self._key_names
            )
        ]
        return Entry(
            matches=matches,
            action_name=entry.action_name,
            action_args=[_literal_value(a) for a in entry.action_args],
            is_const=True,
        )

    def add_entry(
        self,
        matches: Sequence,
        action_name: str,
        action_args: Optional[Sequence[int]] = None,
        priority: int = 0,
    ) -> None:
        """Install a runtime entry.

        ``matches`` items may be: an int (exact), a ``(value, length)``
        tuple for lpm keys, a ``(value, mask)`` tuple for ternary keys, a
        ``(lo, hi)`` tuple for range keys, or ``None`` for don't-care.
        Values are masked to the key width; lpm prefix lengths, range
        bounds, the action and its argument count are validated here so
        bad entries fail at install time.

        An entry whose priority is no higher than any installed one's
        goes to the tail: no order moves, and a live index takes it in
        place.  Anything else shifts the orders behind it, so the index
        is dropped and ``epoch`` moves.
        """
        if len(matches) != len(self.match_kinds):
            raise TargetError(
                f"table {self.name!r}: {len(matches)} matches for "
                f"{len(self.match_kinds)} keys"
            )
        args = self._checked_action(action_name, action_args)
        specs: List[MatchSpec] = []
        for m, kind, width, name in zip(
            matches, self.match_kinds, self.key_widths, self._key_names
        ):
            specs.append(
                _runtime_match_to_spec(m, kind, width, table=self.name, key=name)
            )
        entry = Entry(
            matches=specs, action_name=action_name, action_args=args,
            priority=priority,
        )
        self.as_declared = False
        # Higher priority wins; insertion order among equals.
        entries = self.runtime_entries
        if entries and entries[-1].priority < priority:
            entries.insert(
                bisect_right([-e.priority for e in entries], -priority), entry
            )
            self._index = None
            self._new_epoch("reordered")
        else:
            entries.append(entry)
            self.version += 1
            if self._index is not None:
                self._index.add(
                    len(self.const_entries) + len(entries) - 1, entry
                )
                self._index.memo.clear()
                self.count_index_event("tables.index.appended")

    def set_default(self, action_name: str, args: Optional[Sequence[int]] = None) -> None:
        self.default_args = self._checked_action(action_name, args)
        self.default_action = action_name
        self.as_declared = False
        # No scalar index stores the default row (a miss reads it
        # live); only snapshots that copied it must notice.
        self._new_epoch("default")

    def clear_runtime_entries(self) -> None:
        self.runtime_entries = []
        self._index = None
        self.as_declared = False
        self._new_epoch("cleared")

    def _checked_action(
        self, action_name: str, args: Optional[Sequence[int]]
    ) -> List[int]:
        """``args`` as a list, once the table can select ``action_name``
        with that many arguments."""
        if action_name not in self.decl.actions and action_name != "NoAction":
            raise TargetError(
                f"table {self.name!r} has no action {action_name!r}"
            )
        args = list(args or [])
        decl = self.selectable_actions.get(action_name)
        if decl is not None and len(args) != len(decl.params):
            raise TargetError(
                f"table {self.name!r}: action {action_name!r} expects "
                f"{len(decl.params)} args, got {len(args)}"
            )
        return args

    def _new_epoch(self, reason: str) -> None:
        self.epoch += 1
        self.epoch_reason = reason
        self.version += 1
        if self._index is not None:
            self._index.memo.clear()

    def count_index_event(self, metric: str) -> None:
        """One index-maintenance event, per table (``index_info``) and
        in the process-wide counters."""
        self.index_events[metric] = self.index_events.get(metric, 0) + 1
        if METRICS.enabled:
            METRICS.inc(metric)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, key_values: Sequence[int]) -> Tuple[str, List[int], bool]:
        """Return ``(action, args, hit)`` for the given key values."""
        action, args, hit, _ = self.lookup_full(key_values)
        return action, args, hit

    def lookup_full(
        self, key_values: Sequence[int]
    ) -> Tuple[str, List[int], bool, Optional[Entry]]:
        """Like :meth:`lookup`, but also returns the matched entry (or
        ``None`` on a default-action miss) for packet tracing.

        The parser/deparser MATs are keyed on little more than packet
        length and traffic repeats keys, so the index sits behind a memo
        of what it answered for each key tuple since the last mutation.
        The memo changes only how the entry is found: counters, the
        live default row and the caller-owned ``args`` list are as on an
        index probe.
        """
        if not self.use_index:
            return self.lookup_scan_full(key_values)
        index = self._index
        if index is None:
            index = self._build_index()
        if METRICS.enabled:
            METRICS.inc(index.metric)
        if key_values.__class__ is not tuple:
            key_values = tuple(key_values)
        memo = index.memo
        entry = memo.get(key_values, memo)
        if entry is memo:
            entry = index.lookup(key_values)
            if len(memo) >= _MEMO_CAP:
                memo.clear()
            memo[key_values] = entry
        if entry is None:
            return self.default_action, list(self.default_args), False, None
        return entry.action_name, list(entry.action_args), True, entry

    def lookup_scan_full(
        self, key_values: Sequence[int]
    ) -> Tuple[str, List[int], bool, Optional[Entry]]:
        """Reference linear scan over ``const + runtime`` entries.

        This is the semantic ground truth the indexed strategies must
        reproduce; differential tests call it directly.
        """
        if METRICS.enabled:
            METRICS.inc("interp.lookup.scan")
        entry = self._scan_match(key_values)
        if entry is None:
            return self.default_action, list(self.default_args), False, None
        return entry.action_name, list(entry.action_args), True, entry

    def _scan_match(self, key_values: Sequence[int]) -> Optional[Entry]:
        key_widths = self.key_widths
        has_lpm = self._has_lpm
        best = None
        best_len = -1
        for entry in [*self.const_entries, *self.runtime_entries]:
            if not entry.matches_key(key_values, key_widths):
                continue
            if not has_lpm:
                return entry
            prefix_len = entry.lpm_length()
            # Longest prefix wins; equal lengths keep the first match in
            # the combined const-then-runtime priority order.
            if prefix_len > best_len:
                best, best_len = entry, prefix_len
        return best

    def _build_index(self):
        combined = [*self.const_entries, *self.runtime_entries]
        kind = _index_class(self.match_kinds)
        if kind is _ExactIndex:
            index = _ExactIndex(combined, self.key_widths)
        elif kind is _LpmIndex:
            index = _LpmIndex(
                combined, self.key_widths, self.match_kinds.index("lpm")
            )
        else:
            index = _CompiledScan(combined, self.key_widths, self._has_lpm)
        self._index = index
        self.as_declared = self.version == 0
        self.count_index_event("tables.index.rebuilt")
        return index

    def index_info(self) -> Dict[str, object]:
        """Strategy, entry stats and index-maintenance counts for
        reporting (CLI, control API).  A report builds no index, counts
        no event and leaves :attr:`as_declared` alone: the strategy
        follows from the match kinds."""
        info: Dict[str, object] = {
            "entries": len(self.const_entries) + len(self.runtime_entries),
            "indexed": self.use_index,
            "index_events": dict(self.index_events),
        }
        if self.use_index:
            info["strategy"] = _index_class(self.match_kinds).strategy
        else:
            info["strategy"] = "reference-scan"
        return info

    def entry_index(self, entry: Entry) -> int:
        """Position of an entry in the const+runtime priority order:
        the order the live index filed it at, else a scan."""
        if self._index is not None:
            return self._index.order_of.get(id(entry), -1)
        for index, candidate in enumerate(
            [*self.const_entries, *self.runtime_entries]
        ):
            if candidate is entry:
                return index
        return -1

    # ------------------------------------------------------------------
    # Answers while the table is as declared
    # ------------------------------------------------------------------
    def declared_form(self) -> Optional[Tuple[str, tuple]]:
        """How an apply site may answer this table while it is
        :attr:`as_declared`; None when it may not — no const entries, or
        an ``lpm`` key (longest prefix is not first match).

        ``("exact", ())``: every key is ``exact`` and every const entry
        names a value on each, so the answer is one probe of
        :meth:`declared_answers`' ``by_key`` on the key tuple.
        ``("chain", rows)``: per const entry in declaration order its
        :func:`compile_checks` pair; the first entry whose checks pass
        answers, else the default — ``_CompiledScan`` unrolled.  A fact
        of the declaration, the same for every runtime of one table.
        """
        if not self.const_entries or self._has_lpm:
            return None
        if all(kind == "exact" for kind in self.match_kinds) and all(
            spec[0] == "exact" for e in self.const_entries for spec in e.matches
        ):
            return ("exact", ())
        return ("chain", tuple(
            compile_checks(e, self.key_widths) for e in self.const_entries
        ))

    def declared_answers(self) -> "DeclaredAnswers":
        """This runtime's answers as declared, for the sites
        :meth:`declared_form` admits."""
        rows = tuple(
            (e.action_name, list(e.action_args), True, e)
            for e in self.const_entries
        )
        by_key: Dict[tuple, tuple] = {}
        if self.declared_form() == ("exact", ()):
            for entry, row in zip(self.const_entries, rows):
                # First entry per key wins, as in the scan.
                by_key.setdefault(tuple(s[1] for s in entry.matches), row)
        metric = (
            _index_class(self.match_kinds).metric
            if self.use_index
            else "interp.lookup.scan"
        )
        return DeclaredAnswers(
            by_key, rows,
            (self.default_action, list(self.default_args), False, None),
            metric,
        )

    def __repr__(self) -> str:
        return (
            f"TableRuntime({self.name!r}, {len(self.const_entries)} const + "
            f"{len(self.runtime_entries)} runtime entries)"
        )


def table_runtimes(composed, use_index: bool = True) -> Dict[str, TableRuntime]:
    """The tables of a composed pipeline, each resolved against the
    pipeline's actions; every executor builds its table state here."""
    return {
        name: TableRuntime(decl, use_index=use_index, actions=composed.actions)
        for name, decl in composed.tables.items()
    }


# ======================================================================
# Spec conversion helpers
# ======================================================================


def _key_name(expr: ast.Expr) -> str:
    """Dotted-path rendering of a key expression for error messages."""
    if isinstance(expr, ast.PathExpr):
        return expr.name
    if isinstance(expr, ast.MemberExpr):
        return f"{_key_name(expr.base)}.{expr.member}"
    if isinstance(expr, ast.SliceExpr):
        return f"{_key_name(expr.base)}[{expr.hi}:{expr.lo}]"
    if isinstance(expr, ast.BinaryExpr):
        return f"{_key_name(expr.left)}{expr.op}{_key_name(expr.right)}"
    return type(expr).__name__


def _width_of(expr: ast.Expr, table: str, key: str) -> int:
    t = expr.type
    if isinstance(t, ast.BitType):
        return t.width
    if isinstance(t, ast.BoolType):
        return 1
    raise TargetError(
        f"table {table!r} key {key!r}: match key has no bit width "
        f"(type {t!r}); only bit<W> and bool keys are matchable"
    )


def _literal_value(expr: ast.Expr) -> int:
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.BoolLit):
        return int(expr.value)
    if isinstance(expr, ast.PathExpr):
        decl = getattr(expr, "decl", None)
        value = getattr(decl, "value", None)
        if value is not None:
            return value
    raise TargetError("table entry arguments must be compile-time values")


def _keyset_to_spec(
    keyset: ast.Expr, kind: str, width: int, table: str, key: str
) -> MatchSpec:
    full_mask = (1 << width) - 1
    if isinstance(keyset, ast.DefaultExpr):
        return ("any",)
    if isinstance(keyset, ast.MaskExpr):
        if kind != "ternary":
            raise TargetError(
                f"table {table!r} key {key!r}: mask keyset on a {kind!r} "
                f"key (masks are only valid on ternary keys)"
            )
        mask = _literal_value(keyset.mask) & full_mask
        return ("ternary", _literal_value(keyset.value) & full_mask, mask)
    if isinstance(keyset, ast.RangeExpr):
        if kind != "range":
            raise TargetError(
                f"table {table!r} key {key!r}: range keyset on a {kind!r} "
                f"key (ranges are only valid on range keys)"
            )
        lo = _literal_value(keyset.lo) & full_mask
        hi = _literal_value(keyset.hi) & full_mask
        if lo > hi:
            raise TargetError(
                f"table {table!r} key {key!r}: empty range {lo}..{hi} "
                f"after masking to {width} bits"
            )
        return ("range", lo, hi)
    value = _literal_value(keyset) & full_mask
    if kind == "exact":
        return ("exact", value)
    if kind == "ternary":
        return ("ternary", value, full_mask)
    if kind == "lpm":
        return ("lpm", value, width)
    if kind == "range":
        return ("range", value, value)
    raise TargetError(f"unknown match kind {kind!r}")


def _runtime_match_to_spec(
    match, kind: str, width: int, table: str, key: str
) -> MatchSpec:
    full_mask = (1 << width) - 1
    if match is None:
        return ("any",)
    if isinstance(match, int):
        value = match & full_mask
        if kind == "exact":
            return ("exact", value)
        if kind == "ternary":
            return ("ternary", value, full_mask)
        if kind == "lpm":
            return ("lpm", value, width)
        if kind == "range":
            return ("range", value, value)
    if isinstance(match, tuple) and len(match) == 2:
        a, b = match
        if kind == "lpm":
            if not 0 <= b <= width:
                raise TargetError(
                    f"table {table!r} key {key!r}: lpm prefix length {b} "
                    f"out of range for a {width}-bit key"
                )
            return ("lpm", a & full_mask, b)
        if kind == "ternary":
            mask = b & full_mask
            return ("ternary", a & full_mask, mask)
        if kind == "range":
            lo = a & full_mask
            hi = b & full_mask
            if lo > hi:
                raise TargetError(
                    f"table {table!r} key {key!r}: empty range {lo}..{hi} "
                    f"after masking to {width} bits"
                )
            return ("range", lo, hi)
        raise TargetError(f"tuple match not valid for {kind!r} key")
    raise TargetError(f"cannot interpret match {match!r} for {kind!r} key")
