"""Codegen's columnwise tier: one batch as numpy columns over a SoA
lane arena.

The codegen backend's lane loop runs its one generated function over a
list of lanes: one call per batch, but still a Python loop over lanes.
A batch wide enough (``codegen._COLUMNWISE_MIN_LANES``) runs instead on
*one* columnwise function over the whole batch, generated by a subclass
of codegen's generator (:class:`ColumnwiseGen`): Stage A loads every
lane's byte stack into an arena (one row per lane, one column per
byte-stack cell), header fields become int64 column arrays sliced from
it, statements become mask-threaded numpy expressions in ``_vec_run``,
exact-match lookups become sorted-key ``searchsorted`` probes, and
LPM/ternary/range tables become per-entry masked compares mirroring the
reference scan's first-match / longest-prefix semantics.

Divergence splitting
--------------------

The lane loop interleaves *effects* (stores, traces, lookup counters)
with *faults* (injected trips, runtime errors) lane by lane; the
columnwise batch cannot, so :func:`run_columnwise` splits the two
phases:

1. **Speculate.**  Execute the whole batch columnwise with no RNG access
   and no externally visible side effects.  Every point where a lane
   *could* diverge — a fault site, a division by zero, a bad table
   entry, a byte-stack bounds violation — is recorded as an *event*
   carrying the lane mask it applies to, in program order.
2. **Resolve.**  Walk the recorded events lane-major (all of lane 0's
   events in program order, then lane 1's, ...), drawing from the
   per-site fault RNG streams exactly where the per-packet loop would
   have.  The first event that fires kills the lane; killed lanes are
   split out of the vector results and reported as ``(None, None, exc)``
   triples, identical to the codegen lane loop.
3. **Commit.**  Hit/miss counters and lookup metrics are counted from
   the bookkeeping events over the lanes that reached each lookup,
   honouring each lane's kill ordinal, so observable state matches
   per-packet execution bit for bit (DESIGN.md §15).

Fault sites whose rate is zero (or that resolve to no site) never draw
from the RNG in the per-packet path, so they are filtered out of the
walk statically — a fault-free batch skips the walk entirely.

The function is generated once per program (:func:`columnwise_module`:
on the first batch that asks, or by a pool before it forks), and each
executor instantiates it over its own tables.  Programs the generator
cannot lower (registers, multicast, generic externs, enum-typed state,
native parsers) *decline* then, with a reason; a batch whose static
step bound exceeds the configured step budget keeps its per-lane
accounting; a host without numpy (an optional extra, ``pip install
.[vector]``) has no tier.  Each of those batches takes the lane loop.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import Symbol
from repro.midend.bytestack import BS_INSTANCE, BS_LEN_VAR, PARSER_ERR_VAR
from repro.midend.inline import IM_VAR, PKT_VAR, ComposedPipeline
from repro.net.packet import Packet
from repro.obs.metrics import METRICS
from repro.targets.codegen import (
    GeneratedModule, SourceGen, compile_cached, generated_module,
)
from repro.targets.faults import FaultError, FaultPlan
from repro.targets.pipeline import PacketOut
from repro.targets.plan import IM_FAST
from repro.targets.tables import TableRuntime, checks_match, compile_checks

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _np
except Exception:  # pragma: no cover
    _np = None

NUMPY_AVAILABLE = _np is not None

# Entry count past which the vectorized compiled scan loses to the
# per-lane reference lookup (O(entries) column ops vs O(lanes) probes).
VECTOR_SCAN_LIMIT = 512

_I63 = 1 << 63
_HUGE = 1 << 62  # sentinel kill ordinal: later than any event


class _Unvectorizable(Exception):
    """The composed program uses a construct the columnwise generator
    does not lower (``args[0]`` says which); the pipeline falls back to
    the codegen lane loop."""


# ----------------------------------------------------------------------
# Small value helpers.  Values are Python scalars (uniform across lanes)
# or numpy arrays: int64 for narrow ints, object for widths > 63 bits,
# bool for conditions.  Masks are ``None`` (all lanes), ``False`` (no
# lanes) or a bool array.
# ----------------------------------------------------------------------


def _truthy(v):
    if isinstance(v, _np.ndarray):
        if v.dtype == _np.bool_:
            return v
        r = v != 0
        return r if r.dtype == _np.bool_ else r.astype(bool)
    if isinstance(v, bool):
        return v
    return bool(v)


def _toint(v):
    if isinstance(v, _np.ndarray):
        if v.dtype == _np.bool_:
            return v.astype(_np.int64)
        return v
    if isinstance(v, bool):
        return int(v)
    return v


def _obj(v):
    """Promote to arbitrary-precision elements (numpy object dtype /
    Python int) so > 63-bit arithmetic cannot overflow int64."""
    if isinstance(v, _np.ndarray):
        return v.astype(object) if v.dtype != object else v
    if isinstance(v, _np.integer):
        return int(v)
    return v


def _mw(v, mask: int):
    """``v & mask`` for a mask wider than int64: an int64 array already
    fits under it, and masking it with a > 63-bit Python int would
    overflow the dtype conversion."""
    v = _toint(v)
    if isinstance(v, _np.ndarray):
        return v & mask if v.dtype == object else v
    return int(v) & mask


def _mand(m, c):
    """Mask AND condition.  Returns ``None`` (all), ``False`` (none), or
    a bool array."""
    if isinstance(c, _np.ndarray):
        if c.dtype != _np.bool_:
            c = c.astype(bool)
        return c if m is None else (m & c)
    if c:
        return m
    return False


def _aslist(v, n):
    if isinstance(v, _np.ndarray):
        return v.tolist()
    return [v] * n


def _intarr(values):
    """int64 array, or object dtype when any value exceeds int64."""
    if any(abs(int(v)) >= _I63 for v in values):
        return _np.array([int(v) for v in values], dtype=object)
    return _np.array([int(v) for v in values], dtype=_np.int64)


def _mk_terr(msg: str):
    def make(_lane: int) -> TargetError:
        return TargetError(msg)
    return make


# ----------------------------------------------------------------------
# Per-table vectorized lookup structures
# ----------------------------------------------------------------------


class _VecIndex:
    """Vectorized lookup over one table's entry snapshot.

    Maps the whole batch's key columns to an entry *slot* per lane:
    0..E-1 in const-then-runtime priority order, -1 for a default-action
    miss.  Three strategies, all reproducing
    ``TableRuntime._scan_match`` semantics:

    * all-exact entries: keys encoded into one integer (object dtype for
      > 63-bit key tuples) and probed via sorted-array ``searchsorted``;
    * small mixed/lpm/ternary/range tables: per-entry masked compares in
      priority order (first match without lpm, strict longest-prefix
      with);
    * large non-exact tables: per-lane probes through the runtime's own
      index (or reference scan when indexing is disabled).

    The snapshot starts as the default row alone and every entry enters
    through :meth:`_file`; when :attr:`TableRuntime.version` moves,
    :meth:`extend` files what the table gained at its tail the same way,
    and only a mutation that cannot be expressed as such a delta costs a
    new snapshot.
    """

    def __init__(self, runtime: TableRuntime, arm_index: Dict[str, Tuple[int, int]]):
        self._runtime = runtime
        self._arms = arm_index
        self.version = runtime.version
        self.epoch = runtime.epoch
        self.name = runtime.name
        self.widths = tuple(runtime.key_widths)
        # One metric tick per counted lane, named after the probe the
        # per-packet runtime would have used for the same lookup.
        if runtime.use_index:
            index = runtime._index
            if index is None:
                index = runtime._build_index()
            self.metric = index.metric
        else:
            self.metric = "interp.lookup.scan"
        entries = [*runtime.const_entries, *runtime.runtime_entries]
        # The strategy holds for the snapshot's life: extend() refuses a
        # delta that would have chosen another one.
        if self._all_exact(entries):
            self.strategy = "exact-sorted"
            self.wide = sum(self.widths) > 63
            self.map: Dict[int, int] = {}
            self.keys_sorted = None
            self.slots_sorted = _np.empty(0, _np.int64)
        elif len(entries) <= VECTOR_SCAN_LIMIT:
            self.strategy = "masked-scan"
            self.has_lpm = runtime._has_lpm
            self.rows = []
        else:
            self.strategy = "per-lane"
        # Row data per slot; row -1 (the default action) is last, so
        # negative indexing resolves it on both lists and arrays.
        self.nentries = 0
        self.bad: List[tuple] = []
        default_args = list(runtime.default_args)
        self.aidx = _np.array(
            [self._arm(-1, runtime.default_action, default_args)], _np.int64
        )
        self.used = [a for a in self.aidx.tolist() if a >= 0]
        self.args = [_intarr([a]) for a in default_args]
        self._file(entries)

    def _all_exact(self, entries) -> bool:
        return all(k == "exact" for k in self._runtime.match_kinds) and all(
            sp[0] == "exact" for e in entries for sp in e.matches
        )

    def _arm(self, slot: int, action: str, args) -> int:
        """Action-arm number of one row: -1 for ``NoAction``, -2 (and a
        ``bad`` record that kills the lanes selecting it) for a row the
        table cannot run."""
        if action == "NoAction":
            return -1
        arm = self._arms.get(action)
        if arm is None:
            msg = f"table {self.name!r} selected unknown action {action!r}"
        elif len(args) != arm[1]:
            msg = f"action {action!r} expects {arm[1]} args, got {len(args)}"
        else:
            return arm[0]
        self.bad.append((slot, _mk_terr(msg)))
        return -2

    def _file(self, entries) -> None:
        """Append ``entries`` at slots ``nentries..``, the default row
        staying last: the one place a row enters the snapshot."""
        if not entries:
            return
        base = self.nentries
        self.nentries = base + len(entries)
        aidx = [
            self._arm(base + i, e.action_name, e.action_args)
            for i, e in enumerate(entries)
        ]
        self.aidx = _np.concatenate(
            [self.aidx[:-1], _np.array(aidx, _np.int64), self.aidx[-1:]]
        )
        self.used = sorted(set(self.used).union(a for a in aidx if a >= 0))
        while len(self.args) < max(len(e.action_args) for e in entries):
            self.args.append(_np.zeros(base + 1, _np.int64))
        for j, col in enumerate(self.args):
            new = _intarr([
                e.action_args[j] if j < len(e.action_args) else 0
                for e in entries
            ])
            # (int64 joins object as object: an argument >= 2**63.)
            self.args[j] = _np.concatenate([col[:-1], new, col[-1:]])
        if self.strategy == "masked-scan":
            self.rows.extend(
                (e.lpm_length(), base + i) + compile_checks(e, self.widths)
                for i, e in enumerate(entries)
            )
        elif self.strategy == "exact-sorted":
            fresh: Dict[int, int] = {}  # first entry per key wins
            for i, e in enumerate(entries):
                enc = self._fold([sp[1] for sp in e.matches])
                if enc not in self.map:
                    self.map[enc] = fresh[enc] = base + i
            if not fresh:
                return
            ordered = sorted(fresh)
            keys = _intarr(ordered)
            old = self.keys_sorted
            if old is None:
                old = _np.empty(0, keys.dtype)
            elif old.dtype != keys.dtype:  # a key >= 2**63 arrived
                old, keys = old.astype(object), keys.astype(object)
            pos = _np.searchsorted(old, keys)
            self.keys_sorted = _np.insert(old, pos, keys)
            self.slots_sorted = _np.insert(
                self.slots_sorted, pos, [fresh[k] for k in ordered]
            )

    def extend(self) -> Optional[str]:
        """Catch up with the table by filing what it gained at its tail.
        Returns the reason when only a new snapshot can: ``epoch`` moved
        (the runtime says why), or the delta changes the strategy."""
        runtime = self._runtime
        if runtime.epoch != self.epoch:
            return runtime.epoch_reason
        delta = runtime.runtime_entries[
            self.nentries - len(runtime.const_entries):
        ]
        if self.strategy == "exact-sorted" and not self._all_exact(delta):
            return "kind"
        if (self.strategy == "masked-scan"
                and self.nentries + len(delta) > VECTOR_SCAN_LIMIT):
            return "scan-limit"
        self._file(delta)
        self.version = runtime.version
        return None

    # -- key encoding (exact strategy) ---------------------------------
    def _fold(self, kv):
        enc = None
        for v, w in zip(kv, self.widths):
            v = _toint(v)
            if self.wide:
                v = _obj(v)
            enc = v if enc is None else ((enc << w) | v)
        return 0 if enc is None else enc

    def lookup(self, kv, n: int):
        """Slot per lane: int64 array, or a plain int when every key is
        uniform across the batch."""
        if self.strategy == "exact-sorted":
            enc = self._fold(kv)
            if not isinstance(enc, _np.ndarray):
                return self.map.get(int(enc), -1)
            if self.keys_sorted is None:
                return _np.full(n, -1, _np.int64)
            if self.wide and enc.dtype != object:
                enc = enc.astype(object)
            pos = _np.minimum(
                _np.searchsorted(self.keys_sorted, enc),
                len(self.keys_sorted) - 1,
            )
            found = self.keys_sorted[pos] == enc
            if found.dtype != _np.bool_:
                found = found.astype(bool)
            return _np.where(found, self.slots_sorted[pos], -1)
        if self.strategy == "masked-scan":
            return self._scan(kv, n)
        return self._per_lane(kv, n)

    def _scan(self, kv, n: int):
        kv = [_toint(v) for v in kv]
        if not any(isinstance(v, _np.ndarray) for v in kv):
            # Uniform keys: the reference scalar scan, verbatim.
            key = tuple(int(v) for v in kv)
            if not self.has_lpm:
                for _plen, order, tchecks, rchecks in self.rows:
                    if checks_match(key, tchecks, rchecks):
                        return order
                return -1
            best, best_len = -1, -1
            for plen, order, tchecks, rchecks in self.rows:
                if plen > best_len and checks_match(key, tchecks, rchecks):
                    best, best_len = order, plen
            return best
        slot = _np.full(n, -1, _np.int64)
        if not self.has_lpm:
            unassigned = _np.ones(n, bool)
            for _plen, order, tchecks, rchecks in self.rows:
                c = self._row_match(kv, tchecks, rchecks, n)
                take = unassigned & c
                if take.any():
                    slot[take] = order
                    unassigned &= ~c
                    if not unassigned.any():
                        break
            return slot
        best_len = _np.full(n, -1, _np.int64)
        for plen, order, tchecks, rchecks in self.rows:
            c = self._row_match(kv, tchecks, rchecks, n)
            upd = c & (plen > best_len)
            if upd.any():
                slot[upd] = order
                best_len[upd] = plen
        return slot

    @staticmethod
    def _row_match(kv, tchecks, rchecks, n: int):
        c = None
        for pos, mask, want in tchecks:
            v = kv[pos]
            if isinstance(v, _np.ndarray):
                if mask >= _I63 and v.dtype != object:
                    v = v.astype(object)
                cc = (v & mask) == want
                if cc.dtype != _np.bool_:
                    cc = cc.astype(bool)
            else:
                cc = (int(v) & mask) == want
                if not cc:
                    return _np.zeros(n, bool)
            c = cc if c is None else (c & cc)
        for pos, lo, hi in rchecks:
            v = kv[pos]
            cc = (lo <= v) & (v <= hi)
            if not isinstance(cc, _np.ndarray) and not cc:
                return _np.zeros(n, bool)
            c = cc if c is None else (c & cc)
        if c is None:
            return _np.ones(n, bool)
        if not isinstance(c, _np.ndarray):
            return _np.full(n, bool(c))
        return c

    def _per_lane(self, kv, n: int):
        runtime = self._runtime
        if runtime.use_index:
            index = runtime._index
            if index is None:
                index = runtime._build_index()
            probe = index.lookup
            slot_of = index.order_of
        else:
            probe = runtime._scan_match
            slot_of = {id(e): order for order, e in enumerate(
                [*runtime.const_entries, *runtime.runtime_entries]
            )}
        cols = [_aslist(_toint(v), n) for v in kv]
        slot = _np.full(n, -1, _np.int64)
        for lane in range(n):
            entry = probe(tuple(int(col[lane]) for col in cols))
            if entry is not None:
                slot[lane] = slot_of[id(entry)]
        return slot


# ----------------------------------------------------------------------
# Mask helpers bound into the generated namespace.  A mask is ``None``
# (every lane) or a bool array with at least one lane set; ``False``
# means "no lane", and the generated code never runs a body under it.
# ----------------------------------------------------------------------


def _where(m, v, old):
    return v if m is None else _np.where(m, v, old)


def _sub(m, c):
    """The lanes of ``m`` on which ``c`` holds, False when none."""
    if not isinstance(c, _np.ndarray):
        return m if c else False
    c = _mand(m, c)
    return c if c.any() else False


def _split(m, c):
    """``(then, else)`` masks of an ``if`` on ``c`` under ``m``; a side
    every live lane takes keeps ``m`` itself."""
    c = _truthy(c)
    tm, em = _sub(m, c), _sub(m, _not(c))
    if em is False:
        return m, False
    return (False, m) if tm is False else (tm, em)


def _join(lv, rv, is_and):
    if not isinstance(lv, _np.ndarray):
        return rv  # a uniform left side that did not short-circuit
    return (lv & rv) if is_and else (lv | rv)


def _not(v):
    v = _truthy(v)
    return (~v) if isinstance(v, _np.ndarray) else (not v)


def _exit(e, m, n):
    e = _np.zeros(n, bool) if e is None else e
    e |= True if m is None else m
    return e


def _vdrop(dropped, m):
    if m is not False:
        dropped |= True if m is None else m


def _vdiv(lv, rv, m, ev, wide, is_div):
    """``lv / rv`` or ``lv % rv`` before its mask; the lanes of ``m``
    that divide by zero record an error event instead."""
    z = rv == 0
    zm = _sub(m, z)
    if zm is not False:
        ev((zm, "E", _ZDIV if is_div else _ZMOD))
    rv = _np.where(z, 1, rv) if isinstance(z, _np.ndarray) else (1 if z else rv)
    if wide:
        lv, rv = _obj(lv), _obj(rv)
    return lv // rv if is_div else lv % rv


def _arm(m, vi, av, ai):
    """The lanes of ``m`` whose table row selected arm ``ai``; an arm no
    row of the snapshot selects costs no compare."""
    return _sub(m, av == ai) if ai in vi.used else False


def _targ(vi, j, slot):
    """Argument ``j`` of the selected rows: a gathered column, or a
    plain int for a uniform slot."""
    arg = vi.args[j][slot]
    return arg if isinstance(slot, _np.ndarray) or isinstance(arg, int) else int(arg)


class _VecTable:
    """One table apply site of one executor: the table and the
    snapshot (:class:`_VecIndex`) its lookups probe."""

    __slots__ = ("runtime", "arms", "index")

    def __init__(self, runtime: TableRuntime, arms: Dict[str, Tuple[int, int]]):
        self.runtime, self.arms, self.index = runtime, arms, None

    def lookup(self, m, n: int, kv, ev):
        """``(slot, hit, snapshot)``, after recording the hit/miss event
        and the lanes a bad row kills."""
        runtime, vi = self.runtime, self.index
        if vi is None or vi.version != runtime.version:
            why = "first" if vi is None else vi.extend()
            if why is None:
                runtime.count_index_event("vector.index.extended")
            else:
                vi = self.index = _VecIndex(runtime, self.arms)
                runtime.count_index_event(f"vector.index.rebuilt.{why}")
        slot = vi.lookup(kv, n)
        hit = slot >= 0
        ev((m, "T", vi, slot, hit))
        for bad_slot, make in vi.bad:
            bm = _sub(m, slot == bad_slot)
            if bm is not False:
                ev((bm, "E", make))
        return slot, hit, vi


_ZDIV = _mk_terr("division by zero in dataplane expression")
_ZMOD = _mk_terr("modulo by zero in dataplane expression")

#: The frame entry of ``im``, a name with no local (``SourceGen._find``).
_IM_ENTRY = (None, False, None)


# ----------------------------------------------------------------------
# The generator: one columnwise function per program
# ----------------------------------------------------------------------


class ColumnwiseGen(SourceGen):
    """Renders one composed micro program as ``_vec_run``, a function
    over a whole batch: each local holds a column (int64, object or bool
    array) or a scalar every lane shares.

    Frames, lane flattening, ``is_int``, operand order and most of the
    rendering are codegen's; ``_vec_run`` differs from a lane where a
    column does.  ``self.mask`` names the local that holds the lanes the
    code being emitted runs on (None: all): a store keeps the other
    lanes' values (``np.where`` only when a mask is live), ``if`` and
    ``switch`` split the mask, ``exit`` takes lanes out of it, values
    that could overflow int64 become object arrays, and fault sites,
    divisions by zero, bad table rows and lookups append events to
    ``events`` in program order.  A construct the columnwise form cannot
    express raises :class:`_Unvectorizable`; ``steps`` bounds the
    statements one packet runs (summed over sequences, maximised over
    alternatives).
    """

    _INT = "_toint"

    def __init__(self, composed: ComposedPipeline,
                 tables: Dict[str, TableRuntime], generated: GeneratedModule) -> None:
        super().__init__(composed, tables, generated.lane_vars)
        self.batch_ok = generated.batch_supported and composed.mode == "micro"
        self.namespace = {name: globals()[name] for name in (
            "_np", "_truthy", "_toint", "_obj", "_mw", "_mand", "_where", "_sub",
            "_split", "_join", "_not", "_exit", "_vdrop", "_vdiv", "_arm", "_targ",
        )}
        self.mask: Optional[str] = None
        self.steps = 0
        self.exits = False
        #: ``_VT…`` name of each table apply site -> its table.
        self.sites: Dict[str, str] = {}
        #: table -> {selectable action: (arm index, parameter count)}.
        self.arms: Dict[str, Dict[str, Tuple[int, int]]] = {}

    # -- masks and column values ---------------------------------------
    @property
    def _m(self) -> str:
        return self.mask or "None"

    @contextmanager
    def _on(self, mask: str):
        """A block on the lanes of ``mask``, skipped when there are none."""
        self.line(f"if {mask} is not False:")
        saved, self.mask = self.mask, mask
        with self.block():
            start = len(self._cur)
            yield
            if len(self._cur) == start:
                self.line("pass")
        self.mask = saved

    def _measured(self, emit) -> int:
        """The steps ``emit()`` adds; the count is left as it was."""
        before = self.steps
        emit()
        taken, self.steps = self.steps - before, before
        return taken

    def _assign(self, local: str, value: str) -> None:
        if self.mask is not None:
            value = f"_where({self.mask}, {value}, {local})"
        self.line(f"{local} = {value}")

    @staticmethod
    def _mask(s: str, width: int) -> str:
        mask = (1 << width) - 1
        return f"({s} & {mask})" if width <= 63 else f"_mw({s}, {mask})"

    @staticmethod
    def _widen(s: str, bits: Optional[int]) -> str:
        return s if bits is not None and bits <= 62 else f"_obj({s})"

    def _define(self, name: str, is_int: bool) -> str:
        ent = self._frames[-1].get(name)
        if ent is not None and ent[0] is None:
            raise _Unvectorizable(f"redeclared special name {name!r}")
        return super()._define(name, is_int)

    # -- entry point ---------------------------------------------------
    def generate(self) -> "ColumnwiseModule":
        if not (self.batch_ok and self.bs_scalar and self.bs_size > 0):
            raise _Unvectorizable("batch layout unsupported")
        self.line("def _vec_run(cols, lens, in_port, n):")
        with self.block():
            self._push_frame("pipeline")
            self._frames[-1].update({IM_VAR: _IM_ENTRY, PKT_VAR: (None, False)})
            cells = ", ".join(self.bs_locals)
            self.line(f"{cells}, = cols")
            self.line("_bsvld = True")
            for name, vtype in self.composed.variables.items():
                if name == BS_INSTANCE:
                    self._define_flat(
                        name, self.bs_layout, ("_bsvld",) + self.bs_locals
                    )
                elif isinstance(vtype, (ast.BitType, ast.BoolType)) or (
                        isinstance(vtype, ast.StructType) and name in self.flat):
                    SourceGen._default_init(self, name, vtype)
                elif isinstance(vtype, ast.StructType):
                    raise _Unvectorizable(
                        f"root variable {name!r}: {self.lane_vars.object_form[name]}"
                    )
                else:
                    raise _Unvectorizable(
                        f"root variable {name!r} of type {type(vtype).__name__}"
                    )
            blen = self._find(BS_LEN_VAR)
            if blen is not None and blen[0] is not None:
                self.line(f"{blen[0]} = lens")
            for text in ("events = []", "_ev = events.append",
                         "_dr = _np.zeros(n, bool)", "_op = 0", "_ex = None"):
                self.line(text)
            self.stmts(self.composed.statements)
            ends = [self._find(PARSER_ERR_VAR), self._find(BS_LEN_VAR)]
            if any(ent is None or ent[0] is None for ent in ends):
                raise _Unvectorizable("missing parser-error/byte-stack variables")
            self.line(
                f"return events, _dr, {ends[0][0]}, {ends[1][0]}, _op, ({cells},)"
            )
            self._pop_frame()
        source = self.render()
        return ColumnwiseModule(
            source, compile_cached(source, f"<vector:{self.composed.name}>"),
            self.namespace, self.sites, self.arms, self.steps,
            self.bs_size, self.bs_extract_len,
        )

    # -- statements ----------------------------------------------------
    def stmts(self, body) -> None:
        for s in body:
            if not self.exits:
                self.stmt(s)
                continue
            # Once a lane may have exited, each statement runs on the
            # lanes that have not.
            live = self.tmp()
            self.line(f"{live} = {self._m} if _ex is None else _sub({self._m}, ~_ex)")
            with self._on(live):
                self.stmt(s)

    def step(self) -> None:
        """Count the statement about to be emitted: in ``_vec_run`` the
        budget is checked once per batch, against this static bound."""
        self.steps += 1

    def _pure_done(self) -> None:
        pass

    def _default_init(self, name: str, t: ast.Type) -> bool:
        if not isinstance(t, (ast.BitType, ast.BoolType)):
            raise _Unvectorizable(
                f"declaration of {type(t).__name__} local {name!r}"
            )
        return super()._default_init(name, t)

    def stmt(self, s) -> None:
        if isinstance(s, ast.IfStmt):
            self.step()
            cond, then, other = self.expr(s.cond), self.tmp(), self.tmp()
            self.line(f"{then}, {other} = _split({self._m}, {cond})")
            with self._on(then):
                taken = self._measured(lambda: self.stmt(s.then_body))
            if s.else_body is not None:
                with self._on(other):
                    taken = max(taken, self._measured(lambda: self.stmt(s.else_body)))
            self.steps += taken
        elif isinstance(s, (ast.ExitStmt, ast.ReturnStmt)):
            self.step()
            self.line(f"_ex = _exit(_ex, {self._m}, n)")
            self.exits = True
        elif isinstance(s, (ast.BlockStmt, ast.AssignStmt, ast.VarDeclStmt,
                            ast.MethodCallStmt, ast.SwitchStmt, ast.EmptyStmt)):
            super().stmt(s)
        else:
            raise _Unvectorizable(f"statement {type(s).__name__}")

    def _switch_arms(self, arms, t: str) -> None:
        # ``arms`` holds one (matcher, body) per keyset, fallthrough
        # resolved; a matcher runs on the lanes no arm has taken yet.
        rem = self.tmp()
        self.line(f"{rem} = {self._m}")
        bound = 0
        for matcher, body in arms:
            run = (lambda b=body: self.stmt(b)) if body is not None else None
            with self._on(rem):
                if matcher is None:  # every lane left; later arms are dead
                    if run is not None:
                        bound = max(bound, self._measured(run))
                    break
                eq, taken = self.tmp(), self.tmp()
                self.line(f"{eq} = {self.expr(matcher)} == {t}")
                self.line(
                    f"{taken}, {rem} = _sub({rem}, {eq}), _sub({rem}, _not({eq}))"
                )
                if run is not None:
                    with self._on(taken):
                        bound = max(bound, self._measured(run))
        self.steps += bound

    def store(self, lhs, vs: str, v_int: bool, v_width: Optional[int] = None) -> None:
        if isinstance(lhs, ast.PathExpr):
            ent = self._find(lhs.name)
            if ent is None or ent[0] is None:
                raise _Unvectorizable(f"assignment to {lhs.name!r}")
        elif isinstance(lhs, ast.MemberExpr):
            leaf = self._flat_node(lhs)
            if leaf is None or leaf[0] != "val":
                raise _Unvectorizable(f"store to member of {type(lhs.base).__name__}")
        elif not isinstance(lhs, ast.SliceExpr):
            raise _Unvectorizable(f"lvalue {type(lhs).__name__}")
        super().store(lhs, vs, v_int, v_width)

    # -- expressions ---------------------------------------------------
    def expr(self, e) -> str:
        decl = getattr(e, "decl", None)
        const = isinstance(decl, Symbol) and decl.kind == "const"
        if isinstance(e, ast.PathExpr) and const:
            if not isinstance(decl.value, (bool, int)):
                what = type(decl.value).__name__
                raise _Unvectorizable(f"const {e.name!r} of {what}")
        elif isinstance(e, ast.PathExpr):
            ent = self._find(e.name)
            if ent is None or ent[0] is None:
                raise _Unvectorizable(f"read of {e.name!r}")
        elif isinstance(e, ast.MemberExpr):
            decl = getattr(e.base, "decl", None)
            if (isinstance(e.base, ast.PathExpr) and isinstance(decl, Symbol)
                    and decl.kind == "type" and isinstance(decl.type, ast.EnumType)):
                raise _Unvectorizable("enum member value")
            leaf = self._flat_node(e)
            if leaf is None or leaf[0] != "val":
                raise _Unvectorizable(f"member of {type(e.base).__name__}")
        elif isinstance(e, ast.CastExpr) and isinstance(e.target, ast.BoolType):
            return f"_truthy({self.expr(e.operand)})"
        elif isinstance(e, ast.CastExpr) and not isinstance(e.target, ast.BitType):
            raise _Unvectorizable(f"cast to {e.target}")
        elif not isinstance(e, (ast.IntLit, ast.BoolLit, ast.SliceExpr, ast.CastExpr,
                                ast.UnaryExpr, ast.BinaryExpr, ast.MethodCallExpr)):
            raise _Unvectorizable(f"expression {type(e).__name__}")
        return super().expr(e)

    def _unary(self, e) -> str:
        if e.op == "!":
            return f"_not({self.expr(e.operand)})"
        t = e.type if e.type else e.operand.type
        if not isinstance(t, ast.BitType):
            raise _Unvectorizable(f"unary {e.op!r} on {t}")
        if e.op not in ("~", "-"):
            self.expr(e.operand)
            raise _Unvectorizable(f"unary op {e.op!r}")
        return super()._unary(e)

    def _binary(self, e) -> str:
        op = e.op
        if op in ("&&", "||"):
            is_and, lv, rm = op == "&&", self.tmp(), self.tmp()
            self.line(f"{lv} = _truthy({self.expr(e.left)})")
            # The right side runs on the lanes the per-packet code
            # evaluates it for, so its events stay masked.
            cond = lv if is_and else f"_not({lv})"
            self.line(f"{rm} = _sub({self._m}, {cond})")
            with self._on(rm):
                rs = self.expr(e.right)
                self.line(f"{lv} = _join({lv}, _truthy({rs}), {is_and})")
            return lv
        if op in self._CMP or op in ("&", "|", "^", ">>"):
            return super()._binary(e)
        if op == "++":
            why = None if isinstance(e.right.type, ast.BitType) else (
                "concat operand without bit width")
        elif not isinstance(e.type, ast.BitType):
            why = f"result of {op!r} without bit width"
        else:
            why = None if op in ("+", "-", "*", "<<", "/", "%") else f"binary op {op!r}"
        if why is not None:
            self._eval_all([e.left, e.right])
            raise _Unvectorizable(why)
        if op not in ("/", "%"):
            return super()._binary(e)
        ls, rs = self._eval_all([e.left, e.right])
        q, w = self.tmp(), e.type.width
        self.line(
            f"{q} = _vdiv({self.as_int(e.left, ls)}, {self.as_int(e.right, rs)}, "
            f"{self._m}, _ev, {w > 63}, {op == '/'})"
        )
        return self._mask(q, w)

    # -- calls ---------------------------------------------------------
    def call(self, c) -> str:
        resolved = getattr(c, "resolved", None)
        if resolved is None:
            raise _Unvectorizable("unresolved call")
        if resolved[0] not in ("header_op", "table", "action", "extern"):
            raise _Unvectorizable(f"call kind {resolved[0]!r}")
        return super().call(c)

    def _header_op(self, c, op: str) -> str:
        hdr = self._flat_node(c.target.base)
        if hdr is None or hdr[0] != "hdr":
            raise _Unvectorizable(f"header op on {type(c.target.base).__name__}")
        if op not in ("isValid", "setValid", "setInvalid"):
            raise _Unvectorizable(f"header op {op!r}")
        return super()._header_op(c, op)

    def _action_call(self, c, adecl) -> str:
        if len(c.args) != len(adecl.params):
            raise _Unvectorizable(f"action {adecl.name!r} arity mismatch")
        return super()._action_call(c, adecl)

    def _extern(self, c, extern: str, method: str) -> str:
        if extern != "im_t":
            raise _Unvectorizable(f"extern {extern!r}")
        base = c.target.base
        if not (isinstance(base, ast.PathExpr) and self._find(base.name) is _IM_ENTRY):
            raise _Unvectorizable("im_t call on a non-metadata value")
        if method not in IM_FAST or len(c.args) > 1 or (
                method == "set_out_port") != (len(c.args) == 1):
            raise _Unvectorizable(f"im_t method {method!r}")
        fmsg = f"injected fault in extern 'im_t'.{method}"
        self.line(f"_ev(({self._m}, 'F', 'extern', 'im_t', {fmsg!r}, 'extern:im_t'))")
        if method == "drop":
            self.line(f"_vdrop(_dr, {self._m})")
        elif method == "set_out_port":
            port = self.tmp()
            self.line(f"{port} = {self.as_int(c.args[0], self.expr(c.args[0]))}")
            self._assign("_op", port)
            self.line(f"_vdrop(_dr, _mand({self._m}, {port} == 255))")
        else:
            got = self.tmp()
            self.line(f"{got} = {'_op' if method == 'get_out_port' else 'in_port'}")
            return got
        return "None"

    def _table_apply(self, decl) -> str:
        runtime = self.tables.get(decl.name)
        if runtime is None:
            raise _Unvectorizable(f"table {decl.name!r} without runtime")
        name, site = runtime.name, f"_VT{len(self.sites)}"
        self.sites[site] = name
        fmsg = f"injected lookup failure in table {name!r}"
        self.line(f"_ev(({self._m}, 'F', 'table', {name!r}, {fmsg!r}, "
                  f"{'table:' + name!r}))")
        keys = "".join(k + ", " for k in self._eval_all(list(runtime.key_exprs)))
        slot, hit, vi, av = self.tmp(), self.tmp(), self.tmp(), self.tmp()
        self.line(f"{slot}, {hit}, {vi} = {site}.lookup({self._m}, n, ({keys}), _ev)")
        self.line(f"{av} = {vi}.aidx[{slot}]")
        arms = self.arms[name] = {}
        bound = 0
        for ai, (aname, adecl) in enumerate(runtime.selectable_actions.items()):
            arms[aname] = (ai, len(adecl.params))
            lanes = self.tmp()
            self.line(f"{lanes} = _arm({self._m}, {vi}, {av}, {ai})")
            with self._on(lanes):
                self._push_frame(f"action {aname!r}")
                for j, p in enumerate(adecl.params):
                    # Gathered for every lane; reads are masked to this
                    # arm's lanes, so the other rows are inert.
                    local = self._define(p.name, False)
                    self.line(f"{local} = _targ({vi}, {j}, {slot})")
                body = adecl.body.stmts
                bound = max(bound, self._measured(lambda: self.stmts(body)))
                self._pop_frame()
        self.steps += bound
        return hit


@dataclass(frozen=True)
class ColumnwiseModule:
    """What columnwise generation yields for one program: ``_vec_run``'s
    text and code object, the ``_VT…`` apply sites and each table's
    arms, the static ``step_bound`` (a batch runs columnwise only under
    a step budget it cannot reach) and the arena shape Stage A loads."""

    source: str
    code: Any
    shared: Dict[str, object]
    sites: Dict[str, str]
    arms: Dict[str, Dict[str, Tuple[int, int]]]
    step_bound: int
    size: int
    extract_len: int

    def instantiate(self, tables: Dict[str, TableRuntime]):
        """``_vec_run`` over ``tables``, with snapshots of its own."""
        ns = dict(self.shared)
        for site, name in self.sites.items():
            ns[site] = _VecTable(tables[name], self.arms[name])
        exec(self.code, ns)
        return ns["_vec_run"]


def columnwise_module(composed: ComposedPipeline, tables: Dict[str, TableRuntime]):
    """The columnwise module of ``composed``, or why it has none: made
    once per program object (``tables``: any executor's, see
    :class:`SourceGen`), counted as ``vector.plan_built`` / ``_declined``."""
    module = composed.derived.get("columnwise_module")
    if module is None:
        generated = generated_module(composed, tables)
        try:
            module = ColumnwiseGen(composed, tables, generated).generate()
        except _Unvectorizable as exc:
            module = exc.args[0]
        composed.derived["columnwise_module"] = module
        if METRICS.enabled:
            declined = isinstance(module, str)
            METRICS.inc(f"vector.plan_{'declined' if declined else 'built'}")
    return module


# ----------------------------------------------------------------------
# The batch: speculate, resolve, commit
# ----------------------------------------------------------------------


def run_columnwise(pipe, datas, ports, pkts):
    """One batch of a :class:`~repro.targets.codegen.CodegenPipeline`
    on its columnwise tier: the lanes' ``(outputs, reason, exc)``
    triples, or the reason the batch takes the lane loop instead —
    ``no-numpy``, ``declined`` (the program has no columnwise module),
    ``step-bound`` (the budget could fire inside the batch) or
    ``error`` (speculation raised; the lane loop replays it bit-exact).

    The module is generated on the first batch that asks (or by a pool
    before it forks) and instantiated once per executor, over its own
    tables, into ``pipe._vec``."""
    if _np is None:
        return "no-numpy"
    tier = pipe._vec
    if tier is None:
        module = columnwise_module(pipe.composed, pipe.tables)
        tier = pipe._vec = "declined" if isinstance(module, str) else (
            module, module.instantiate(pipe.tables))
    if tier == "declined":
        return tier
    plan, vec_run = tier
    if plan.step_bound > pipe.step_limit:
        return "step-bound"
    n = len(datas)
    E, S = plan.extract_len, plan.size
    try:
        # Stage A: the lanes' first E bytes as one uint8 matrix, a
        # widened column per byte-stack cell.
        cols: List[object] = []
        if E > 0:
            buf = b"".join([d[:E].ljust(E, b"\x00") for d in datas])
            arena = _np.frombuffer(buf, _np.uint8).reshape(n, E)
            cols = [arena[:, i].astype(_np.int64) for i in range(E)]
        cols.extend([0] * (S - E))
        lens = _np.minimum(_np.fromiter(map(len, datas), _np.int64, count=n), E)
        # Stage B, speculation, is pure: no RNG draws, no trace or
        # counter writes.
        events, dropped, perr, out_len, out_port, cols = vec_run(
            cols, lens, _np.asarray(ports, dtype=_np.int64), n
        )
        pe = _np.zeros(n, bool) | (perr == 1)
        drop = dropped | pe
        obm = ~drop & ((out_len > S) | (out_len < 0))
        if obm.any():
            lengths = _aslist(out_len, n)
            events.append((obm, "E", lambda lane: FaultError(
                "bytestack-bounds", "byte-stack length %d outside stack "
                "size %d" % (lengths[lane], S),
            )))
    except Exception:
        return "error"

    metrics_on = METRICS.enabled
    if metrics_on:
        METRICS.inc("codegen.packets", n)
        pipe._lat_tick += n
    pipe.last_drop_reason = None
    kill = _resolve_events(pipe.faults, events, n)
    hits, misses = _commit_bookkeeping(events, kill, n, metrics_on)
    pipe._hits_out, pipe._misses_out = hits, misses
    if metrics_on:
        if hits:
            METRICS.inc("codegen.table_hits", hits)
        if misses:
            METRICS.inc("codegen.table_misses", misses)
        if kill:
            METRICS.inc("vector.split_lanes", len(kill))

    # Stage C: deparse everything columnwise, slice per lane.
    mat = _np.zeros((n, S), _np.uint8)
    for i, col in enumerate(cols):
        if isinstance(col, _np.ndarray) or col:
            mat[:, i] = col
    buf = mat.tobytes()
    drop_list = drop.tolist()
    for lane in kill:  # no output to build: replaced below
        drop_list[lane] = True
    results = [
        ([], "parser-error" if parse_error else "pipeline-drop", None)
        if dropped else
        ([PacketOut(Packet(buf[start:start + length] + data[E:]), port)],
         None, None)
        for start, data, dropped, parse_error, port, length in zip(
            range(0, n * S, S), datas, drop_list, pe.tolist(),
            _aslist(out_port, n), _aslist(out_len, n),
        )
    ]
    for lane, (_ordinal, exc) in kill.items():
        results[lane] = (None, None, exc)
    return results


def _resolve_events(faults: Optional[FaultPlan], events, n: int):
    """Lane-major walk over fault/error events, drawing from the
    per-site RNG streams in exactly the per-packet order.  Returns
    ``{lane: (event_ordinal, exc)}`` for lanes that die."""
    cand = []
    for ordinal, ev in enumerate(events):
        kind = ev[1]
        if kind == "T":
            continue
        if kind == "F":
            # Sites that cannot draw never touch the RNG per packet
            # either (trip() returns before sampling), so they are
            # exact to skip.
            if faults is None:
                continue
            site = faults._site_for(ev[2], ev[3])
            if site is None or faults.sites.get(site, 0.0) <= 0.0:
                continue
        m = ev[0]
        ml = None if m is None else m.tolist()
        cand.append((ordinal, ml, kind, ev))
    if not cand:
        return {}
    kill: Dict[int, tuple] = {}
    trip = faults.trip if faults is not None else None
    for lane in range(n):
        for ordinal, ml, kind, ev in cand:
            if ml is not None and not ml[lane]:
                continue
            if kind == "E":
                kill[lane] = (ordinal, ev[2](lane))
                break
            if trip(ev[2], ev[3]):
                kill[lane] = (
                    ordinal,
                    FaultError("extern-fault", ev[4], site=ev[5]),
                )
                break
    return kill


def _commit_bookkeeping(events, kill, n: int, metrics_on: bool):
    """``(hits, misses)`` over the lanes that reached each lookup —
    masked in and not killed at an earlier ordinal — the totals
    per-lane execution produces; the lookup metrics are counted the
    same way."""
    kill_at = None
    if kill:
        kill_at = _np.full(n, _HUGE, dtype=_np.int64)
        for lane, (ordinal, _exc) in kill.items():
            kill_at[lane] = ordinal
    hits = misses = 0
    for ordinal, ev in enumerate(events):
        if ev[1] != "T":
            continue
        live, _k, vi, _slot, hit = ev
        if kill_at is not None:
            live = _mand(live, kill_at > ordinal)
        counted = n if live is None else int(live.sum())
        if not counted:
            continue
        if isinstance(hit, _np.ndarray):
            h = int((hit if live is None else hit & live).sum())
        else:
            h = counted if hit else 0
        hits += h
        misses += counted - h
        if metrics_on:
            METRICS.inc(vi.metric, counted)
    return hits, misses
