"""Vectorized numpy execution backend over a SoA lane arena.

The codegen backend's batch path runs its one generated function over a
list of lanes: one call per batch, but still a Python loop over lanes.
This backend replaces the loop with *one* columnwise program over the
whole batch: Stage A loads every lane's byte stack into an arena it
builds itself (:class:`~repro.targets.codegen.SoaLayout` gives its
shape), header fields become int64 column arrays sliced from it,
statements become mask-threaded numpy closures, exact-match lookups
become sorted-key ``searchsorted`` probes, and LPM/ternary/range tables
become per-entry masked compares mirroring the reference scan's
first-match / longest-prefix semantics.

Divergence splitting
--------------------

The per-packet backends interleave *effects* (stores, traces, lookup
counters) with *faults* (injected trips, runtime errors) lane by lane;
the vector path cannot, so it splits the two phases:

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
   per-packet execution bit for bit (DESIGN.md §15/§16).

Fault sites whose rate is zero (or that resolve to no site) never draw
from the RNG in the per-packet path, so they are filtered out of the
walk statically — a fault-free batch skips the walk entirely.

Pipelines the compiler cannot lower (registers, multicast, generic
externs, enum-typed state, native parsers) *decline* at build time and
fall back to the inherited codegen lane loop; batches whose static
step bound exceeds the configured step budget fall back per batch so
step-budget kills keep their per-lane accounting.  numpy itself is an
optional extra (``pip install .[vector]``); constructing the backend
without it raises a reason-coded ``error[vector-unavailable]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import TargetError
from repro.frontend import astnodes as ast
from repro.frontend.typecheck import Symbol
from repro.midend.bytestack import BS_INSTANCE, BS_LEN_VAR, PARSER_ERR_VAR
from repro.midend.inline import IM_VAR, PKT_VAR, ComposedPipeline
from repro.net.packet import Packet
from repro.obs.metrics import METRICS
from repro.targets.codegen import CodegenPipeline
from repro.targets.faults import FaultError, FaultPlan, ResourceGuards
from repro.targets.lanes import LaneVars, resolve_member
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
    """The composed program uses a construct the columnwise compiler
    does not lower; the pipeline falls back to the codegen lane loop."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


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


def _masker(width: int):
    """``v & ((1 << width) - 1)`` honouring int64 limits: for wide
    fields an int64 array already fits under the mask, and masking it
    with a > 63-bit Python int would overflow the dtype conversion."""
    mask = (1 << width) - 1
    if width <= 63:
        def apply(v, _mask=mask):
            return _toint(v) & _mask
    else:
        def apply(v, _mask=mask):
            v = _toint(v)
            if isinstance(v, _np.ndarray):
                return v & _mask if v.dtype == object else v
            return int(v) & _mask
    return apply


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


def _many(m) -> bool:
    if m is None:
        return True
    if m is False:
        return False
    return bool(m.any())


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
# Runtime context + compiled plan
# ----------------------------------------------------------------------


class _Ctx:
    __slots__ = (
        "n", "cols", "bsvld", "slots", "in_port", "out_port",
        "dropped", "exited", "events",
    )


class _VectorPlan:
    """Compiled columnwise program: Stage A (arena load) plus the
    mask-threaded statement closures.  ``step_bound`` is a conservative
    static bound on the per-packet statement count, used to gate batches
    whose step budget could actually kill a lane."""

    __slots__ = (
        "size", "extract_len", "nslots", "consts", "body",
        "step_bound", "perr_slot", "bslen_slot",
    )

    def __init__(self, size, extract_len, nslots, consts, body,
                 step_bound, perr_slot, bslen_slot):
        self.size = size
        self.extract_len = extract_len
        self.nslots = nslots
        self.consts = consts
        self.body = body
        self.step_bound = step_bound
        self.perr_slot = perr_slot
        self.bslen_slot = bslen_slot

    def run(self, datas, ports):
        n = len(datas)
        E, S = self.extract_len, self.size
        cols: List[object] = []
        if E > 0:
            buf = b"".join(
                d if len(d) == E else
                (d[:E] if len(d) > E else d.ljust(E, b"\x00"))
                for d in datas
            )
            arena = _np.frombuffer(buf, _np.uint8).reshape(n, E)
            cols = [arena[:, i].astype(_np.int64) for i in range(E)]
        cols.extend([0] * (S - E))
        lens = _np.fromiter(
            (len(d) if len(d) < E else E for d in datas), _np.int64, count=n
        )
        ctx = _Ctx()
        ctx.n = n
        ctx.cols = cols
        ctx.bsvld = True
        ctx.slots = slots = [None] * self.nslots
        for s, v in self.consts:
            slots[s] = v
        slots[self.bslen_slot] = lens
        ctx.in_port = _np.asarray(ports, dtype=_np.int64)
        ctx.out_port = 0
        ctx.dropped = _np.zeros(n, bool)
        ctx.exited = None
        ctx.events = []
        self.body(ctx, None)
        return ctx, [d[E:] for d in datas]


# ----------------------------------------------------------------------
# The compiler: AST -> mask-threaded closures
# ----------------------------------------------------------------------


class _VectorCompiler:
    """Lowers the composed micro statements to closures ``f(ctx, mask)``.

    Frames mirror ``_SourceGen``'s scope semantics exactly (same-frame
    redeclaration reuses the slot, sibling blocks get fresh slots), so
    slot liveness matches the generated per-lane code.  Values are
    computed for *all* lanes; masks gate stores, events and control
    flow.  Anything the model cannot express raises
    :class:`_Unvectorizable` with a reason, and the whole plan declines.
    """

    _CMP = {"==", "!=", "<", "<=", ">", ">="}

    def __init__(self, composed: ComposedPipeline, tables: Dict[str, TableRuntime],
                 layout, lane_vars: LaneVars) -> None:
        self.composed = composed
        self.tables = tables
        self.layout = layout
        self.lane_vars = lane_vars
        self._frames: List[Dict[str, object]] = []
        self.nslots = 0

    # -- scopes --------------------------------------------------------
    def _push_frame(self) -> None:
        self._frames.append({})

    def _pop_frame(self) -> None:
        self._frames.pop()

    def _define(self, name: str) -> int:
        frame = self._frames[-1]
        ent = frame.get(name)
        if isinstance(ent, int):
            return ent
        if ent is not None:
            raise _Unvectorizable(f"redeclared special name {name!r}")
        slot = self.nslots
        self.nslots += 1
        frame[name] = slot
        return slot

    def _define_special(self, name: str, marker: str) -> None:
        self._frames[-1][name] = marker

    def _find(self, name: str):
        for frame in reversed(self._frames):
            if name in frame:
                return frame[name]
        return None

    # -- entry point ---------------------------------------------------
    def build(self) -> _VectorPlan:
        layout = self.layout
        if not layout.batch_ok:
            raise _Unvectorizable("batch layout unsupported")
        consts: List[Tuple[int, object]] = []
        self._push_frame()
        self._define_special(IM_VAR, "__IM__")
        self._define_special(PKT_VAR, "__PKT__")
        for name, vtype in self.composed.variables.items():
            if name == BS_INSTANCE:
                self._define_special(name, "__BS__")
                continue
            if isinstance(vtype, ast.BitType):
                consts.append((self._define(name), 0))
            elif isinstance(vtype, ast.BoolType):
                consts.append((self._define(name), False))
            elif isinstance(vtype, ast.StructType):
                # Parsed-header structs take the flattened form the
                # per-lane body uses: one slot per cell (lanes.py).
                flat = self.lane_vars.flat.get(name)
                if flat is None:
                    raise _Unvectorizable(
                        f"root variable {name!r}: "
                        f"{self.lane_vars.object_form[name]}"
                    )
                base = self.nslots
                self.nslots += len(flat.widths)
                consts.extend(
                    (base + cell, 0 if width is not None else False)
                    for cell, width in enumerate(flat.widths)
                )
                self._define_special(
                    name,
                    ("__STRUCT__", flat.bind(range(base, self.nslots))),
                )
            else:
                raise _Unvectorizable(
                    f"root variable {name!r} of type {type(vtype).__name__}"
                )
        body, steps = self.stmts(self.composed.statements)
        perr = self._find(PARSER_ERR_VAR)
        blen = self._find(BS_LEN_VAR)
        self._pop_frame()
        if not isinstance(perr, int) or not isinstance(blen, int):
            raise _Unvectorizable("missing parser-error/byte-stack variables")
        return _VectorPlan(
            layout.size, layout.extract_len, self.nslots, tuple(consts),
            body, steps, perr, blen,
        )

    # -- flattened structs/headers -------------------------------------
    def _struct_root(self, name: str):
        ent = self._find(name)
        if isinstance(ent, tuple) and ent[0] == "__STRUCT__":
            return ent[1]
        return None

    def _resolve_member(self, e) -> Optional[tuple]:
        """Compile-time resolution of a member chain rooted at a
        flattened struct variable; ``None`` when the chain is rooted
        elsewhere."""
        return resolve_member(e, self._struct_root)

    # -- statements ----------------------------------------------------
    def stmts(self, body) -> Tuple[object, int]:
        fns = []
        total = 0
        for s in body:
            fn, st = self.stmt(s)
            if fn is not None:
                fns.append(fn)
            total += st

        def run(ctx, m, _fns=tuple(fns)):
            for f in _fns:
                e = ctx.exited
                if e is None:
                    f(ctx, m)
                else:
                    # A lane that hit exit/return skips everything after.
                    m2 = ~e if m is None else (m & ~e)
                    if m2.any():
                        f(ctx, m2)
        return run, total

    def stmt(self, s) -> Tuple[Optional[object], int]:
        if isinstance(s, ast.BlockStmt):
            self._push_frame()
            fn, st = self.stmts(s.stmts)
            self._pop_frame()
            return fn, st + 1
        if isinstance(s, ast.AssignStmt):
            v, vst = self.expr(s.rhs)
            store, sst = self.store(s.lhs)

            def run(ctx, m, _v=v, _store=store):
                _store(ctx, m, _v(ctx, m))
            return run, vst + sst + 1
        if isinstance(s, ast.VarDeclStmt):
            if s.init is not None:
                v, vst = self.expr(s.init)
                slot = self._define(s.name)

                def run(ctx, m, _v=v, _slot=slot):
                    # Full-width store: the slot is fresh per batch, and
                    # lanes outside the mask never reach a read of it.
                    ctx.slots[_slot] = _v(ctx, m)
                return run, vst + 1
            t = s.var_type
            if isinstance(t, ast.BitType):
                init = 0
            elif isinstance(t, ast.BoolType):
                init = False
            else:
                raise _Unvectorizable(
                    f"declaration of {type(t).__name__} local {s.name!r}"
                )
            slot = self._define(s.name)

            def run(ctx, m, _slot=slot, _init=init):
                ctx.slots[_slot] = _init
            return run, 1
        if isinstance(s, ast.MethodCallStmt):
            v, vst = self.call(s.call)

            def run(ctx, m, _v=v):
                _v(ctx, m)
            return run, vst + 1
        if isinstance(s, ast.IfStmt):
            c, cst = self.expr(s.cond)
            tfn, tst = self.stmt(s.then_body)
            if s.else_body is not None:
                efn, est = self.stmt(s.else_body)
            else:
                efn, est = None, 0

            def run(ctx, m, _c=c, _t=tfn, _e=efn):
                cv = _truthy(_c(ctx, m))
                if not isinstance(cv, _np.ndarray):
                    if cv:
                        if _t is not None:
                            _t(ctx, m)
                    elif _e is not None:
                        _e(ctx, m)
                    return
                tm = cv if m is None else (m & cv)
                em = ~cv if m is None else (m & ~cv)
                t_any = bool(tm.any())
                e_any = bool(em.any())
                if t_any and not e_any:
                    if _t is not None:
                        _t(ctx, m)
                elif e_any and not t_any:
                    if _e is not None:
                        _e(ctx, m)
                else:
                    if t_any and _t is not None:
                        _t(ctx, tm)
                    if e_any and _e is not None:
                        _e(ctx, em)
            return run, cst + 1 + max(tst, est)
        if isinstance(s, ast.SwitchStmt):
            return self._switch(s)
        if isinstance(s, ast.EmptyStmt):
            return None, 1
        if isinstance(s, (ast.ExitStmt, ast.ReturnStmt)):
            def run(ctx, m):
                e = ctx.exited
                if e is None:
                    e = ctx.exited = _np.zeros(ctx.n, bool)
                if m is None:
                    e[:] = True
                else:
                    e |= m
            return run, 1
        raise _Unvectorizable(f"statement {type(s).__name__}")

    def _switch(self, s) -> Tuple[object, int]:
        subj, sst = self.expr(s.subject)
        # Resolve fallthrough statically, like the codegen backend: a
        # match on case i executes the first non-empty body at/after i.
        bodies = [case.body for case in s.cases]
        resolved = [
            next((b for b in bodies[i:] if b is not None), None)
            for i in range(len(bodies))
        ]
        arms = []
        matcher_steps = 0
        arm_bound = 0
        done = False
        for index, case in enumerate(s.cases):
            if done:
                break
            for keyset in case.keysets:
                if isinstance(keyset, ast.DefaultExpr):
                    mfn = None
                else:
                    mfn, mst = self.expr(keyset)
                    matcher_steps += mst
                if resolved[index] is not None:
                    bfn, bst = self.stmt(resolved[index])
                else:
                    bfn, bst = None, 0
                arm_bound = max(arm_bound, bst)
                arms.append((mfn, bfn))
                if mfn is None:
                    # Default arm consumes the rest; later arms are
                    # unreachable in the generated if/elif chain too.
                    done = True
                    break

        def run(ctx, m, _subj=subj, _arms=tuple(arms)):
            t = _subj(ctx, m)
            rem = m
            for mfn, bfn in _arms:
                if mfn is None:
                    if bfn is not None:
                        bfn(ctx, rem)
                    return
                eq = mfn(ctx, rem) == t
                if isinstance(eq, _np.ndarray):
                    if eq.dtype != _np.bool_:
                        eq = eq.astype(bool)
                    am = eq if rem is None else (rem & eq)
                    if am.any() and bfn is not None:
                        bfn(ctx, am)
                    rem = ~eq if rem is None else (rem & ~eq)
                    if not rem.any():
                        return
                elif eq:
                    if bfn is not None:
                        bfn(ctx, rem)
                    return
        return run, sst + matcher_steps + 1 + arm_bound

    # -- stores --------------------------------------------------------
    def store(self, lhs) -> Tuple[object, int]:
        if isinstance(lhs, ast.PathExpr):
            ent = self._find(lhs.name)
            if not isinstance(ent, int):
                raise _Unvectorizable(f"assignment to {lhs.name!r}")
            if isinstance(lhs.type, ast.BitType):
                fm = _masker(lhs.type.width)

                def run(ctx, m, v, _slot=ent, _fm=fm):
                    v = _fm(v)
                    old = ctx.slots[_slot]
                    ctx.slots[_slot] = v if m is None else _np.where(m, v, old)
            else:
                def run(ctx, m, v, _slot=ent):
                    old = ctx.slots[_slot]
                    ctx.slots[_slot] = v if m is None else _np.where(m, v, old)
            return run, 0
        if isinstance(lhs, ast.MemberExpr):
            base = lhs.base
            if not (isinstance(base, ast.PathExpr)
                    and self._find(base.name) == "__BS__"):
                ent = self._resolve_member(lhs)
                if ent is None or ent[0] != "val":
                    raise _Unvectorizable(
                        f"store to member of {type(base).__name__}"
                    )
                slot = ent[1]
                width = ent[2]
                if width is not None:
                    fm = _masker(width)

                    def run(ctx, m, v, _slot=slot, _fm=fm):
                        v = _fm(v)
                        old = ctx.slots[_slot]
                        ctx.slots[_slot] = (
                            v if m is None else _np.where(m, v, old)
                        )
                else:
                    def run(ctx, m, v, _slot=slot):
                        old = ctx.slots[_slot]
                        ctx.slots[_slot] = (
                            v if m is None else _np.where(m, v, old)
                        )
                return run, 0
            cell = int(lhs.member[1:])
            width = lhs.type.width if isinstance(lhs.type, ast.BitType) else 8
            fm = _masker(width)

            def run(ctx, m, v, _i=cell, _fm=fm):
                v = _fm(v)
                old = ctx.cols[_i]
                ctx.cols[_i] = v if m is None else _np.where(m, v, old)
            return run, 0
        if isinstance(lhs, ast.SliceExpr):
            width = lhs.hi - lhs.lo + 1
            smask = (1 << width) - 1
            keep = ~(smask << lhs.lo)
            lo = lhs.lo
            big = lhs.hi > 62  # (smask << lo) must fit int64 otherwise
            base_read, bst = self.expr(lhs.base)
            base_store, sst = self.store(lhs.base)

            def run(ctx, m, v, _r=base_read, _s=base_store, _keep=keep,
                    _smask=smask, _lo=lo, _big=big):
                cur = _toint(_r(ctx, m))
                vi = _toint(v)
                if _big:
                    cur = _obj(cur)
                    vi = _obj(vi)
                merged = (cur & _keep) | ((vi & _smask) << _lo)
                _s(ctx, m, merged)
            return run, bst + sst
        raise _Unvectorizable(f"lvalue {type(lhs).__name__}")

    # -- expressions ---------------------------------------------------
    def expr(self, e) -> Tuple[object, int]:
        if isinstance(e, ast.IntLit):
            v = e.value
            return (lambda ctx, m, _v=v: _v), 0
        if isinstance(e, ast.BoolLit):
            v = e.value
            return (lambda ctx, m, _v=v: _v), 0
        if isinstance(e, ast.PathExpr):
            decl = getattr(e, "decl", None)
            if isinstance(decl, Symbol) and decl.kind == "const":
                v = decl.value
                if isinstance(v, bool) or isinstance(v, int):
                    return (lambda ctx, m, _v=v: _v), 0
                raise _Unvectorizable(
                    f"const {e.name!r} of {type(v).__name__}"
                )
            ent = self._find(e.name)
            if not isinstance(ent, int):
                raise _Unvectorizable(f"read of {e.name!r}")
            return (lambda ctx, m, _s=ent: ctx.slots[_s]), 0
        if isinstance(e, ast.MemberExpr):
            base = e.base
            if isinstance(base, ast.PathExpr):
                decl = getattr(base, "decl", None)
                if (isinstance(decl, Symbol) and decl.kind == "type"
                        and isinstance(decl.type, ast.EnumType)):
                    raise _Unvectorizable("enum member value")
                if self._find(base.name) == "__BS__":
                    cell = int(e.member[1:])
                    return (lambda ctx, m, _i=cell: ctx.cols[_i]), 0
            ent = self._resolve_member(e)
            if ent is not None and ent[0] == "val":
                return (lambda ctx, m, _s=ent[1]: ctx.slots[_s]), 0
            raise _Unvectorizable(f"member of {type(base).__name__}")
        if isinstance(e, ast.SliceExpr):
            b, bst = self.expr(e.base)
            fm = _masker(e.hi - e.lo + 1)
            lo = e.lo

            def fn(ctx, m, _b=b, _fm=fm, _lo=lo):
                return _fm(_toint(_b(ctx, m)) >> _lo)
            return fn, bst
        if isinstance(e, ast.CastExpr):
            if isinstance(e.target, ast.BitType):
                o, ost = self.expr(e.operand)
                fm = _masker(e.target.width)
                return (lambda ctx, m, _o=o, _fm=fm: _fm(_o(ctx, m))), ost
            if isinstance(e.target, ast.BoolType):
                o, ost = self.expr(e.operand)
                return (lambda ctx, m, _o=o: _truthy(_o(ctx, m))), ost
            raise _Unvectorizable(f"cast to {e.target}")
        if isinstance(e, ast.UnaryExpr):
            return self._unary(e)
        if isinstance(e, ast.BinaryExpr):
            return self._binary(e)
        if isinstance(e, ast.MethodCallExpr):
            return self.call(e)
        raise _Unvectorizable(f"expression {type(e).__name__}")

    def _unary(self, e) -> Tuple[object, int]:
        if e.op == "!":
            o, ost = self.expr(e.operand)

            def fn(ctx, m, _o=o):
                v = _truthy(_o(ctx, m))
                return (~v) if isinstance(v, _np.ndarray) else (not v)
            return fn, ost
        t = e.type if e.type else e.operand.type
        if not isinstance(t, ast.BitType):
            raise _Unvectorizable(f"unary {e.op!r} on {t}")
        w = t.width
        mask = (1 << w) - 1
        wide = w > 62  # ~/- produce negatives; & needs headroom
        o, ost = self.expr(e.operand)
        if e.op == "~":
            def fn(ctx, m, _o=o, _mask=mask, _wide=wide):
                v = _toint(_o(ctx, m))
                if _wide:
                    v = _obj(v)
                return (~v) & _mask
            return fn, ost
        if e.op == "-":
            def fn(ctx, m, _o=o, _mask=mask, _wide=wide):
                v = _toint(_o(ctx, m))
                if _wide:
                    v = _obj(v)
                return (-v) & _mask
            return fn, ost
        raise _Unvectorizable(f"unary op {e.op!r}")

    def _binary(self, e) -> Tuple[object, int]:
        op = e.op
        l, lst = self.expr(e.left)
        if op in ("&&", "||"):
            r, rst = self.expr(e.right)
            is_and = op == "&&"

            def fn(ctx, m, _l=l, _r=r, _and=is_and):
                lv = _truthy(_l(ctx, m))
                if not isinstance(lv, _np.ndarray):
                    # Uniform left side: Python short-circuit, like the
                    # generated ``bool(l) and bool(r)``.
                    if _and != bool(lv):
                        return lv
                    return _truthy(_r(ctx, m))
                # The right side runs only for lanes the per-packet code
                # would evaluate it in, so its events stay masked.
                rm = _mand(m, lv if _and else ~lv)
                if not _many(rm):
                    return lv
                rv = _truthy(_r(ctx, rm))
                return (lv & rv) if _and else (lv | rv)
            return fn, lst + rst
        r, rst = self.expr(e.right)
        st = lst + rst
        if op in self._CMP:
            import operator as _op_mod
            cmp = {
                "==": _op_mod.eq, "!=": _op_mod.ne, "<": _op_mod.lt,
                "<=": _op_mod.le, ">": _op_mod.gt, ">=": _op_mod.ge,
            }[op]

            def fn(ctx, m, _l=l, _r=r, _c=cmp):
                return _c(_l(ctx, m), _r(ctx, m))
            return fn, st
        if op == "++":
            rt = e.right.type
            if not isinstance(rt, ast.BitType):
                raise _Unvectorizable("concat operand without bit width")
            rw = rt.width
            wide = not (isinstance(e.type, ast.BitType) and e.type.width <= 62)

            def fn(ctx, m, _l=l, _r=r, _rw=rw, _wide=wide):
                lv = _toint(_l(ctx, m))
                rv = _toint(_r(ctx, m))
                if _wide:
                    lv = _obj(lv)
                return (lv << _rw) | rv
            return fn, st
        if op in ("&", "|", "^", ">>"):
            import operator as _op_mod
            bop = {
                "&": _op_mod.and_, "|": _op_mod.or_,
                "^": _op_mod.xor, ">>": _op_mod.rshift,
            }[op]

            def fn(ctx, m, _l=l, _r=r, _b=bop):
                return _b(_toint(_l(ctx, m)), _toint(_r(ctx, m)))
            return fn, st
        if not isinstance(e.type, ast.BitType):
            raise _Unvectorizable(f"result of {op!r} without bit width")
        w = e.type.width
        fm = _masker(w)
        if op in ("+", "-", "*", "<<"):
            # Promote to object wherever int64 could overflow before the
            # mask is applied; operands of these ops carry the result's
            # width in typechecked µP4.
            if op in ("+", "-"):
                wide = w > 62
            elif op == "*":
                wide = 2 * w > 62
            else:  # <<
                wide = (
                    w > 62
                    or not isinstance(e.right, ast.IntLit)
                    or w + e.right.value > 62
                )
            import operator as _op_mod
            aop = {
                "+": _op_mod.add, "-": _op_mod.sub,
                "*": _op_mod.mul, "<<": _op_mod.lshift,
            }[op]

            def fn(ctx, m, _l=l, _r=r, _a=aop, _fm=fm, _wide=wide):
                lv = _toint(_l(ctx, m))
                rv = _toint(_r(ctx, m))
                if _wide:
                    lv = _obj(lv)
                    rv = _obj(rv)
                return _fm(_a(lv, rv))
            return fn, st
        if op in ("/", "%"):
            wide = w > 63
            is_div = op == "/"
            text = ("division by zero in dataplane expression" if is_div
                    else "modulo by zero in dataplane expression")
            make = _mk_terr(text)

            def fn(ctx, m, _l=l, _r=r, _fm=fm, _wide=wide, _div=is_div,
                   _make=make):
                lv = _toint(_l(ctx, m))
                rv = _toint(_r(ctx, m))
                if isinstance(rv, _np.ndarray):
                    z = rv == 0
                    if z.dtype != _np.bool_:
                        z = z.astype(bool)
                    zm = z if m is None else (m & z)
                    if zm.any():
                        ctx.events.append((zm, "E", _make))
                    safe = _np.where(z, 1, rv)
                elif rv == 0:
                    if _many(m):
                        ctx.events.append((m, "E", _make))
                    safe = 1
                else:
                    safe = rv
                if _wide:
                    lv = _obj(lv)
                    safe = _obj(safe)
                return _fm(lv // safe if _div else lv % safe)
            return fn, st
        raise _Unvectorizable(f"binary op {op!r}")

    # -- calls ---------------------------------------------------------
    def call(self, c) -> Tuple[object, int]:
        resolved = getattr(c, "resolved", None)
        if resolved is None:
            raise _Unvectorizable("unresolved call")
        kind = resolved[0]
        if kind == "header_op":
            return self._header_op(c, resolved[1])
        if kind == "table":
            return self._table_apply(resolved[1])
        if kind == "action":
            return self._action_call(c, resolved[1])
        if kind == "extern":
            return self._extern(c, resolved[1], resolved[2])
        raise _Unvectorizable(f"call kind {kind!r}")

    def _header_op(self, c, op: str) -> Tuple[object, int]:
        target = c.target
        base = target.base
        if (isinstance(base, ast.PathExpr)
                and self._find(base.name) == "__BS__"):
            if op == "isValid":
                return (lambda ctx, m: ctx.bsvld), 0
            if op in ("setValid", "setInvalid"):
                val = op == "setValid"

                def fn(ctx, m, _v=val):
                    if m is None:
                        ctx.bsvld = _v
                    else:
                        cur = ctx.bsvld
                        if not isinstance(cur, _np.ndarray):
                            cur = _np.full(ctx.n, cur)
                        ctx.bsvld = _np.where(m, _v, cur)
                    return None
                return fn, 0
            raise _Unvectorizable(f"header op {op!r}")
        ent = self._resolve_member(base)
        if ent is None or ent[0] != "hdr":
            raise _Unvectorizable(f"header op on {type(base).__name__}")
        vslot = ent[1]
        if op == "isValid":
            return (lambda ctx, m, _s=vslot: ctx.slots[_s]), 0
        if op in ("setValid", "setInvalid"):
            val = op == "setValid"

            def fn(ctx, m, _s=vslot, _v=val):
                if m is None:
                    ctx.slots[_s] = _v
                else:
                    old = ctx.slots[_s]
                    ctx.slots[_s] = _np.where(m, _v, old)
                return None
            return fn, 0
        raise _Unvectorizable(f"header op {op!r}")

    def _action_call(self, c, adecl) -> Tuple[object, int]:
        if len(c.args) != len(adecl.params):
            raise _Unvectorizable(
                f"action {adecl.name!r} arity mismatch"
            )
        vals = [self.expr(a) for a in c.args]
        self._push_frame()
        slots = [self._define(p.name) for p in adecl.params]
        body, bst = self.stmts(adecl.body.stmts)
        self._pop_frame()

        def fn(ctx, m, _vals=tuple(v for v, _ in vals),
               _slots=tuple(slots), _body=body):
            for vf, slot in zip(_vals, _slots):
                ctx.slots[slot] = vf(ctx, m)
            _body(ctx, m)
            return None
        return fn, sum(s for _, s in vals) + bst

    def _extern(self, c, extern: str, method: str) -> Tuple[object, int]:
        if extern != "im_t":
            raise _Unvectorizable(f"extern {extern!r}")
        target = c.target
        base = target.base
        if not (isinstance(base, ast.PathExpr)
                and self._find(base.name) == "__IM__"):
            raise _Unvectorizable("im_t call on a non-metadata value")
        if method not in IM_FAST or len(c.args) > 1 or (
                method == "set_out_port") != (len(c.args) == 1):
            raise _Unvectorizable(f"im_t method {method!r}")
        fmsg = f"injected fault in extern {extern!r}.{method}"
        site = f"extern:{extern}"
        fev = ("F", "extern", "im_t", fmsg, site)
        if method == "set_out_port":
            a, ast_ = self.expr(c.args[0])

            def fn(ctx, m, _a=a, _f=fev):
                if _many(m):
                    ctx.events.append((m,) + _f)
                v = _toint(_a(ctx, m))
                ctx.out_port = v if m is None else _np.where(m, v, ctx.out_port)
                dm = _mand(m, v == 255)
                if dm is None:
                    ctx.dropped[:] = True
                elif dm is not False:
                    ctx.dropped |= dm
                return None
            return fn, ast_
        if method == "drop":
            def fn(ctx, m, _f=fev):
                if _many(m):
                    ctx.events.append((m,) + _f)
                if m is None:
                    ctx.dropped[:] = True
                else:
                    ctx.dropped |= m
                return None
            return fn, 0
        attr = "out_port" if method == "get_out_port" else "in_port"

        def fn(ctx, m, _f=fev, _attr=attr):
            if _many(m):
                ctx.events.append((m,) + _f)
            return ctx.in_port if _attr == "in_port" else ctx.out_port
        return fn, 0

    def _table_apply(self, decl) -> Tuple[object, int]:
        runtime = self.tables.get(decl.name)
        if runtime is None:
            raise _Unvectorizable(f"table {decl.name!r} without runtime")
        name = runtime.name
        key_fns = [self.expr(k) for k in runtime.key_exprs]
        arms = []
        arm_index: Dict[str, Tuple[int, int]] = {}
        arm_bound = 0
        for ai, (aname, adecl) in enumerate(runtime.selectable_actions.items()):
            self._push_frame()
            slots = tuple(self._define(p.name) for p in adecl.params)
            body, bst = self.stmts(adecl.body.stmts)
            self._pop_frame()
            arms.append((slots, body))
            arm_index[aname] = (ai, len(adecl.params))
            arm_bound = max(arm_bound, bst)
        fmsg = f"injected lookup failure in table {name!r}"
        site = f"table:{name}"
        cache: List[Optional[_VecIndex]] = [None]

        def fn(ctx, m, _keys=tuple(k for k, _ in key_fns), _rt=runtime,
               _arms=tuple(arms), _ai=arm_index, _cache=cache,
               _name=name, _fmsg=fmsg, _site=site):
            if _many(m):
                ctx.events.append((m, "F", "table", _name, _fmsg, _site))
            kv = [kf(ctx, m) for kf in _keys]
            vi = _cache[0]
            if vi is None or vi.version != _rt.version:
                why = "first" if vi is None else vi.extend()
                if why is None:
                    _rt.count_index_event("vector.index.extended")
                else:
                    vi = _cache[0] = _VecIndex(_rt, _ai)
                    _rt.count_index_event(f"vector.index.rebuilt.{why}")
            slot = vi.lookup(kv, ctx.n)
            scalar = not isinstance(slot, _np.ndarray)
            hit = slot >= 0
            if _many(m):
                ctx.events.append((m, "T", vi, slot, hit))
            for bad_slot, make in vi.bad:
                bm = _mand(m, slot == bad_slot)
                if _many(bm):
                    ctx.events.append((bm, "E", make))
            if scalar:
                ai = int(vi.aidx[slot])
                if ai >= 0:
                    slots, body = _arms[ai]
                    for j, ps in enumerate(slots):
                        arg = vi.args[j][slot]
                        ctx.slots[ps] = (
                            arg if isinstance(arg, int) else int(arg)
                        )
                    body(ctx, m)
            else:
                av = vi.aidx[slot]
                for ai in vi.used:
                    am = _mand(m, av == ai)
                    if _many(am):
                        slots, body = _arms[ai]
                        for j, ps in enumerate(slots):
                            # Gathered for all lanes; reads are masked to
                            # this arm's lanes, so stray rows are inert.
                            ctx.slots[ps] = vi.args[j][slot]
                        body(ctx, am)
            return hit
        return fn, sum(s for _, s in key_fns) + arm_bound


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------


class VectorPipeline(CodegenPipeline):
    """``--exec vector``: codegen per-packet semantics, columnwise batch.

    Subclasses :class:`CodegenPipeline`, so per-packet ``process`` /
    ``process_traced`` (and with them the whole differential suite) are
    literally the codegen backend.  Only ``process_soa`` is replaced:
    when the build-time plan exists and the step budget cannot fire, the
    batch runs columnwise with divergence splitting; otherwise it falls
    back to the inherited generated function, lane by lane.
    """

    backend = "vector"

    def __init__(
        self,
        composed: ComposedPipeline,
        use_table_index: bool = True,
        guards: Optional[ResourceGuards] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        if _np is None:
            err = TargetError(
                "exec backend 'vector' requires numpy; install the "
                "optional extra (pip install .[vector]) or pick another "
                "backend"
            )
            err.code = "vector-unavailable"
            raise err
        super().__init__(
            composed, use_table_index=use_table_index,
            guards=guards, faults=faults,
        )
        self.vector_plan: Optional[_VectorPlan] = None
        self.vector_decline_reason: Optional[str] = None
        try:
            self.vector_plan = _VectorCompiler(
                composed, self.tables, self.soa_layout, self.lane_vars
            ).build()
        except _Unvectorizable as exc:
            self.vector_decline_reason = exc.reason
        if METRICS.enabled:
            METRICS.inc(
                "vector.plan_built" if self.vector_plan is not None
                else "vector.plan_declined"
            )

    def process_soa(self, datas, ports, pkts):
        plan = self.vector_plan
        if plan is None or plan.step_bound > self.step_limit:
            if METRICS.enabled:
                METRICS.inc("vector.soa_fallback_batches")
            return super().process_soa(datas, ports, pkts)
        n = len(datas)
        if n == 0:
            return []
        metrics_on = METRICS.enabled
        try:
            # Speculation is pure: no RNG draws, no trace/counter writes.
            # If it blows up (a lowering bug), replaying through the
            # codegen lane loop is still bit-exact.
            ctx, pays = plan.run(datas, ports)
            S = plan.size
            dropped = ctx.dropped
            perr = ctx.slots[plan.perr_slot]
            pe = _mand(None, perr == 1)
            if pe is None:
                drop = _np.ones(n, bool)
            elif pe is False:
                drop = dropped.copy()
            else:
                drop = dropped | pe
            out_len = ctx.slots[plan.bslen_slot]
            oob = _mand(None, (out_len > S) | (out_len < 0)
                        if isinstance(out_len, _np.ndarray)
                        else (out_len > S or out_len < 0))
            obm = False if oob is False else (
                (~drop) if oob is None else (oob & ~drop)
            )
            if _many(obm):
                ol_list = _aslist(out_len, n)

                def _mk_oob(lane, _ol=ol_list, _S=S):
                    return FaultError(
                        "bytestack-bounds",
                        "byte-stack length %d outside stack size %d"
                        % (_ol[lane], _S),
                    )
                ctx.events.append((obm, "E", _mk_oob))
        except Exception:
            if metrics_on:
                METRICS.inc("vector.soa_errors")
            return super().process_soa(datas, ports, pkts)

        if metrics_on:
            METRICS.inc(self._m_packets, n)
            self._lat_tick += n
        self.last_drop_reason = None
        self._hits_out = 0
        self._misses_out = 0
        kill = self._resolve_events(ctx.events, n)
        self._commit_bookkeeping(ctx.events, kill, n, metrics_on)
        if metrics_on:
            if self._hits_out:
                METRICS.inc(self._m_hits, self._hits_out)
            if self._misses_out:
                METRICS.inc(self._m_misses, self._misses_out)
            if kill:
                METRICS.inc("vector.split_lanes", len(kill))

        # Stage C: deparse everything columnwise, slice per lane.
        mat = _np.zeros((n, S), _np.uint8)
        for i, col in enumerate(ctx.cols):
            if isinstance(col, _np.ndarray):
                mat[:, i] = col
            elif col:
                mat[:, i] = col
        buf = mat.tobytes()
        drop_list = drop.tolist()
        pe_list = _aslist(False if pe is False else (
            _np.ones(n, bool) if pe is None else pe), n)
        port_list = _aslist(ctx.out_port, n)
        ol_list = _aslist(out_len, n)
        results: List[tuple] = [None] * n
        for lane in range(n):
            k = kill.get(lane) if kill else None
            if k is not None:
                results[lane] = (None, None, k[1])
            elif drop_list[lane]:
                reason = "parser-error" if pe_list[lane] else "pipeline-drop"
                results[lane] = ([], reason, None)
            else:
                start = lane * S
                ob = buf[start:start + ol_list[lane]] + pays[lane]
                results[lane] = (
                    [PacketOut(Packet(ob), port_list[lane], 0,
                               recirculate=False)],
                    None, None,
                )
        return results

    # -- divergence resolution -----------------------------------------
    def _resolve_events(self, events, n: int):
        """Lane-major walk over fault/error events, drawing from the
        per-site RNG streams in exactly the per-packet order.  Returns
        ``{lane: (event_ordinal, exc)}`` for lanes that die."""
        faults = self.faults
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

    def _commit_bookkeeping(self, events, kill, n: int, metrics_on: bool):
        """Count table hits, misses and lookup metrics over the lanes
        that reached each lookup — masked in and not killed at an
        earlier ordinal — the totals per-lane execution produces."""
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
        self._hits_out = hits
        self._misses_out = misses
