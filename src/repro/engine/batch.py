"""Batched engine codegen (-O3): lockstep structure-of-arrays execution.

The scalar engine (:mod:`repro.engine.compiler`) executes one request
at a time: every ``run()`` dispatches per-state closures until the FSM
idles.  The hardware the repo reproduces has no such limit — Emu cores
pipeline many independent requests — and ROADMAP item 1 names batched
codegen the biggest remaining lever.  This module compiles the same
FSM a second way, for *N requests at once*:

* **Structure of arrays** — every live register becomes a parallel
  list (``r_<name>[lane]``), every per-request memory a list of
  per-lane rows, so one state's straight-line code runs as a tight
  ``for _ln in _lanes`` loop over all requests currently in that
  state.
* **Superblocks** — straight-line ``Goto`` chains fuse into one
  closure, so a ten-state unconditional sequence costs one dispatch
  per batch instead of ten dispatches per request.
* **Early-exit masking** — lanes idle at different cycles; a finished
  lane simply leaves the active-lane lists, so ragged batches cost
  only the work their live lanes do.
* **Constant folding** — const-only subtrees fold at compile time,
  which is most of the ``-O0`` expression text.

Lockstep reorders execution across requests, so it is only attempted
when two static analyses prove the reorder unobservable:

1. **Definite assignment** — no register is read before this
   request's own write (latched parameters count as written at
   entry), and every result register is assigned on all entry→idle
   paths.  Registers then carry no information between requests, so
   per-lane copies starting from the batch-entry snapshot are
   equivalent to the sequential carry chain.
2. **Hazard gating** — memories *loaded in full by every lane* are
   per-lane rows (a full load severs any cross-request flow); shared
   memories the FSM writes are *hazards*.  A state touching a hazard
   memory may only execute for lane *k* once every lane below *k* is
   clear (finished, or parked in a state that cannot reach a hazard
   state), so all hazard-memory operations happen in lane-major
   order — exactly the sequential interleaving — while pure states
   still run in lockstep.

When either analysis fails (or a batch loads partial memory images),
:meth:`BatchedKernel.run_batch` silently falls back to sequential
scalar execution — always correct, never wrong, just not accelerated.
``fallback_batches``/``lockstep_batches`` count which path ran.

Per-request observables are bit-identical to the scalar engine:
results, per-lane latency cycles, final memory images, and warm state
across successive batches (the one permitted difference: a register
the analysis proved unreadable-before-write may hold a different
*internal* value after a batch — it is unobservable by construction,
and :mod:`repro.engine.verify` checks the observable set).
"""

import itertools

from repro.errors import EngineError
from repro.kiwi.builder import MemReadRef, VarRef
from repro.kiwi.fsm import Branch, Goto
from repro.rtl.expr import (
    BinOp, Concat, Const, Mux, Slice, UnOp, eval_binop, eval_unop,
)

#: Superblock length cap — long enough to swallow every service
#: kernel's reply-construction chain, small enough to bound code size.
MAX_BLOCK_STATES = 16
#: Nesting cap for single-use inlining (Python's parser dislikes
#: pathologically deep conditional expressions).
MAX_INLINE_DEPTH = 24


def _mask(width):
    return (1 << width) - 1


# -- FSM facts ---------------------------------------------------------------

def _state_roots(state):
    """Every expression a state evaluates (pre-edge, phase 1)."""
    for name in sorted(state.updates):
        yield state.updates[name]
    for _, addr, data, enable in state.writes:
        yield addr
        yield data
        yield enable
    transition = state.transition
    if isinstance(transition, Branch):
        yield transition.cond


def _walk(expr):
    seen = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(node.children())


def _vars_read(state):
    names = set()
    for root in _state_roots(state):
        for node in _walk(root):
            if isinstance(node, VarRef):
                names.add(node.name)
    return names


def _mems_touched(state):
    """(read, written) memory-name sets of one state."""
    read = set()
    for root in _state_roots(state):
        for node in _walk(root):
            if isinstance(node, MemReadRef):
                read.add(node.mem_name)
    written = {mem_name for mem_name, _, _, _ in state.writes}
    return read, written


class _Bail(Exception):
    """Cleanliness analysis exceeded its budget — treat as dirty."""


class _CleanAnalysis:
    """Does any observable value depend on *stale* registers?

    A register read at request entry observes whatever the previous
    request left behind — sequential execution defines which request
    that is, lockstep execution changes it.  Lockstep is therefore
    sound exactly when no *observable* (memory-write address/data/
    enable, branch condition, or result register) depends on a stale
    value.  ``clean(expr)`` decides "this expression's value is
    independent of stale registers" bottom-up, with one crucial
    refinement: if-conversion guards every predicated value with the
    predicate that makes it well-defined (``values[h]`` is written
    with data ``Mux(is_set, built_value, stale_v)`` under enable
    ``is_set``), so write addresses and data are checked *under the
    assumption their enable is true*, and a ``Mux`` whose selector is
    an assumed predicate only contributes the selected arm.
    Predicates are matched structurally (the front-end CSEs them into
    shared nodes, but structural equality is what soundness needs:
    equal pure expressions have equal values).
    """

    BUDGET = 200000

    def __init__(self):
        self._fp = {}
        self._intern = {}
        self._sels = {}
        self._steps = 0

    def fingerprint(self, expr):
        # Interned to a small int: fingerprints live in frozensets that
        # are intersected on every memo lookup, and hashing deep nested
        # tuples there is quadratic in practice (tuples do not cache
        # their hash).  Equal structures still get equal fingerprints.
        key = id(expr)
        cached = self._fp.get(key)
        if cached is not None:
            return cached
        if isinstance(expr, VarRef):
            out = ("var", expr.name)
        elif isinstance(expr, Const):
            out = ("const", expr.value, expr.width)
        elif isinstance(expr, Mux):
            out = ("mux", self.fingerprint(expr.sel),
                   self.fingerprint(expr.if_true),
                   self.fingerprint(expr.if_false))
        elif isinstance(expr, BinOp):
            out = ("bin", expr.op, self.fingerprint(expr.lhs),
                   self.fingerprint(expr.rhs))
        elif isinstance(expr, UnOp):
            out = ("un", expr.op, self.fingerprint(expr.operand))
        elif isinstance(expr, Slice):
            out = ("slice", expr.msb, expr.lsb,
                   self.fingerprint(expr.operand))
        elif isinstance(expr, MemReadRef):
            out = ("memread", expr.mem_name,
                   self.fingerprint(expr.addr))
        elif isinstance(expr, Concat):
            out = ("cat",) + tuple(self.fingerprint(part)
                                   for part in expr.parts)
        else:
            out = ("opaque", id(expr))
        out = self._intern.setdefault(out, len(self._intern))
        self._fp[key] = out
        return out

    def _sels_below(self, expr):
        """Fingerprints of every Mux selector in *expr*'s subtree —
        the only assumptions whose truth can matter inside it.  Memo
        keys are restricted to this set so unrelated path contexts
        collapse (otherwise deep mux nests go exponential)."""
        key = id(expr)
        cached = self._sels.get(key)
        if cached is not None:
            return cached
        out = frozenset()
        if isinstance(expr, Mux):
            out = out | {self.fingerprint(expr.sel)}
        for child in expr.children():
            out = out | self._sels_below(child)
        self._sels[key] = out
        return out

    def clean(self, expr, defined, assume_true=frozenset()):
        try:
            return self._clean(expr, defined, assume_true,
                               frozenset(), {})
        except _Bail:
            return False

    def _clean(self, expr, defined, true_fps, false_fps, memo):
        self._steps += 1
        if self._steps > self.BUDGET:
            raise _Bail()
        relevant = self._sels_below(expr)
        key = (id(expr), true_fps & relevant, false_fps & relevant)
        cached = memo.get(key)
        if cached is None:
            cached = self._clean_uncached(expr, defined, true_fps,
                                          false_fps, memo)
            memo[key] = cached
        return cached

    def _clean_uncached(self, expr, defined, true_fps, false_fps,
                        memo):
        if isinstance(expr, Const):
            return True
        if isinstance(expr, VarRef):
            return expr.name in defined
        if isinstance(expr, Mux):
            sel_fp = self.fingerprint(expr.sel)
            if sel_fp in true_fps:
                return self._clean(expr.if_true, defined, true_fps,
                                   false_fps, memo)
            if sel_fp in false_fps:
                return self._clean(expr.if_false, defined, true_fps,
                                   false_fps, memo)
            if not self._clean(expr.sel, defined, true_fps,
                               false_fps, memo):
                return False
            return (self._clean(expr.if_true, defined,
                                true_fps | {sel_fp}, false_fps, memo)
                    and self._clean(expr.if_false, defined, true_fps,
                                    false_fps | {sel_fp}, memo))
        # Memory contents are stale-free by induction: per-lane rows
        # are freshly loaded, and every shared-memory write passed
        # this same analysis — so a read is clean iff its address is.
        return all(self._clean(child, defined, true_fps, false_fps,
                               memo)
                   for child in expr.children())


def _lockstep_safe(fsm, latched, result_names, never_written):
    """Can this FSM run in lockstep without stale-register effects?

    Forward must-assign dataflow over the FSM, where a state assigns
    only the registers whose update expression is *clean* (dirty
    updates are permitted — the register simply stays stale, and any
    later observable use of it fails the check).  Requires every
    memory-write operand (under its enable) and every branch
    condition to be clean, and every result register to be definitely
    assigned on all paths into idle.
    """
    entry = fsm.idle.transition.if_true
    if entry is fsm.idle:
        return True                      # degenerate: no work at all
    states = [s for s in fsm.states if s is not fsm.idle]
    analysis = _CleanAnalysis()
    preds = {s: [] for s in states}
    idle_preds = []
    for state in states:
        for succ in fsm.successors(state):
            if succ is fsm.idle:
                idle_preds.append(state)
            else:
                preds[succ].append(state)
    everything = frozenset(
        name for s in states for name in s.updates) | latched
    da_in = {s: everything for s in states}
    da_in[entry] = frozenset(latched)

    def assigns(state):
        defined = da_in[state] | never_written
        return frozenset(
            name for name in state.updates
            if analysis.clean(state.updates[name], defined))

    changed = True
    while changed:
        changed = False
        for state in states:
            # The idle edge into entry contributes exactly the latched
            # parameter set (everything else is stale previous-request
            # state); other in-edges contribute their out-sets; the
            # meet is the intersection.
            acc = frozenset(latched) if state is entry else None
            for pred in preds[state]:
                out = da_in[pred] | assigns(pred)
                acc = out if acc is None else (acc & out)
            if acc is None:
                acc = da_in[state]       # unreachable: keep top
            if acc != da_in[state]:
                da_in[state] = acc
                changed = True
    for state in states:
        defined = da_in[state] | never_written
        for _, addr, data, enable in state.writes:
            if not analysis.clean(enable, defined):
                return False
            assume = frozenset((analysis.fingerprint(enable),))
            if not analysis.clean(addr, defined, assume):
                return False
            if not analysis.clean(data, defined, assume):
                return False
        transition = state.transition
        if isinstance(transition, Branch):
            if not analysis.clean(transition.cond, defined):
                return False
    if result_names:
        acc = None
        for pred in idle_preds:
            out = da_in[pred] | assigns(pred)
            acc = out if acc is None else (acc & out)
        if acc is None:
            acc = frozenset()
        if not set(result_names) <= (acc | never_written):
            return False
    return True


# -- batch expression emitter ------------------------------------------------

_ATOM_PREFIXES = ("_t", "v_")


def _is_atom(text):
    """Safe to re-read after register commits / reuse verbatim."""
    if text.lstrip("-").isdigit():
        return True
    return text.startswith(_ATOM_PREFIXES) and text.isidentifier()


class _BatchEmitter:
    """The scalar :class:`repro.engine.compiler._Emitter`, batched.

    Differences: constant subtrees fold at compile time (via the same
    ``eval_binop``/``eval_unop`` the simulator uses, so folds are
    semantics-preserving by construction); single-use subtrees inline
    (so untaken ``Mux`` arms are never evaluated); memory reads route
    to per-lane rows (``pl_<name>``) or shared lists (``m_<name>``)
    per the batch layout.
    """

    def __init__(self, layout, counter):
        self.layout = layout
        self.body = []
        self.memo = {}              # per state: id -> text
        self.consts = {}            # id -> folded int (subset of memo)
        self.refs = {}
        self.counter = counter

    # -- bookkeeping ---------------------------------------------------

    def count_refs(self, roots):
        nodes = []
        seen = set()
        for root in roots:
            self.refs[id(root)] = self.refs.get(id(root), 0) + 1
            for node in _walk(root):
                if id(node) not in seen:
                    seen.add(id(node))
                    nodes.append(node)
        for node in nodes:
            for child in node.children():
                self.refs[id(child)] = self.refs.get(id(child), 0) + 1

    def temp(self, text):
        name = "_t%d" % next(self.counter)
        self.body.append("%s = %s" % (name, text))
        return name

    def root(self, expr):
        """Emit *expr* as a phase-1 value: folded constants and temps
        pass through, anything else is pinned into a temp so phase-2
        commits cannot disturb it (the scalar emitter's ``bind``)."""
        text = self.emit(expr)
        if _is_atom(text) and not text.startswith("v_"):
            return text
        return self.temp(text)

    # -- recursive emission --------------------------------------------

    def emit(self, expr, depth=0):
        key = id(expr)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        text = self._compile(expr, depth)
        if key not in self.consts and \
                not isinstance(expr, (Const, VarRef)):
            if self.refs.get(key, 2) > 1 or depth >= MAX_INLINE_DEPTH:
                text = self.temp(text)
            else:
                text = "(%s)" % text
        self.memo[key] = text
        return text

    def _fold(self, expr, value):
        self.consts[id(expr)] = value
        return repr(value)

    def _const_of(self, expr, text):
        if id(expr) in self.consts:
            return self.consts[id(expr)]
        if isinstance(expr, Const):
            return expr.value
        if text.lstrip("-").isdigit():
            return int(text)
        return None

    def _compile(self, expr, depth):
        layout = self.layout
        if isinstance(expr, Const):
            return repr(expr.value)
        if isinstance(expr, VarRef):
            name = expr.name
            if name in layout.const_regs:
                return self._fold(expr, layout.const_regs[name])
            return "v_" + name
        if isinstance(expr, MemReadRef):
            return self._compile_memread(expr, depth)
        if isinstance(expr, BinOp):
            return self._compile_binop(expr, depth)
        if isinstance(expr, UnOp):
            operand = self.emit(expr.operand, depth + 1)
            value = self._const_of(expr.operand, operand)
            if value is not None:
                return self._fold(expr, eval_unop(
                    expr.op, value, expr.operand.width, expr.width))
            return self._compile_unop_text(expr, operand)
        if isinstance(expr, Mux):
            sel = self.emit(expr.sel, depth + 1)
            sel_value = self._const_of(expr.sel, sel)
            if sel_value is not None:
                arm = expr.if_true if sel_value else expr.if_false
                text = self.emit(arm, depth)
                if self._const_of(arm, text) is not None:
                    self.consts[id(expr)] = self._const_of(arm, text)
                return text
            if_true = self.emit(expr.if_true, depth + 1)
            if_false = self.emit(expr.if_false, depth + 1)
            return "%s if %s else %s" % (if_true, sel, if_false)
        if isinstance(expr, Slice):
            operand = self.emit(expr.operand, depth + 1)
            value = self._const_of(expr.operand, operand)
            if value is not None:
                return self._fold(
                    expr, (value >> expr.lsb) & _mask(expr.width))
            if expr.lsb == 0:
                return "%s & %d" % (operand, _mask(expr.width))
            return "(%s >> %d) & %d" % (operand, expr.lsb,
                                        _mask(expr.width))
        if isinstance(expr, Concat):
            texts = [self.emit(part, depth + 1) for part in expr.parts]
            values = [self._const_of(p, t)
                      for p, t in zip(expr.parts, texts)]
            if all(v is not None for v in values):
                acc = values[0]
                for part, value in zip(expr.parts[1:], values[1:]):
                    acc = (acc << part.width) | value
                return self._fold(expr, acc)
            acc = texts[0]
            for part, text in zip(expr.parts[1:], texts[1:]):
                acc = "((%s << %d) | %s)" % (acc, part.width, text)
            return acc
        raise EngineError("cannot batch-compile expression %r" % (expr,))

    def _compile_memread(self, expr, depth):
        layout = self.layout
        depth_words = layout.mem_depths.get(expr.mem_name)
        if depth_words is None:
            raise EngineError("read of unknown memory %r"
                              % expr.mem_name)
        base = ("pl_" + expr.mem_name
                if expr.mem_name in layout.perlane
                else "m_" + expr.mem_name)
        addr = self.emit(expr.addr, depth + 1)
        addr_value = self._const_of(expr.addr, addr)
        if addr_value is not None:
            if addr_value >= depth_words:
                return self._fold(expr, 0)
            return "%s[%d]" % (base, addr_value)
        if (1 << expr.addr.width) <= depth_words:
            return "%s[%s]" % (base, addr)
        if not _is_atom(addr):
            addr = self.temp(addr)
            self.memo[id(expr.addr)] = addr
        return "(%s[%s] if %s < %d else 0)" % (base, addr, addr,
                                               depth_words)

    def _compile_binop(self, expr, depth):
        lhs = self.emit(expr.lhs, depth + 1)
        rhs = self.emit(expr.rhs, depth + 1)
        lv = self._const_of(expr.lhs, lhs)
        rv = self._const_of(expr.rhs, rhs)
        if lv is not None and rv is not None:
            return self._fold(expr,
                              eval_binop(expr.op, lv, rv, expr.width))
        op = expr.op
        mask = _mask(expr.width)
        if op in ("+", "-", "*", "<<"):
            return "(%s %s %s) & %d" % (lhs, op, rhs, mask)
        if op in ("&", "|", "^"):
            return "%s %s %s" % (lhs, op, rhs)
        if op == ">>":
            return "%s >> %s" % (lhs, rhs)
        if op in ("/", "%"):
            if not _is_atom(rhs):
                rhs = self.temp(rhs)
                self.memo[id(expr.rhs)] = rhs
            pyop = "//" if op == "/" else "%"
            return ("(((%s %s %s) & %d) if %s else 0)"
                    % (lhs, pyop, rhs, mask, rhs))
        if op in ("==", "!=", "<", "<=", ">", ">="):
            return "(1 if %s %s %s else 0)" % (lhs, op, rhs)
        raise EngineError("cannot compile operator %r" % op)

    def _compile_unop_text(self, expr, operand):
        op = expr.op
        if op == "~":
            return "(~%s) & %d" % (operand, _mask(expr.width))
        if op == "|r":
            return "(1 if %s != 0 else 0)" % operand
        if op == "&r":
            return ("(1 if %s == %d else 0)"
                    % (operand, _mask(expr.operand.width)))
        if op == "^r":
            return "bin(%s).count('1') & 1" % operand
        if op == "!":
            return "(1 if %s == 0 else 0)" % operand
        raise EngineError("cannot compile unary %r" % op)


# -- superblocks -------------------------------------------------------------

class _Block:
    """One compiled superblock: a leader state plus the chain behind
    it.  A block containing *any* hazard state is a hazard block — it
    only runs under the gate (single lowest lane, or a provably
    gate-ordered lane group), so pure member states simply ride along
    in the same sequential order.

    In *trace* mode the chain also runs through ``Branch`` states: the
    likelier arm (deepest continuation) stays in the block, the other
    becomes a per-lane **side exit** — the lane banks its registers
    and partial cycle count, records its next state, and leaves the
    lane loop.  One dispatch then executes a whole request's hot path.
    """

    __slots__ = ("leader", "states", "size", "hazard", "next_const",
                 "in_reach", "fn", "state_indices", "has_exits",
                 "final_target")

    def __init__(self, leader, states, hazard):
        self.leader = leader
        self.states = states
        self.size = len(states)
        self.hazard = hazard
        self.next_const = None      # int when the block ends in Goto
        self.in_reach = False
        self.fn = None
        self.state_indices = [s.index for s in states]
        self.has_exits = False      # any mid-block Branch side exit
        self.final_target = None    # loop-end target when has_exits


def _trace_score(fsm, state, limit, seen):
    """Greedy depth of the best trace from *state* (bounded)."""
    score = 0
    while (state is not fsm.idle and id(state) not in seen
           and score < limit):
        seen = seen | {id(state)}
        score += 1
        transition = state.transition
        if isinstance(transition, Goto):
            state = transition.target
            continue
        true_score = _trace_score(fsm, transition.if_true,
                                  limit - score, seen)
        false_score = _trace_score(fsm, transition.if_false,
                                   limit - score, seen)
        return score + max(true_score, false_score)
    return score


def _chain(fsm, leader, trace):
    """The superblock members starting at *leader*."""
    members = [leader]
    member_ids = {id(leader)}
    cur = leader
    while len(members) < MAX_BLOCK_STATES:
        transition = cur.transition
        if isinstance(transition, Goto):
            target = transition.target
        elif trace:
            limit = min(MAX_BLOCK_STATES - len(members), 8)
            true_score = _trace_score(fsm, transition.if_true, limit,
                                      member_ids)
            false_score = _trace_score(fsm, transition.if_false,
                                       limit, member_ids)
            if true_score == 0 and false_score == 0:
                break
            target = (transition.if_true
                      if true_score >= false_score
                      else transition.if_false)
        else:
            break
        if target is fsm.idle or id(target) in member_ids:
            break
        members.append(target)
        member_ids.add(id(target))
        cur = target
    return members


# -- one compiled layout -----------------------------------------------------

class _Layout:
    """One batched compilation of the FSM for a fixed classification:
    which memories are per-lane (fully loaded by every lane), and
    whether per-state profiling counts are on.  Layouts are cached per
    :class:`BatchedKernel`; in practice each call site settles on one.
    """

    def __init__(self, scalar, perlane, profiled=False):
        design = scalar.design
        fsm = design.fsm
        self.perlane = perlane
        self.mem_depths = dict(scalar._mem_depths)
        self.const_regs = {
            name: init for name, init in zip(scalar._reg_names,
                                             scalar._reg_inits)
            if name in scalar._never_written}
        self.soa_regs = [name for name in scalar._reg_names
                         if name not in self.const_regs]
        written_mems = set()
        touch = {}
        data_widths = {}
        for state in fsm.states:
            if state is fsm.idle:
                continue
            read, written = _mems_touched(state)
            touch[id(state)] = read | written
            written_mems |= written
            for mem_name, _, data, _ in state.writes:
                prior = data_widths.get(mem_name, 0)
                data_widths[mem_name] = max(prior, data.width)
        # Per-lane rows that can live in a ``bytearray``: width-8
        # memories whose every write commits a value the codegen
        # already masks to <= 8 bits (bytearray stores C-validate the
        # 0..255 range, which is exactly the width-8 mask).
        self.byte_ok = frozenset(
            name for name in perlane
            if scalar._mem_widths.get(name) == 8
            and data_widths.get(name, 0) <= 8)
        self.hazard_mems = written_mems - perlane
        hazard_states = {
            state for state in fsm.states
            if state is not fsm.idle
            and touch[id(state)] & self.hazard_mems}
        # Which states can still reach a hazard state (fixpoint).
        reach = set(hazard_states)
        changed = True
        while changed:
            changed = False
            for state in fsm.states:
                if state is fsm.idle or state in reach:
                    continue
                if any(s in reach for s in fsm.successors(state)):
                    reach.add(state)
                    changed = True
        entry = fsm.idle.transition.if_true
        self.entry = entry.index
        self.blocks = {}
        if entry is not fsm.idle:
            # Trace fusion changes which states a lane executes per
            # dispatch, so it is only used when per-state profiling
            # counts are off, and only for acyclic FSMs (keeping the
            # pre-dispatch timeout check exact for cyclic ones).
            trace = not profiled and self._acyclic(fsm, entry)
            self._build_blocks(fsm, entry, hazard_states, reach,
                               trace)
        self._compile(scalar)

    @staticmethod
    def _acyclic(fsm, entry):
        """Is every entry→idle path cycle-free (Kahn's algorithm)?"""
        seen = {id(entry): entry}
        stack = [entry]
        while stack:
            state = stack.pop()
            for succ in fsm.successors(state):
                if succ is not fsm.idle and id(succ) not in seen:
                    seen[id(succ)] = succ
                    stack.append(succ)
        indeg = {key: 0 for key in seen}
        for state in seen.values():
            for succ in fsm.successors(state):
                if succ is not fsm.idle:
                    indeg[id(succ)] += 1
        ready = [s for s in seen.values() if indeg[id(s)] == 0]
        done = 0
        while ready:
            state = ready.pop()
            done += 1
            for succ in fsm.successors(state):
                if succ is not fsm.idle:
                    indeg[id(succ)] -= 1
                    if indeg[id(succ)] == 0:
                        ready.append(succ)
        return done == len(seen)

    def _build_blocks(self, fsm, entry, hazard_states, reach, trace):
        worklist = [entry]
        while worklist:
            leader = worklist.pop()
            if leader.index in self.blocks:
                continue
            members = _chain(fsm, leader, trace)
            block = _Block(leader, members,
                           any(m in hazard_states for m in members))
            block.in_reach = leader in reach
            self.blocks[leader.index] = block
            for i, state in enumerate(members[:-1]):
                transition = state.transition
                if isinstance(transition, Branch):
                    block.has_exits = True
                    cont = members[i + 1]
                    other = (transition.if_false
                             if transition.if_true is cont
                             else transition.if_true)
                    if other is not fsm.idle:
                        worklist.append(other)
            tail = members[-1].transition
            if isinstance(tail, Goto):
                target = tail.target
                if block.has_exits:
                    block.final_target = target.index
                else:
                    block.next_const = target.index
                if target is not fsm.idle:
                    worklist.append(target)
            else:
                for target in (tail.if_true, tail.if_false):
                    if target is not fsm.idle:
                        worklist.append(target)

    # -- codegen -------------------------------------------------------

    def _compile(self, scalar):
        out = []
        for block in sorted(self.blocks.values(),
                            key=lambda b: b.leader.index):
            out.extend(self._emit_block(scalar, block))
            out.append("")
        self.source = "\n".join(out)
        namespace = {"EngineError": EngineError}
        for name in scalar._mem_names:
            if name in self.perlane:
                namespace["p_" + name] = []      # per-lane rows
            else:
                namespace["m_" + name] = scalar._mems[name]
        for name in self.soa_regs:
            namespace["r_" + name] = []
        exec(compile(self.source,
                     "<engine-batch:%s>" % scalar.design.name, "exec"),
             namespace)
        self.namespace = namespace
        self.reg_lists = {name: namespace["r_" + name]
                          for name in self.soa_regs}
        self.rows = {name: namespace["p_" + name]
                     for name in self.perlane
                     if name in scalar._mem_depths}
        for block in self.blocks.values():
            block.fn = namespace["_b%d" % block.leader.index]

    def _emit_block(self, scalar, block):
        soa = set(self.soa_regs)
        reads = set()
        writes = set()
        mems_used = set()
        for state in block.states:
            reads |= _vars_read(state) & soa
            writes |= set(state.updates) & soa
            touched_r, touched_w = _mems_touched(state)
            mems_used |= touched_r | touched_w
        loads = sorted(reads)
        stores = sorted(writes)
        counter = itertools.count()
        body = []
        final_next = None
        if block.final_target is not None:
            final_next = "%d" % block.final_target
        assigned = set()              # SoA regs committed so far
        last = len(block.states) - 1
        for i, state in enumerate(block.states):
            emitter = _BatchEmitter(self, counter)
            emitter.count_refs(_state_roots(state))
            # Phase 1: every right-hand side into temps/inline text.
            commits = []
            for name in sorted(state.updates):
                commits.append(
                    (name, emitter.root(state.updates[name])))
            mem_writes = []
            for mem_name, addr, data, enable in state.writes:
                mem_writes.append(
                    (mem_name, emitter.root(addr), emitter.root(data),
                     emitter.root(enable)))
            cond = None
            transition = state.transition
            if isinstance(transition, Branch):
                cond = emitter.root(transition.cond)
                if i == last:
                    final_next = "(%d if %s else %d)" % (
                        transition.if_true.index, cond,
                        transition.if_false.index)
            # Phase 2: commit registers, then memory writes.
            for name, value in commits:
                emitter.body.append("v_%s = %s" % (name, value))
            for mem_name, addr, data, enable in mem_writes:
                emitter.body.extend(self._emit_write(
                    emitter, mem_name, addr, data, enable))
            assigned |= set(state.updates) & writes
            if isinstance(transition, Branch) and i < last:
                # Trace side exit: the lane leaves mid-block, banking
                # the registers committed so far and the cycle count
                # of the states it actually executed.
                if transition.if_true is block.states[i + 1]:
                    exit_target = transition.if_false
                    emitter.body.append("if not %s:" % cond)
                else:
                    exit_target = transition.if_true
                    emitter.body.append("if %s:" % cond)
                for name in sorted(assigned):
                    emitter.body.append(
                        "    r_%s[_ln] = v_%s" % (name, name))
                emitter.body.append("    _cyc[_ln] += %d" % (i + 1))
                emitter.body.append(
                    "    _next[_ln] = %d" % exit_target.index)
                emitter.body.append("    continue")
            body.extend(emitter.body)
        # -- assemble the closure -------------------------------------
        binds = []
        for name in sorted(set(loads) | set(stores)):
            binds.append("r_%s=r_%s" % (name, name))
        for name in sorted(mems_used):
            if name in self.perlane:
                binds.append("p_%s=p_%s" % (name, name))
            else:
                binds.append("m_%s=m_%s" % (name, name))
        lines = ["def _b%d(_lanes, _next, _cyc%s):"
                 % (block.leader.index,
                    "".join(", " + b for b in binds)),
                 "    for _ln in _lanes:"]
        for name in sorted(mems_used & self.perlane):
            lines.append("        pl_%s = p_%s[_ln]" % (name, name))
        for name in loads:
            lines.append("        v_%s = r_%s[_ln]" % (name, name))
        for line in body:
            lines.append("        " + line)
        for name in stores:
            lines.append("        r_%s[_ln] = v_%s" % (name, name))
        lines.append("        _cyc[_ln] += %d" % block.size)
        if final_next is not None:
            lines.append("        _next[_ln] = %s" % final_next)
        return lines

    def _emit_write(self, emitter, mem_name, addr, data, enable):
        depth = self.mem_depths[mem_name]
        base = ("pl_" + mem_name if mem_name in self.perlane
                else "m_" + mem_name)
        en_const = addr_const = None
        if enable.lstrip("-").isdigit():
            en_const = int(enable)
        if addr.lstrip("-").isdigit():
            addr_const = int(addr)
        if en_const == 0:
            return []
        if addr_const is not None and addr_const >= depth:
            return []
        store = "%s[%s] = %s" % (base, addr, data)
        if en_const is not None and addr_const is not None:
            return [store]
        if en_const is not None:
            return ["if %s < %d:" % (addr, depth), "    " + store]
        if addr_const is not None:
            return ["if %s:" % enable, "    " + store]
        return ["if %s and %s < %d:" % (enable, addr, depth),
                "    " + store]


# -- the batched kernel ------------------------------------------------------

class BatchedKernel:
    """A design compiled for lockstep SoA batches, with warm state.

    Wraps (and shares all warm state with) a scalar
    :class:`~repro.engine.compiler.CompiledKernel` — ``run()`` and the
    memory backdoors delegate to it, so a ``BatchedKernel`` is a
    drop-in scalar kernel that *additionally* offers
    :meth:`run_batch`.
    """

    def __init__(self, design, batch=8):
        from repro.engine.compiler import CompiledKernel
        if batch is None or int(batch) < 1:
            raise EngineError("batch size must be a positive integer")
        self.batch = int(batch)
        self._scalar = CompiledKernel(design)
        scalar = self._scalar
        fsm = design.fsm
        written = set()
        for state in fsm.states:
            if state is not fsm.idle:
                written |= set(state.updates)
        scalar._never_written = frozenset(scalar._reg_names) - written \
            - frozenset(scalar._latch_names)
        result_names = ["__result%d" % index
                        for index in range(len(design.spec.results))]
        self.lockstep_capable = _lockstep_safe(
            fsm, frozenset(scalar._latch_names), result_names,
            scalar._never_written)
        self._result_names = result_names
        self._scalar_masks = {name: _mask(width) for name, width
                              in scalar._scalar_widths.items()}
        self._layouts = {}
        self.lockstep_batches = 0
        self.fallback_batches = 0

    # -- scalar surface (delegation) -----------------------------------

    @property
    def design(self):
        return self._scalar.design

    @property
    def spec(self):
        return self._scalar.spec

    @property
    def opt_level(self):
        return self._scalar.opt_level

    @property
    def name(self):
        return self._scalar.name

    @property
    def source(self):
        return self._scalar.source

    @property
    def state_counts(self):
        return self._scalar.state_counts

    @property
    def invocations(self):
        return self._scalar.invocations

    def run(self, max_cycles=100000, memories=None, **scalars):
        return self._scalar.run(max_cycles=max_cycles,
                                memories=memories, **scalars)

    def load_memory(self, name, contents):
        self._scalar.load_memory(name, contents)

    def peek_memory(self, name, addr):
        return self._scalar.peek_memory(name, addr)

    def poke_memory(self, name, addr, value):
        self._scalar.poke_memory(name, addr, value)

    def memory_image(self, name):
        return self._scalar.memory_image(name)

    def enable_profiling(self):
        self._scalar.enable_profiling()
        return self

    def disable_profiling(self):
        self._scalar.disable_profiling()

    def reset(self):
        self._scalar.reset()

    # -- batched execution ---------------------------------------------

    def _get_layout(self, perlane, profiled):
        key = (perlane, profiled)
        layout = self._layouts.get(key)
        if layout is None:
            layout = _Layout(self._scalar, perlane, profiled)
            self._layouts[key] = layout
        return layout

    def _run_fallback(self, jobs, max_cycles):
        self.fallback_batches += 1
        out = []
        for scalars, memories in jobs:
            results, latency, _ = self._scalar.run(
                max_cycles=max_cycles, memories=memories, **scalars)
            out.append((results, latency))
        return out

    def run_batch(self, jobs, max_cycles=100000):
        """Run *jobs* — ``(scalars, memories)`` pairs, one per lane —
        and return ``[(results, latency_cycles), ...]`` in lane order.

        Observably identical to calling :meth:`run` per job in order
        (warm state included); lockstep-accelerated when the batch
        qualifies, sequential otherwise.
        """
        jobs = [(scalars, memories or {})
                for scalars, memories in jobs]
        if not jobs:
            return []
        scalar = self._scalar
        if not self.lockstep_capable:
            return self._run_fallback(jobs, max_cycles)
        loaded_keys = jobs[0][1].keys()
        mem_depths = scalar._mem_depths
        for _, memories in jobs:
            if memories.keys() != loaded_keys:
                return self._run_fallback(jobs, max_cycles)
            for name, image in memories.items():
                depth = mem_depths.get(name)
                if depth is None or len(image) != depth:
                    return self._run_fallback(jobs, max_cycles)
        loaded = frozenset(loaded_keys)
        # Fold the per-lane scalar latches (inputs are sticky: a lane
        # that omits a scalar sees the previous lane's value, exactly
        # like successive scalar runs).
        inputs = dict(scalar._inputs)
        masks = self._scalar_masks
        lane_latch = {name: [] for name in scalar._latch_names}
        for scalars, _ in jobs:
            for name, value in scalars.items():
                mask = masks.get(name)
                if mask is None:
                    raise EngineError("kernel %r has no scalar %r"
                                      % (self.name, name))
                inputs[name] = value & mask
            for name in scalar._latch_names:
                lane_latch[name].append(inputs[name])
        layout = self._get_layout(loaded, scalar.state_counts is not None)
        n = len(jobs)
        # -- SoA registers --------------------------------------------
        warm = dict(zip(scalar._reg_names, scalar._regs))
        for name in layout.soa_regs:
            values = lane_latch.get(name)
            if values is None:
                values = [warm[name]] * n
            layout.reg_lists[name][:] = values
        # -- per-lane memory rows (full-image fast load) --------------
        for name in layout.rows:
            width_mask = _mask(scalar._mem_widths[name])
            rows = []
            if name in layout.byte_ok:
                # bytearray() copies AND range-checks 0..255 in one C
                # pass — exactly the width-8 mask — so in-range images
                # skip the Python-level masking scan entirely.
                for _, memories in jobs:
                    image = memories[name]
                    try:
                        rows.append(bytearray(image))
                    except ValueError:
                        rows.append([value & width_mask
                                     for value in image])
            else:
                for _, memories in jobs:
                    row = list(memories[name])
                    if row and (max(row) > width_mask
                                or min(row) < 0):
                        row = [value & width_mask for value in row]
                    rows.append(row)
            layout.rows[name][:] = rows
        self._drive(layout, n, max_cycles)
        # -- harvest ---------------------------------------------------
        result_cols = []
        for name in self._result_names:
            if name in layout.reg_lists:
                result_cols.append(layout.reg_lists[name])
            else:
                result_cols.append([layout.const_regs[name]] * n)
        latencies = self._latencies
        if len(result_cols) == 1:
            col = result_cols[0]
            out = [((col[lane],), latencies[lane])
                   for lane in range(n)]
        else:
            out = [(tuple(col[lane] for col in result_cols),
                    latencies[lane]) for lane in range(n)]
        # -- commit warm state (last lane wins, like sequential) ------
        last = n - 1
        final = []
        for name in scalar._reg_names:
            if name in layout.reg_lists:
                final.append(layout.reg_lists[name][last])
            else:
                final.append(warm[name])
        scalar._regs = tuple(final)
        scalar._inputs = inputs
        for name in layout.rows:
            scalar._mems[name][:] = layout.rows[name][last]
        scalar.invocations += n
        self.lockstep_batches += 1
        return out

    def _drive(self, layout, n, max_cycles):
        """The lockstep dispatch loop with hazard gating.

        A hazard block normally runs for its *whole* sorted lane group
        in one dispatch: when every unclear lane below the group's top
        lane is in the group, the block's ascending lane-major loop
        *is* the sequential interleaving, so one call satisfies the
        gate for every member at once.  When lanes are staggered
        (stragglers still in earlier pure blocks), pure blocks run
        first so the group can re-form; only if nothing else can move
        does the lowest unclear lane go through alone.
        """
        cyc = [1] * n
        nxt = [0] * n
        self._latencies = latencies = [0] * n
        if layout.entry == 0 or not layout.blocks:
            latencies[:] = [1] * n
            return
        counts = self._scalar.state_counts
        blocks = layout.blocks
        frontier = {layout.entry: list(range(n))}
        lane_pos = [layout.entry] * n    # frontier leader per live lane
        clear = [False] * n
        min_unclear = 0

        def run(block, lanes):
            limit = max_cycles - block.size
            for lane in lanes:
                if cyc[lane] > limit:
                    raise EngineError(
                        "design %r did not finish in %d cycles"
                        % (self.name, max_cycles))
            block.fn(lanes, nxt, cyc)
            if counts is not None:
                for index in block.state_indices:
                    counts[index] += len(lanes)
            target = block.next_const
            if target is not None:
                if target == 0:
                    for lane in lanes:
                        latencies[lane] = cyc[lane]
                        clear[lane] = True
                        lane_pos[lane] = 0
                else:
                    in_reach = blocks[target].in_reach
                    for lane in lanes:
                        clear[lane] = not in_reach
                        lane_pos[lane] = target
                    frontier.setdefault(target, []).extend(lanes)
            else:
                for lane in lanes:
                    target = nxt[lane]
                    if target == 0:
                        latencies[lane] = cyc[lane]
                        clear[lane] = True
                        lane_pos[lane] = 0
                    else:
                        clear[lane] = not blocks[target].in_reach
                        lane_pos[lane] = target
                        frontier.setdefault(target, []).append(lane)

        while frontier:
            ran = False
            # Hazard group dispatch while the gate provably holds.
            while min_unclear < n:
                if clear[min_unclear]:
                    min_unclear += 1
                    continue
                leader = lane_pos[min_unclear]
                block = blocks[leader]
                if not block.hazard:
                    break
                parked = frontier[leader]
                parked.sort()
                grouped = True
                i = 0
                for k in range(min_unclear + 1, parked[-1]):
                    if clear[k]:
                        continue
                    while parked[i] < k:
                        i += 1
                    if parked[i] != k:
                        grouped = False
                        break
                if not grouped:
                    break
                del frontier[leader]
                run(block, parked)
                ran = True
            # Pure blocks run in full lockstep over all parked lanes.
            for leader in sorted(frontier):
                lanes = frontier.get(leader)
                if not lanes:
                    continue
                block = blocks[leader]
                if block.hazard:
                    continue
                del frontier[leader]
                run(block, lanes)
                ran = True
            if ran:
                continue
            # Stalemate: stragglers are parked at *different* hazard
            # blocks, so no group forms and nothing is pure.  The
            # lowest unclear lane always satisfies the gate alone.
            leader = lane_pos[min_unclear]
            lanes = frontier.get(leader)
            if lanes is None or min_unclear not in lanes:
                raise EngineError(            # pragma: no cover
                    "internal: batched scheduler stalled for %r"
                    % self.name)
            lanes.remove(min_unclear)
            if not lanes:
                del frontier[leader]
            run(blocks[leader], [min_unclear])


def compile_design_batched(design, batch=8):
    """Compile a :class:`~repro.kiwi.compiler.CompiledDesign` into a
    :class:`BatchedKernel` (the batched twin of ``compile_design``)."""
    return BatchedKernel(design, batch=batch)
