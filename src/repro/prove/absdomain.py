"""Abstract domain for the verifier prover (DESIGN.md §14).

Two layers live here:

1. **Symbolic integers** (:class:`SymInt`, :class:`SymWord`): a single
   designated immediate field of an encoding is left symbolic while every
   other field is concrete.  A :class:`SymInt` is an *affine* function
   ``a*f + b`` of the field value ``f`` ranging over an interval
   ``[flo, fhi]`` — exactly the shape every immediate takes on its way
   through the decoder (shift, scale, sign-extend, add).  Comparisons
   answer definitively when the whole interval agrees; otherwise they
   raise :class:`NeedSplit` with the field value at which the predicate
   flips, and the driver re-runs both halves.  Operations that leave the
   affine domain raise :class:`Concretize` and the driver falls back to
   concrete enumeration of the (sub-)interval.  Because plain ``int``
   supports the same operators, the concrete and symbolic analyses share
   one code path: the real ``decode_word`` and the real ``Verifier`` run
   unmodified over symbolic words.

2. **Abstract machine state** (:class:`AbsVal`, ``initial_state`` /
   ``transfer``): per-register intervals, either *base-relative*
   (``rel=True``: value = sandbox base + [lo, hi]) or absolute.  The
   initial state is the weakest invariant the verifier maintains over the
   reserved registers; ``transfer`` mirrors the emulator's register
   semantics conservatively (anything not recognized as an
   invariant-preserving pattern becomes TOP).  Memory and branch effects
   are checked by the executor in :mod:`repro.prove.symexec`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..arm64.instructions import Instruction, total_access_bytes
from ..arm64.operands import Extended, Imm, Mem, POST_INDEX, ShiftedImm
from ..arm64.registers import Reg
from ..core.constants import SP_SMALL_IMM
from ..core.verifier import _is_guard, _is_sp_guard
from ..memory.layout import GUARD_SIZE, PAGE_SIZE, SANDBOX_SIZE

__all__ = [
    "NeedSplit", "Concretize", "SymInt", "SymWord",
    "AbsVal", "TOP", "ABS32", "INBOX", "BASE",
    "SP_REST_SLACK", "SP_PENDING_SLACK", "CONTAIN_LO", "CONTAIN_HI",
    "initial_state", "transfer", "mem_effects", "invariant_failures",
    "bounds",
]


class NeedSplit(Exception):
    """A symbolic predicate is ambiguous over the current field interval.

    ``points`` are field values: the driver splits ``[flo, fhi]`` into
    ``[flo, p1-1], [p1, p2-1], ..., [pn, fhi]`` and re-analyzes each.
    """

    def __init__(self, points: Tuple[int, ...]):
        super().__init__(f"split at {points}")
        self.points = tuple(points)


class Concretize(Exception):
    """The operation left the affine-interval domain; enumerate concretely."""


MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1


class SymInt:
    """An affine function ``a*f + b`` of a field ``f`` in ``[flo, fhi]``.

    Represents one *unknown but fixed* integer, not a set: arithmetic with
    two different SymInts is unsupported (never happens — there is only one
    symbolic field per word).  ``a`` is never 0 (that would be a constant).
    """

    __slots__ = ("a", "b", "flo", "fhi")

    def __init__(self, a: int, b: int, flo: int, fhi: int):
        if a == 0:
            raise ValueError("constant SymInt; use int")
        if flo > fhi:
            raise ValueError("empty field interval")
        self.a, self.b, self.flo, self.fhi = a, b, flo, fhi

    def at(self, f: int) -> int:
        return self.a * f + self.b

    @property
    def lo(self) -> int:
        return min(self.at(self.flo), self.at(self.fhi))

    @property
    def hi(self) -> int:
        return max(self.at(self.flo), self.at(self.fhi))

    def __repr__(self) -> str:
        return f"SymInt({self.lo}..{self.hi})"

    __str__ = __repr__

    def __format__(self, spec: str) -> str:
        return repr(self)

    # -- structure-preserving arithmetic ------------------------------------

    def _shift(self, mul: int, add: int) -> Union["SymInt", int]:
        if mul == 0:
            return add
        return SymInt(self.a * mul, self.b * mul + add, self.flo, self.fhi)

    def __add__(self, other):
        if isinstance(other, int):
            return self._shift(1, other) if other or True else self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            return SymInt(self.a, self.b - other, self.flo, self.fhi)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return SymInt(-self.a, other - self.b, self.flo, self.fhi)
        return NotImplemented

    def __neg__(self):
        return SymInt(-self.a, -self.b, self.flo, self.fhi)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._shift(other, 0)
        return NotImplemented

    __rmul__ = __mul__

    def __lshift__(self, k: int):
        return self._shift(1 << k, 0)

    def __rshift__(self, k: int):
        unit = 1 << k
        if self.a % unit == 0 and self.b % unit == 0:
            return SymInt(self.a // unit, self.b // unit, self.flo, self.fhi)
        raise Concretize(f"non-affine >> {k}")

    # -- comparisons --------------------------------------------------------

    def _flip_point(self, pred) -> int:
        """Smallest f where a monotone predicate differs from pred(flo)."""
        lo, hi = self.flo, self.fhi
        first = pred(lo)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pred(mid) == first:
                lo = mid
            else:
                hi = mid
        return hi

    def _mono_cmp(self, other: int, op) -> bool:
        p_lo = op(self.at(self.flo), other)
        p_hi = op(self.at(self.fhi), other)
        if p_lo == p_hi:
            return p_lo
        raise NeedSplit((self._flip_point(lambda f: op(self.at(f), other)),))

    def __lt__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self._mono_cmp(other, lambda v, c: v < c)

    def __le__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self._mono_cmp(other, lambda v, c: v <= c)

    def __gt__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self._mono_cmp(other, lambda v, c: v > c)

    def __ge__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        return self._mono_cmp(other, lambda v, c: v >= c)

    def __eq__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        q, r = divmod(other - self.b, self.a)
        if r != 0 or not (self.flo <= q <= self.fhi):
            return False
        if self.flo == self.fhi:
            return True
        points = tuple(p for p in (q, q + 1) if self.flo < p <= self.fhi)
        raise NeedSplit(points)

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    __hash__ = object.__hash__

    def __bool__(self):
        return self.__ne__(0)

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        raise NeedSplit((self._flip_point(lambda f: self.at(f) >= 0),))

    # -- bit operations (the decoder's field surgery) -----------------------

    def __mod__(self, m: int):
        if not isinstance(m, int) or m <= 0:
            raise Concretize("non-positive modulus")
        if m == 1:
            return 0
        if self.a % m == 0:
            return self.b % m
        if self.lo // m == self.hi // m:
            # Whole interval inside one residue window: affine.
            return self - (self.lo // m) * m
        boundary = (self.lo // m + 1) * m
        raise NeedSplit(
            (self._flip_point(lambda f: self.at(f) >= boundary),))

    def __and__(self, mask):
        if not isinstance(mask, int):
            return NotImplemented
        if mask == 0:
            return 0
        if mask & (mask + 1) == 0:  # low mask 2**k - 1
            return self % (mask + 1)
        if mask & (mask - 1) == 0:  # single bit 2**k
            k = mask.bit_length() - 1
            if self.lo >> k == self.hi >> k:
                return self.lo & mask
            boundary = ((self.lo >> k) + 1) << k
            raise NeedSplit(
                (self._flip_point(lambda f: self.at(f) >= boundary),))
        raise Concretize(f"non-affine & {mask:#x}")

    __rand__ = __and__


def bounds(value: Union[int, SymInt]) -> Tuple[int, int]:
    """Inclusive (lo, hi) hull of a concrete or symbolic value."""
    if isinstance(value, SymInt):
        return value.lo, value.hi
    return value, value


class _PartialAnd:
    """``word & mask`` where the mask clips part of the symbolic field.

    Only comparison against a constant is supported: if the concrete bits
    under the mask already disagree, the answer is definitely False —
    which is how every spurious decoder signature test resolves.  A
    comparison that genuinely depends on the clipped field bits falls back
    to concrete enumeration.
    """

    __slots__ = ("conc", "overlap", "mask")

    def __init__(self, conc: int, overlap: int, mask: int):
        self.conc, self.overlap, self.mask = conc, overlap, mask

    def __eq__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        fixed = self.mask & ~self.overlap
        if (self.conc & fixed) != (other & fixed):
            return False
        raise Concretize("comparison depends on partially-masked field")

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    __hash__ = object.__hash__


class SymWord:
    """A 32-bit instruction word with one symbolic bit field.

    ``template`` has the field bits zeroed; ``sym`` gives the field value
    (always with ``a == 1, b == 0`` at construction).  Implements exactly
    the operations ``decode_word`` performs on a word — ``>>``, ``&``,
    ``==`` — so the real decoder runs unmodified.
    """

    __slots__ = ("template", "fld_lo", "fld_width", "sym")

    def __init__(self, template: int, fld_lo: int, fld_width: int,
                 sym: SymInt):
        self.template = template & ~(((1 << fld_width) - 1) << fld_lo)
        self.fld_lo, self.fld_width, self.sym = fld_lo, fld_width, sym

    @property
    def field_mask(self) -> int:
        return ((1 << self.fld_width) - 1) << self.fld_lo

    def __repr__(self) -> str:
        return (f"SymWord({self.template:#010x}, "
                f"field@{self.fld_lo}+{self.fld_width})")

    def __and__(self, mask):
        if not isinstance(mask, int):
            return NotImplemented
        fm = self.field_mask
        overlap = mask & fm
        conc = self.template & mask
        if overlap == 0:
            return conc
        if overlap == fm:
            if mask & 0xFFFFFFFF == 0xFFFFFFFF:
                return self  # decode_word's `word &= 0xFFFFFFFF`
            return (self.sym << self.fld_lo) + conc
        return _PartialAnd(conc, overlap, mask)

    __rand__ = __and__

    def __rshift__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return self
        if k >= self.fld_lo + self.fld_width:
            return self.template >> k
        if k <= self.fld_lo:
            return SymWord(self.template >> k, self.fld_lo - k,
                           self.fld_width, self.sym)
        # The shift lands inside the field: the surviving symbolic bits
        # are the field value's bits >= m.  When those are constant over
        # the interval the result is fully concrete (the template's own
        # bits inside the field are zero by construction); otherwise
        # split at the next block boundary and retry per block.
        m = k - self.fld_lo
        s = self.sym
        if s.a == 1:
            lo_block = s.at(s.flo) >> m
            hi_block = s.at(s.fhi) >> m
            if lo_block == hi_block:
                return (self.template >> k) | lo_block
            # First f where the block index changes:
            boundary = ((lo_block + 1) << m) - s.b
            raise NeedSplit((boundary,))
        raise Concretize("shift lands inside the symbolic field")

    def __eq__(self, other):
        if not isinstance(other, int):
            return NotImplemented
        fm = self.field_mask
        if (self.template & ~fm & 0xFFFFFFFF) != (other & ~fm & 0xFFFFFFFF):
            return False
        return self.sym == ((other >> self.fld_lo)
                            & ((1 << self.fld_width) - 1))

    def __ne__(self, other):
        eq = self.__eq__(other)
        if eq is NotImplemented:
            return eq
        return not eq

    __hash__ = object.__hash__


# ---------------------------------------------------------------------------
# Abstract register state
# ---------------------------------------------------------------------------

SymOrInt = Union[int, SymInt]


class AbsVal:
    """A register's abstract value: an interval, base-relative or absolute.

    ``rel=True`` means the value is sandbox_base + [lo, hi]; ``rel=False``
    means the value is in [lo, hi] with no relation to the base.  Bounds
    are inclusive and may be symbolic (a SymInt of the word's immediate
    field), in which case comparisons on them split precisely.
    """

    __slots__ = ("rel", "lo", "hi")

    def __init__(self, rel: bool, lo: SymOrInt, hi: SymOrInt):
        self.rel, self.lo, self.hi = rel, lo, hi

    def shifted(self, delta: SymOrInt) -> "AbsVal":
        return AbsVal(self.rel, self.lo + delta, self.hi + delta)

    def __repr__(self) -> str:
        tag = "base+" if self.rel else ""
        return f"AbsVal({tag}[{self.lo}, {self.hi}])"


TOP = AbsVal(False, 0, MASK64)
ABS32 = AbsVal(False, 0, MASK32)
#: A valid sandbox address: base + [0, 2^32).
INBOX = AbsVal(True, 0, SANDBOX_SIZE - 1)
#: Exactly the sandbox base (x21).
BASE = AbsVal(True, 0, 0)

#: sp at an instruction-boundary "rest" point: the trapping access that
#: closes every arithmetic window has |displacement| < SP_SMALL_IMM, so a
#: successful access at sp+d pins sp within SP_SMALL_IMM-1 of the
#: *readable* region (DESIGN.md §14).  The readable region is the mapped
#: sandbox plus the neighbour's read-only runtime-call table page — a
#: load can complete there, so the high side of both hulls carries an
#: extra PAGE_SIZE.
SP_REST_SLACK = SP_SMALL_IMM - 1
#: sp between an accepted sp arithmetic and its trapping access: one more
#: small immediate of drift on top of the rest slack.
SP_PENDING_SLACK = 2 * (SP_SMALL_IMM - 1)

#: Memory containment region, relative to the sandbox base.  Below base:
#: the previous slot's high guard (GUARD_SIZE, unmapped — traps).  Above
#: base + 4GiB: the next slot's runtime-call table page (read-only — a
#: store traps; a load is the documented table-read carve-out) followed by
#: its low guard.  Anything inside [CONTAIN_LO, CONTAIN_HI) either stays
#: in this sandbox or faults; both are contained.
CONTAIN_LO = -GUARD_SIZE
CONTAIN_HI = SANDBOX_SIZE + PAGE_SIZE + GUARD_SIZE


def _sp_rest() -> AbsVal:
    return AbsVal(True, -SP_REST_SLACK,
                  SANDBOX_SIZE + PAGE_SIZE - 1 + SP_REST_SLACK)


def _sp_pending() -> AbsVal:
    return AbsVal(True, -SP_PENDING_SLACK,
                  SANDBOX_SIZE + PAGE_SIZE - 1 + SP_PENDING_SLACK)


def initial_state() -> dict:
    """Weakest verified-program state ahead of an arbitrary instruction.

    Keys are GPR indices 0..30 plus ``"sp"``.  sp uses the *pending* hull
    (an accepted instruction may execute between an sp arithmetic and its
    re-establishing access); the transfer function narrows to the rest
    hull where the verifier guarantees it.
    """
    state = {i: TOP for i in range(31)}
    state[18] = INBOX
    state[21] = BASE
    state[22] = ABS32
    state[23] = INBOX
    state[24] = INBOX
    state[30] = INBOX
    state["sp"] = _sp_pending()
    return state


def _key(reg: Reg):
    return "sp" if reg.is_sp else reg.index


def _read(state: dict, reg: Reg) -> AbsVal:
    """A source register's abstract value (xzr/wzr read as constant 0)."""
    if reg.is_zero:
        return AbsVal(False, 0, 0)
    return state[_key(reg)]


def _imm_of(operand) -> Optional[SymOrInt]:
    if isinstance(operand, Imm):
        return operand.value
    if isinstance(operand, ShiftedImm):
        return operand.value << operand.shift
    return None


def transfer(inst: Instruction, state: dict) -> dict:
    """Abstract one instruction's register effects (memory is separate).

    Conservative: every destination becomes TOP unless the instruction is
    a recognized invariant-preserving pattern.  Soundness needs only that
    the result *over*-approximates the emulator's semantics.
    """
    defs = [r for r in inst.defs() if not r.is_vector and not r.is_zero]
    if not defs:
        return state
    out = dict(state)
    m = inst.mnemonic
    mem = inst.mem
    for reg in defs:
        key = _key(reg)
        if mem is not None and mem.writes_back and reg is mem.base:
            imm = mem.imm_value
            base_val = state[key]
            if reg.is_sp:
                # Trap-before-writeback (emulator: the access faults before
                # the base is updated): a completed access pins the written
                # value within the readable region ± the immediate.
                lo_i, hi_i = bounds(imm)
                out[key] = AbsVal(True, min(0, lo_i),
                                  SANDBOX_SIZE + PAGE_SIZE - 1 + max(0, hi_i))
            else:
                out[key] = base_val.shifted(imm)
            continue
        if m == "ldr" and reg.index == 30 and not reg.is_sp \
                and reg.bits == 64 and mem is not None \
                and not mem.writes_back \
                and mem.base.index == 21 and not mem.base.is_sp \
                and (mem.offset is None or isinstance(mem.offset, Imm)):
            # Runtime-call load: the verifier only accepts `ldr x30,
            # [x21, #imm]` when the next instruction is `blr x30` and the
            # immediate indexes the read-only call table, whose entries
            # the host populates with trusted in-sandbox/runtime targets
            # (axiom A3, DESIGN.md §14).
            out[key] = INBOX
            continue
        if reg.bits == 32:
            out[key] = ABS32
            continue
        if _is_sp_guard(inst) and reg.is_sp:
            out[key] = INBOX
            continue
        if _is_guard(inst, reg.index):
            out[key] = INBOX
            continue
        if inst.is_call and reg.index == 30 and not reg.is_sp:
            # bl/blr write pc+4; code lives below the keep-out, so the
            # link value is always a valid sandbox address.
            out[key] = INBOX
            continue
        if m in ("add", "sub") and len(inst.operands) == 3:
            rd, rn, src = inst.operands
            imm = _imm_of(src)
            if imm is not None and isinstance(rn, Reg) and not rn.is_vector:
                src_val = _read(state, rn)
                if rn.is_sp:
                    # The verifier rejects sp arithmetic inside a pending
                    # window, so the source is at a rest point.
                    src_val = _sp_rest()
                out[key] = src_val.shifted(imm if m == "add" else -imm)
                continue
        if m == "mov" and len(inst.operands) == 2:
            src = inst.operands[1]
            if isinstance(src, Reg) and not src.is_vector \
                    and src.bits == 64:
                out[key] = _read(state, src)
                continue
        out[key] = TOP
    return out


def mem_effects(inst: Instruction, state: dict) -> List[tuple]:
    """(is_load, is_store, AbsVal address-interval incl. width) tuples."""
    mem = inst.mem
    if mem is None:
        return []
    base_val = state[_key(mem.base)]
    width = total_access_bytes(inst)
    offset = mem.offset
    if mem.mode == POST_INDEX or offset is None:
        lo_off, hi_off = 0, 0
    elif isinstance(offset, Imm):
        lo_off = hi_off = offset.value
    elif (isinstance(offset, Extended) and offset.kind == "uxtw"
          and not offset.amount and offset.reg.bits == 32):
        lo_off, hi_off = 0, MASK32
    else:
        # Arbitrary register offset: address unrelated to the base.
        return [(inst.is_load, inst.is_store, TOP.shifted(0), width)]
    addr = AbsVal(base_val.rel, base_val.lo + lo_off,
                  base_val.hi + hi_off + width - 1)
    return [(inst.is_load, inst.is_store, addr, width)]


#: (state key, required AbsVal) for every reserved-register invariant.
_INVARIANTS = (
    (21, BASE, "x21 (sandbox base)"),
    (18, INBOX, "x18 (guard scratch)"),
    (23, INBOX, "x23 (hoist)"),
    (24, INBOX, "x24 (hoist)"),
    (22, ABS32, "x22 (32-bit invariant)"),
    (30, INBOX, "x30 (link)"),
    ("sp", None, "sp"),
)


def _within(val: AbsVal, req: AbsVal) -> bool:
    """val ⊆ req?  May raise NeedSplit on a symbolic boundary."""
    if val.rel != req.rel:
        # An absolute interval can never be proven inside a base-relative
        # one (the base is arbitrary), except the trivial empty cases.
        return False
    return bool((val.lo >= req.lo) and (val.hi <= req.hi))


def invariant_failures(state: dict, sp_req: Optional[AbsVal] = None
                       ) -> List[str]:
    """Which reserved-register invariants the post-state fails to uphold.

    ``sp_req`` selects the sp hull to check against: the *pending* hull by
    default (an arbitrary program point), or the *rest* hull when the
    analyzed sequence touched sp — a sequence that modifies or re-pins sp
    must restore the rest invariant for the induction to close
    (DESIGN.md §14).
    """
    failures = []
    for key, req, name in _INVARIANTS:
        if req is None:
            req = sp_req if sp_req is not None else _sp_pending()
        val = state[key]
        if not _within(val, req):
            failures.append(f"{name} leaves its invariant region: {val!r}")
    return failures
