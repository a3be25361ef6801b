"""4-state bit-vector values.

A :class:`FourState` is a fixed-width vector where every bit is 0, 1 or X
(Z is folded into X — our subset has no tristate logic).  Representation is
two integers: ``value`` holds the 0/1 bits, ``xmask`` marks unknown bits.
Bits set in ``xmask`` are forced to 0 in ``value`` so equality and hashing
are canonical.

X propagation is pessimistic at vector granularity for arithmetic (any X
operand makes the whole result X) and bit-accurate for the bitwise
operators where masking can rescue known bits (e.g. ``0 & x == 0``), which
matches how event-driven simulators behave on the idioms our corpus emits.
"""

from __future__ import annotations

from typing import Union


def _mask(width: int) -> int:
    return (1 << width) - 1


class FourState:
    """Immutable fixed-width 4-state vector."""

    __slots__ = ("width", "value", "xmask")

    def __init__(self, width: int, value: int = 0, xmask: int = 0):
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        m = _mask(width)
        xmask &= m
        self.width = width
        self.xmask = xmask
        self.value = value & m & ~xmask

    # -- constructors --------------------------------------------------------

    @classmethod
    def unknown(cls, width: int) -> "FourState":
        return cls(width, 0, _mask(width))

    @classmethod
    def from_bool(cls, flag: bool) -> "FourState":
        return cls(1, int(flag), 0)

    # -- predicates -----------------------------------------------------------

    @property
    def has_x(self) -> bool:
        return self.xmask != 0

    @property
    def all_x(self) -> bool:
        return self.xmask == _mask(self.width)

    def is_true(self) -> bool:
        """Definitely nonzero: some known bit is 1."""
        return self.value != 0

    def is_false(self) -> bool:
        """Definitely zero: all bits known and zero."""
        return self.value == 0 and self.xmask == 0

    def to_int(self) -> int:
        """Known value as int; X bits read as 0 (caller should check has_x)."""
        return self.value

    def to_signed(self) -> int:
        sign_bit = 1 << (self.width - 1)
        if self.value & sign_bit:
            return self.value - (1 << self.width)
        return self.value

    # -- shaping ---------------------------------------------------------------

    def resize(self, width: int) -> "FourState":
        """Zero-extend or truncate to ``width``."""
        if width == self.width:
            return self
        return FourState(width, self.value, self.xmask)

    def bit(self, index: int) -> "FourState":
        if index < 0 or index >= self.width:
            return FourState.unknown(1)
        return FourState(1, (self.value >> index) & 1, (self.xmask >> index) & 1)

    def slice(self, msb: int, lsb: int) -> "FourState":
        if lsb > msb:
            msb, lsb = lsb, msb
        width = msb - lsb + 1
        if lsb >= self.width:
            return FourState.unknown(width)
        return FourState(width, self.value >> lsb, self.xmask >> lsb)

    def replace_slice(self, msb: int, lsb: int, other: "FourState") -> "FourState":
        """Functional update of bits [msb:lsb] with ``other``."""
        if lsb > msb:
            msb, lsb = lsb, msb
        span = _mask(msb - lsb + 1) << lsb
        value = (self.value & ~span) | ((other.value << lsb) & span)
        xmask = (self.xmask & ~span) | ((other.xmask << lsb) & span)
        return FourState(self.width, value, xmask)

    # -- arithmetic (vector-pessimistic on X) -----------------------------------

    def _binary_arith(self, other: "FourState", width: int, op) -> "FourState":
        if self.has_x or other.has_x:
            return FourState.unknown(width)
        return FourState(width, op(self.value, other.value) & _mask(width))

    def add(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        return self._binary_arith(other, width, lambda a, b: a + b)

    def sub(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        return self._binary_arith(other, width, lambda a, b: a - b)

    def mul(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        return self._binary_arith(other, width, lambda a, b: a * b)

    def div(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        if other.is_false() or other.has_x or self.has_x:
            return FourState.unknown(width)
        return FourState(width, (self.value // other.value) & _mask(width))

    def mod(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        if other.is_false() or other.has_x or self.has_x:
            return FourState.unknown(width)
        return FourState(width, (self.value % other.value) & _mask(width))

    def pow(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        if self.has_x or other.has_x or other.value > 64:
            return FourState.unknown(width)
        return FourState(width, pow(self.value, other.value, 1 << width))

    # -- bitwise (bit-accurate X) -------------------------------------------------

    def bit_and(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        a, b = self.resize(width), other.resize(width)
        # Result bit known-0 where either side is known-0.
        known_zero = (~a.value & ~a.xmask) | (~b.value & ~b.xmask)
        value = a.value & b.value
        xmask = (a.xmask | b.xmask) & ~known_zero
        return FourState(width, value, xmask & _mask(width))

    def bit_or(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        a, b = self.resize(width), other.resize(width)
        known_one = a.value | b.value
        value = known_one
        xmask = (a.xmask | b.xmask) & ~known_one
        return FourState(width, value, xmask)

    def bit_xor(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        a, b = self.resize(width), other.resize(width)
        xmask = a.xmask | b.xmask
        return FourState(width, a.value ^ b.value, xmask)

    def bit_not(self) -> "FourState":
        return FourState(self.width, ~self.value, self.xmask)

    # -- shifts ---------------------------------------------------------------------

    def shl(self, other: "FourState") -> "FourState":
        if other.has_x:
            return FourState.unknown(self.width)
        n = min(other.value, self.width)
        return FourState(self.width, self.value << n, self.xmask << n)

    def shr(self, other: "FourState") -> "FourState":
        if other.has_x:
            return FourState.unknown(self.width)
        n = other.value
        return FourState(self.width, self.value >> n, self.xmask >> n)

    def ashr(self, other: "FourState") -> "FourState":
        if other.has_x or self.has_x:
            return FourState.unknown(self.width)
        n = min(other.value, self.width)
        return FourState(self.width, (self.to_signed() >> n) & _mask(self.width))

    # -- comparisons (1-bit results) ---------------------------------------------------

    def _cmp(self, other: "FourState", op) -> "FourState":
        if self.has_x or other.has_x:
            return FourState.unknown(1)
        return FourState.from_bool(op(self.value, other.value))

    def eq(self, other: "FourState") -> "FourState":
        width = max(self.width, other.width)
        a, b = self.resize(width), other.resize(width)
        if a.xmask or b.xmask:
            # If any known bits already differ, the result is known-false.
            known = ~(a.xmask | b.xmask) & _mask(width)
            if (a.value ^ b.value) & known:
                return FourState.from_bool(False)
            return FourState.unknown(1)
        return FourState.from_bool(a.value == b.value)

    def ne(self, other: "FourState") -> "FourState":
        result = self.eq(other)
        if result.has_x:
            return result
        return FourState.from_bool(not result.is_true())

    def case_eq(self, other: "FourState") -> "FourState":
        """``===``: X bits compare as literal values."""
        width = max(self.width, other.width)
        a, b = self.resize(width), other.resize(width)
        return FourState.from_bool(a.value == b.value and a.xmask == b.xmask)

    def lt(self, other: "FourState") -> "FourState":
        return self._cmp(other, lambda a, b: a < b)

    def le(self, other: "FourState") -> "FourState":
        return self._cmp(other, lambda a, b: a <= b)

    def gt(self, other: "FourState") -> "FourState":
        return self._cmp(other, lambda a, b: a > b)

    def ge(self, other: "FourState") -> "FourState":
        return self._cmp(other, lambda a, b: a >= b)

    # -- logical (1-bit, 3-valued) -------------------------------------------------------

    def log_not(self) -> "FourState":
        if self.is_true():
            return FourState.from_bool(False)
        if self.is_false():
            return FourState.from_bool(True)
        return FourState.unknown(1)

    def log_and(self, other: "FourState") -> "FourState":
        if self.is_false() or other.is_false():
            return FourState.from_bool(False)
        if self.is_true() and other.is_true():
            return FourState.from_bool(True)
        return FourState.unknown(1)

    def log_or(self, other: "FourState") -> "FourState":
        if self.is_true() or other.is_true():
            return FourState.from_bool(True)
        if self.is_false() and other.is_false():
            return FourState.from_bool(False)
        return FourState.unknown(1)

    # -- reductions ----------------------------------------------------------------------

    def reduce_and(self) -> "FourState":
        m = _mask(self.width)
        if (self.value | self.xmask) != m:
            return FourState.from_bool(False)
        if self.xmask:
            return FourState.unknown(1)
        return FourState.from_bool(True)

    def reduce_or(self) -> "FourState":
        if self.value:
            return FourState.from_bool(True)
        if self.xmask:
            return FourState.unknown(1)
        return FourState.from_bool(False)

    def reduce_xor(self) -> "FourState":
        if self.xmask:
            return FourState.unknown(1)
        return FourState.from_bool(bool(bin(self.value).count("1") & 1))

    def count_ones(self) -> "FourState":
        if self.xmask:
            return FourState.unknown(32)
        return FourState(32, bin(self.value).count("1"))

    # -- structure -------------------------------------------------------------------------

    def concat(self, other: "FourState") -> "FourState":
        """``{self, other}`` — self becomes the high part."""
        width = self.width + other.width
        value = (self.value << other.width) | other.value
        xmask = (self.xmask << other.width) | other.xmask
        return FourState(width, value, xmask)

    def repeat(self, count: int) -> "FourState":
        if count <= 0:
            raise ValueError("replication count must be positive")
        out = self
        for _ in range(count - 1):
            out = out.concat(self)
        return out

    def negate(self) -> "FourState":
        if self.has_x:
            return FourState.unknown(self.width)
        return FourState(self.width, -self.value)

    # -- dunder --------------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return not self.has_x and self.value == other
        if isinstance(other, FourState):
            return (self.width == other.width and self.value == other.value
                    and self.xmask == other.xmask)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.width, self.value, self.xmask))

    def __repr__(self) -> str:
        return f"FourState({self.width}'{self.to_verilog()})"

    def to_verilog(self) -> str:
        """Binary literal with x digits, e.g. ``b10x1``."""
        digits = []
        for i in reversed(range(self.width)):
            if (self.xmask >> i) & 1:
                digits.append("x")
            else:
                digits.append(str((self.value >> i) & 1))
        return "b" + "".join(digits)


Value = Union[FourState, int]
