"""Lane element types: the dtype axis of the pipeline.

A :class:`LaneType` describes one integer element type a vector register can
be carved into — its bit width, its C spelling, and its numpy dtype name.
Everything that used to be hardwired to 32 bits (``wrap32``, ``LANE_BITS``,
``numpy.int32`` kernels, ``_epi32``/``_s32`` spellings, 32-bit symexec
terms) is parameterized by these descriptors instead, the same way
:class:`repro.targets.TargetISA` made vector *width* a data axis.

Three types ship: :data:`INT16`, :data:`INT32` (the default — the paper's
universe) and :data:`INT64`.  Lane counts are never stored here: a target's
lane count for a dtype is ``register_bits // dtype.bits``, owned by
:meth:`repro.targets.TargetISA.lanes_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class LaneType:
    """One integer element type, described entirely as data."""

    #: Canonical identifier used in configs, caches, suffixes and reports.
    name: str
    #: Element width in bits; every wraparound reduces modulo ``2**bits``.
    bits: int
    #: The C scalar spelling kernels declare (``int`` for the default type,
    #: the ``<stdint.h>`` fixed-width names otherwise).
    c_name: str
    #: numpy dtype name for the bulk lane kernels.
    np_name: str

    # Derived from ``bits`` once and then read from the instance dict:
    # ``wrap`` runs per stored element.
    @cached_property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    @cached_property
    def sign_bit(self) -> int:
        return 1 << (self.bits - 1)

    @cached_property
    def modulus(self) -> int:
        return 1 << self.bits

    @property
    def bytes(self) -> int:
        return self.bits // 8

    def wrap(self, value: int) -> int:
        """Reduce ``value`` to this type's signed two's-complement range."""
        value &= self.mask
        if value & self.sign_bit:
            value -= self.modulus
        return value

    def to_unsigned(self, value: int) -> int:
        """Interpret a signed value of this type as unsigned."""
        return value & self.mask

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.name


INT16 = LaneType(name="int16", bits=16, c_name="int16_t", np_name="int16")
INT32 = LaneType(name="int32", bits=32, c_name="int", np_name="int32")
INT64 = LaneType(name="int64", bits=64, c_name="int64_t", np_name="int64")

#: Every supported element type, narrow to wide.
ALL_LANE_TYPES: tuple[LaneType, ...] = (INT16, INT32, INT64)

DEFAULT_LANE_TYPE = INT32

_BY_NAME = {t.name: t for t in ALL_LANE_TYPES}

_ALIASES = {
    **{t.name: t.name for t in ALL_LANE_TYPES},
    **{t.c_name: t.name for t in ALL_LANE_TYPES},
    "int32_t": "int32",
    "i16": "int16", "i32": "int32", "i64": "int64",
}


def trunc_div(numerator: int, denominator: int) -> int:
    """C's truncating integer division (rounds toward zero), exact at any width.

    ``int(a / b)`` goes through a float and is wrong once an operand passes
    2**53, which int64 lanes reach.  ``denominator`` must be nonzero.
    """
    quotient = abs(numerator) // abs(denominator)
    return quotient if (numerator < 0) == (denominator < 0) else -quotient


def lane_type_names() -> list[str]:
    """Canonical names of all supported element types, narrow to wide."""
    return [t.name for t in ALL_LANE_TYPES]


def get_lane_type(dtype: "LaneType | str | None") -> LaneType:
    """Resolve a dtype spec (instance, name/alias, or None -> default)."""
    if dtype is None:
        return DEFAULT_LANE_TYPE
    if isinstance(dtype, LaneType):
        return dtype
    canonical = _ALIASES.get(str(dtype).strip().lower())
    if canonical is None:
        known = ", ".join(sorted(_BY_NAME))
        raise ValueError(f"unknown lane element type {dtype!r} (known: {known})")
    return _BY_NAME[canonical]
