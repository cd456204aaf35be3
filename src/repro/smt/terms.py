"""Bitvector term language.

Terms are immutable, hash-consed DAG nodes over one modeled word width (32
bits by default; the :func:`modeled_bits` context switches the active width
to the kernel's lane element width, and the bit-blaster may re-interpret
terms at a further reduced width).  The operation set covers exactly what
the symbolic executor needs for TSVC kernels and their SIMD vectorizations:
wraparound arithmetic, bitwise logic, comparisons (yielding 0/1),
if-then-else selection, min/max and absolute value.
"""

from __future__ import annotations

import enum
import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.lanetypes import trunc_div

WORD_BITS = 32
_WORD_MASK = (1 << WORD_BITS) - 1
_SIGN_BIT = 1 << (WORD_BITS - 1)

#: The active modeled width.  Width-sensitive construction steps (constant
#: masking, constant folding, the full-lane mask algebra) read it, so terms
#: built inside ``modeled_bits(16)`` wrap like int16 lanes.  The default is
#: the historical 32-bit word.
_ACTIVE_BITS = WORD_BITS


def active_bits() -> int:
    """The modeled word width terms are currently being built at."""
    return _ACTIVE_BITS


@contextmanager
def modeled_bits(bits: int) -> Iterator[None]:
    """Build terms at ``bits``-wide word semantics for the ``with`` body.

    The symbolic executor wraps each kernel encoding in this context so the
    term layer's constant folding, constant masking and mask-algebra
    rewrites all happen at the kernel's lane element width.  Nesting is
    fine; the previous width is restored on exit.
    """
    global _ACTIVE_BITS
    if bits <= 0:
        raise ValueError(f"modeled width must be positive, got {bits}")
    previous = _ACTIVE_BITS
    _ACTIVE_BITS = bits
    try:
        yield
    finally:
        _ACTIVE_BITS = previous


def to_signed(value: int, bits: int = WORD_BITS) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value


def to_unsigned(value: int, bits: int = WORD_BITS) -> int:
    return value & ((1 << bits) - 1)


class TermKind(enum.Enum):
    CONST = "const"
    VAR = "var"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    NEG = "neg"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    SHL = "shl"
    LSHR = "lshr"
    ASHR = "ashr"
    DIV = "div"      # C-style truncating signed division
    REM = "rem"      # C-style signed remainder
    ITE = "ite"      # ite(cond, a, b) where cond is 0/1
    LT = "lt"        # signed less-than, yields 0/1
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    POISON = "poison"  # a poison marker value (UB tracking)


_COMMUTATIVE = {TermKind.ADD, TermKind.MUL, TermKind.AND, TermKind.OR, TermKind.XOR,
                TermKind.EQ, TermKind.NE, TermKind.MIN, TermKind.MAX}


@dataclass(frozen=True, eq=False)
class Term:
    """One node of the term DAG.

    Equality is structural, but every node caches its structural hash at
    construction time, so hashing is O(1) and equality checks short-circuit
    on hash inequality before falling back to a structural walk.  Nodes
    built through :func:`mk` are additionally hash-consed (interned):
    structurally equal terms constructed through it are pointer-equal, so
    the identity fast path below decides most comparisons.  Direct
    ``Term(...)`` construction (the normalizer builds raw nodes) stays
    valid — such nodes simply aren't interned.
    """

    kind: TermKind
    args: tuple["Term", ...] = ()
    value: int | None = None       # for CONST
    name: str | None = None        # for VAR / POISON provenance

    def __post_init__(self) -> None:
        if self.kind is TermKind.CONST and self.value is None:
            raise ValueError("constant terms need a value")
        if self.kind is TermKind.VAR and not self.name:
            raise ValueError("variable terms need a name")
        object.__setattr__(
            self, "_hash", hash((self.kind, self.args, self.value, self.name))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        if self._hash != other._hash:
            return False
        return (
            self.kind is other.kind
            and self.value == other.value
            and self.name == other.name
            and self.args == other.args
        )

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is TermKind.CONST:
            return str(to_signed(self.value))
        if self.kind is TermKind.VAR:
            return self.name
        return f"{self.kind.value}({', '.join(str(a) for a in self.args)})"


_CONST_CACHE: dict[int, Term] = {}
_VAR_CACHE: dict[str, Term] = {}

#: Interning table for compound nodes built by :func:`mk`, keyed by the
#: (kind, args) pair itself: the key tuple holds strong references, so ids
#: stay valid, and lookups are cheap thanks to the cached per-node hashes.
_NODE_CACHE: dict[tuple[TermKind, tuple["Term", ...]], Term] = {}

#: Memo over the whole :func:`mk` simplification pipeline.  The symbolic
#: executor rebuilds structurally identical subtrees once per bounded-unroll
#: copy; this returns the previously simplified (and interned) result
#: without re-running folding, identity and mask-algebra rewrites.
_MK_CACHE: dict[tuple[int, TermKind, tuple["Term", ...]], Term] = {}

_TERM_CACHE_LIMIT = 200_000


def _intern(kind: TermKind, args: tuple[Term, ...]) -> Term:
    key = (kind, args)
    node = _NODE_CACHE.get(key)
    if node is None:
        node = Term(kind, args)
        if len(_NODE_CACHE) >= _TERM_CACHE_LIMIT:
            _NODE_CACHE.clear()
        _NODE_CACHE[key] = node
    return node


def bv_const(value: int) -> Term:
    value = to_unsigned(int(value), _ACTIVE_BITS)
    if value not in _CONST_CACHE:
        _CONST_CACHE[value] = Term(TermKind.CONST, value=value)
    return _CONST_CACHE[value]


def bv_var(name: str) -> Term:
    if name not in _VAR_CACHE:
        _VAR_CACHE[name] = Term(TermKind.VAR, name=name)
    return _VAR_CACHE[name]


def poison(reason: str = "poison") -> Term:
    return Term(TermKind.POISON, name=reason)


ZERO = bv_const(0)
ONE = bv_const(1)


def _all_const(args: Iterable[Term]) -> bool:
    return all(a.kind is TermKind.CONST for a in args)


def mk(kind: TermKind, *args: Term) -> Term:
    """Build a term with light local simplification (constant folding, identities).

    Results are memoized and interned: calling ``mk`` twice with equal
    arguments returns the same object, and the simplification rules run
    only on the first call.
    """
    # Simplification is width-sensitive (folding, mask algebra), so the memo
    # is keyed by the active modeled width as well as the node itself.
    memo_key = (_ACTIVE_BITS, kind, args)
    cached = _MK_CACHE.get(memo_key)
    if cached is not None:
        return cached
    result = _mk_uncached(kind, *args)
    if len(_MK_CACHE) >= _TERM_CACHE_LIMIT:
        _MK_CACHE.clear()
    _MK_CACHE[memo_key] = result
    return result


def _mk_uncached(kind: TermKind, *args: Term) -> Term:
    if any(a.kind is TermKind.POISON for a in args):
        # Poison propagates through every operation except ITE selection,
        # which the executor handles explicitly before calling ``mk``.
        for a in args:
            if a.kind is TermKind.POISON:
                return a
    if _all_const(args):
        return bv_const(evaluate(Term(kind, tuple(args)), {}, bits=_ACTIVE_BITS))
    if kind is TermKind.ADD:
        left, right = args
        if left is ZERO:
            return right
        if right is ZERO:
            return left
    if kind is TermKind.SUB:
        left, right = args
        if right is ZERO:
            return left
        if left == right:
            return ZERO
    if kind is TermKind.MUL:
        left, right = args
        if left is ZERO or right is ZERO:
            return ZERO
        if left is ONE:
            return right
        if right is ONE:
            return left
    if kind in (TermKind.GT, TermKind.GE):
        # Canonical comparison direction: only LT / LE survive construction.
        flipped = TermKind.LT if kind is TermKind.GT else TermKind.LE
        return mk(flipped, args[1], args[0])
    if kind is TermKind.ITE:
        cond, then, otherwise = args
        if cond.kind is TermKind.CONST:
            return then if cond.value != 0 else otherwise
        if then == otherwise:
            return then
        minmax = _minmax_pattern(cond, then, otherwise)
        if minmax is not None:
            return minmax
    rewritten = _comparison_negation(kind, args)
    if rewritten is not None:
        return rewritten
    rewritten = _mask_algebra(kind, args)
    if rewritten is not None:
        return rewritten
    if kind in _COMMUTATIVE and len(args) == 2:
        left, right = args
        # Canonical argument order gives structural equality a better chance.
        if _term_key(right) < _term_key(left):
            args = (right, left)
    return _intern(kind, tuple(args))


def _minmax_pattern(cond: Term, then: Term, otherwise: Term) -> Term | None:
    """Recognize ``ite(a < b ? ...)`` selections that are really min/max."""
    if cond.kind not in (TermKind.LT, TermKind.LE):
        return None
    low, high = cond.args
    if low == otherwise and high == then:
        # ite(e < t, t, e): picks the larger operand.
        return _intern(TermKind.MAX, tuple(sorted((then, otherwise), key=_term_key)))
    if low == then and high == otherwise:
        # ite(t < e, t, e): picks the smaller operand.
        return _intern(TermKind.MIN, tuple(sorted((then, otherwise), key=_term_key)))
    return None


_COMPARISON_NEGATIONS = {
    TermKind.LT: TermKind.GE,
    TermKind.LE: TermKind.GT,
    TermKind.EQ: TermKind.NE,
    TermKind.NE: TermKind.EQ,
}


def _comparison_negation(kind: TermKind, args: tuple[Term, ...]) -> Term | None:
    """Fold ``(a CMP b) == 0`` into the negated comparison."""
    if kind is not TermKind.EQ or len(args) != 2:
        return None
    left, right = args
    for cmp_term, zero in ((left, right), (right, left)):
        if zero.kind is TermKind.CONST and zero.value == 0 and cmp_term.kind in _COMPARISON_NEGATIONS:
            negated = _COMPARISON_NEGATIONS[cmp_term.kind]
            return mk(negated, cmp_term.args[0], cmp_term.args[1])
    return None


def _all_ones_value() -> int:
    """The all-ones constant (-1) at the active modeled width."""
    return (1 << _ACTIVE_BITS) - 1


def _as_lane_mask(term: Term) -> Term | None:
    """If ``term`` is a full-lane mask (``ite(cond, -1, 0)``), return ``cond``."""
    if (
        term.kind is TermKind.ITE
        and term.args[1].kind is TermKind.CONST
        and term.args[2].kind is TermKind.CONST
        and term.args[1].value == _all_ones_value()
        and term.args[2].value == 0
    ):
        return term.args[0]
    return None


def _bool_not(cond: Term) -> Term:
    """Negation of a 0/1-valued condition term."""
    return mk(TermKind.EQ, cond, bv_const(0))


def _mask_algebra(kind: TermKind, args: tuple[Term, ...]) -> Term | None:
    """Rewrite the AVX2 mask idioms back into plain conditions.

    Comparison intrinsics produce per-lane masks ``ite(cond, -1, 0)``; blends
    test them with ``!= 0`` and combine them with bitwise and/or/xor.  These
    rules fold that algebra away so that the vectorized program's final terms
    normalize to the same ``ite(cond, ...)`` shape as the scalar program's —
    letting the normalization stage prove equivalence without bit-blasting.
    """
    if kind in (TermKind.NE, TermKind.EQ) and len(args) == 2:
        left, right = args
        if right.kind is TermKind.CONST and right.value == 0:
            cond = _as_lane_mask(left)
            if cond is not None:
                return cond if kind is TermKind.NE else _bool_not(cond)
        if left.kind is TermKind.CONST and left.value == 0:
            cond = _as_lane_mask(right)
            if cond is not None:
                return cond if kind is TermKind.NE else _bool_not(cond)
    if kind in (TermKind.AND, TermKind.OR) and len(args) == 2:
        cond_a = _as_lane_mask(args[0])
        cond_b = _as_lane_mask(args[1])
        if cond_a is not None and cond_b is not None:
            combined = mk(kind, cond_a, cond_b)
            return mk(TermKind.ITE, combined, bv_const(-1), bv_const(0))
        # andnot(mask, x) shows up as and(not(mask), x).
    if kind is TermKind.NOT and len(args) == 1:
        cond = _as_lane_mask(args[0])
        if cond is not None:
            return mk(TermKind.ITE, _bool_not(cond), bv_const(-1), bv_const(0))
    if kind is TermKind.XOR and len(args) == 2:
        left, right = args
        for mask_arg, other in ((left, right), (right, left)):
            cond = _as_lane_mask(mask_arg)
            if cond is not None and other.kind is TermKind.CONST and other.value == _all_ones_value():
                return mk(TermKind.ITE, _bool_not(cond), bv_const(-1), bv_const(0))
    return None


def _term_key(term: Term) -> tuple:
    return (term.kind.value, term.value if term.value is not None else -1, term.name or "", len(term.args))


def evaluate(term: Term, assignment: Mapping[str, int], bits: int = WORD_BITS) -> int:
    """Evaluate ``term`` under ``assignment`` (values are unsigned ``bits``-wide).

    The evaluation is memoized over DAG node identity so shared sub-terms are
    evaluated once.
    """
    mask = (1 << bits) - 1
    cache: dict[int, int] = {}

    def sgn(value: int) -> int:
        return to_signed(value, bits)

    def go(node: Term) -> int:
        cached = cache.get(id(node))
        if cached is not None:
            return cached
        result = _eval_node(node)
        cache[id(node)] = result
        return result

    def _eval_node(node: Term) -> int:
        if node.kind is TermKind.CONST:
            return node.value & mask
        if node.kind is TermKind.VAR:
            if node.name not in assignment:
                raise KeyError(f"unassigned variable {node.name!r}")
            return assignment[node.name] & mask
        if node.kind is TermKind.POISON:
            # Concrete evaluation treats poison as an arbitrary-but-fixed value.
            return 0xDEAD & mask
        values = [go(a) for a in node.args]
        if node.kind is TermKind.ADD:
            return (values[0] + values[1]) & mask
        if node.kind is TermKind.SUB:
            return (values[0] - values[1]) & mask
        if node.kind is TermKind.MUL:
            return (values[0] * values[1]) & mask
        if node.kind is TermKind.NEG:
            return (-values[0]) & mask
        if node.kind is TermKind.AND:
            return values[0] & values[1]
        if node.kind is TermKind.OR:
            return values[0] | values[1]
        if node.kind is TermKind.XOR:
            return values[0] ^ values[1]
        if node.kind is TermKind.NOT:
            return (~values[0]) & mask
        if node.kind is TermKind.SHL:
            return (values[0] << (values[1] % bits)) & mask
        if node.kind is TermKind.LSHR:
            return (values[0] >> (values[1] % bits)) & mask
        if node.kind is TermKind.ASHR:
            return (sgn(values[0]) >> (values[1] % bits)) & mask
        if node.kind is TermKind.DIV:
            if values[1] == 0:
                return 0
            return trunc_div(sgn(values[0]), sgn(values[1])) & mask
        if node.kind is TermKind.REM:
            if values[1] == 0:
                return 0
            dividend, divisor = sgn(values[0]), sgn(values[1])
            return (dividend - trunc_div(dividend, divisor) * divisor) & mask
        if node.kind is TermKind.ITE:
            return values[1] if values[0] != 0 else values[2]
        if node.kind is TermKind.LT:
            return 1 if sgn(values[0]) < sgn(values[1]) else 0
        if node.kind is TermKind.LE:
            return 1 if sgn(values[0]) <= sgn(values[1]) else 0
        if node.kind is TermKind.GT:
            return 1 if sgn(values[0]) > sgn(values[1]) else 0
        if node.kind is TermKind.GE:
            return 1 if sgn(values[0]) >= sgn(values[1]) else 0
        if node.kind is TermKind.EQ:
            return 1 if values[0] == values[1] else 0
        if node.kind is TermKind.NE:
            return 1 if values[0] != values[1] else 0
        if node.kind is TermKind.MIN:
            return values[0] if sgn(values[0]) <= sgn(values[1]) else values[1]
        if node.kind is TermKind.MAX:
            return values[0] if sgn(values[0]) >= sgn(values[1]) else values[1]
        if node.kind is TermKind.ABS:
            return abs(sgn(values[0])) & mask
        raise ValueError(f"cannot evaluate term kind {node.kind}")

    return go(term)


def evaluate_many(term: Term, assignments: Sequence[Mapping[str, int]],
                  bits: int = WORD_BITS, memo: dict[int, list[int]] | None = None) -> list[int]:
    """:func:`evaluate` under every assignment at once: one value per assignment.

    Each DAG node is visited once and computes its whole column of values,
    so the per-node dispatch is paid once instead of once per assignment.
    ``memo`` (node id -> column) may be shared across calls over the same
    assignments, so terms that share subterms evaluate them once; the
    caller keeps the terms alive while it holds the memo.
    """
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    full = 1 << bits
    count = len(assignments)
    columns = {} if memo is None else memo
    stack = [term]
    while stack:
        node = stack[-1]
        if id(node) in columns:
            stack.pop()
            continue
        missing = [arg for arg in node.args if id(arg) not in columns]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        kind = node.kind
        args = [columns[id(arg)] for arg in node.args]
        if kind is TermKind.CONST:
            column = [node.value & mask] * count
        elif kind is TermKind.VAR:
            name = node.name
            column = [assignment[name] & mask for assignment in assignments]
        elif kind is TermKind.POISON:
            column = [0xDEAD & mask] * count
        elif kind is TermKind.ADD:
            column = [(x + y) & mask for x, y in zip(*args)]
        elif kind is TermKind.SUB:
            column = [(x - y) & mask for x, y in zip(*args)]
        elif kind is TermKind.MUL:
            column = [(x * y) & mask for x, y in zip(*args)]
        elif kind is TermKind.NEG:
            column = [-x & mask for x in args[0]]
        elif kind is TermKind.AND:
            column = [x & y for x, y in zip(*args)]
        elif kind is TermKind.OR:
            column = [x | y for x, y in zip(*args)]
        elif kind is TermKind.XOR:
            column = [x ^ y for x, y in zip(*args)]
        elif kind is TermKind.NOT:
            column = [x ^ mask for x in args[0]]
        elif kind is TermKind.SHL:
            column = [(x << (y % bits)) & mask for x, y in zip(*args)]
        elif kind is TermKind.LSHR:
            column = [x >> (y % bits) for x, y in zip(*args)]
        elif kind is TermKind.ASHR:
            column = [((x - full if x & half else x) >> (y % bits)) & mask
                      for x, y in zip(*args)]
        elif kind is TermKind.DIV or kind is TermKind.REM:
            column = []
            for x, y in zip(*args):
                dividend = x - full if x & half else x
                divisor = y - full if y & half else y
                if not divisor:
                    column.append(0)
                elif kind is TermKind.DIV:
                    column.append(trunc_div(dividend, divisor) & mask)
                else:
                    column.append((dividend - trunc_div(dividend, divisor) * divisor) & mask)
        elif kind is TermKind.ITE:
            column = [t if c else e for c, t, e in zip(*args)]
        elif kind is TermKind.EQ:
            column = [1 if x == y else 0 for x, y in zip(*args)]
        elif kind is TermKind.NE:
            column = [1 if x != y else 0 for x, y in zip(*args)]
        elif kind is TermKind.ABS:
            column = [-x & mask if x & half else x for x in args[0]]
        else:
            # Signed order on unsigned words: flipping the sign bit maps it
            # onto plain unsigned order.
            left = [x ^ half for x in args[0]]
            right = [y ^ half for y in args[1]]
            if kind is TermKind.LT:
                column = [1 if x < y else 0 for x, y in zip(left, right)]
            elif kind is TermKind.LE:
                column = [1 if x <= y else 0 for x, y in zip(left, right)]
            elif kind is TermKind.GT:
                column = [1 if x > y else 0 for x, y in zip(left, right)]
            elif kind is TermKind.GE:
                column = [1 if x >= y else 0 for x, y in zip(left, right)]
            elif kind is TermKind.MIN:
                column = [a if x <= y else b
                          for a, b, x, y in zip(args[0], args[1], left, right)]
            elif kind is TermKind.MAX:
                column = [a if x >= y else b
                          for a, b, x, y in zip(args[0], args[1], left, right)]
            else:
                raise ValueError(f"cannot evaluate term kind {kind}")
        columns[id(node)] = column
    return columns[id(term)]


def collect_variables(term: Term) -> set[str]:
    """All variable names appearing in ``term``."""
    names: set[str] = set()
    stack = [term]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.kind is TermKind.VAR:
            names.add(node.name)
        stack.extend(node.args)
    return names


def contains_poison(term: Term) -> bool:
    stack = [term]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node.kind is TermKind.POISON:
            return True
        stack.extend(node.args)
    return False


def term_size(term: Term) -> int:
    """Number of distinct DAG nodes in ``term`` (used for budget decisions)."""
    count = 0
    stack = [term]
    seen: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        count += 1
        stack.extend(node.args)
    return count


_DIGEST_CACHE: dict[Term, str] = {}
_DIGEST_CACHE_LIMIT = 200_000


def term_digest(term: Term) -> str:
    """A content-stable digest of ``term``'s structure.

    Unlike ``hash(term)`` (salted per process for strings), the digest
    depends only on structural content — kind, value, name and (recursively)
    the argument digests — so structurally-equal terms share a digest across
    processes and runs regardless of how their DAGs happen to be shared.
    That makes it fit to key caches that are persisted to disk or shipped
    between campaign workers (:mod:`repro.smt.solvecache`).
    """
    cache = _DIGEST_CACHE
    cached = cache.get(term)
    if cached is not None:
        return cached
    if len(cache) > _DIGEST_CACHE_LIMIT:
        cache.clear()
    stack = [term]
    while stack:
        node = stack[-1]
        if node in cache:
            stack.pop()
            continue
        missing = [arg for arg in node.args if arg not in cache]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        payload = ":".join((
            node.kind.value,
            "" if node.value is None else str(node.value),
            node.name or "",
            ",".join(cache[arg] for arg in node.args),
        ))
        cache[node] = hashlib.sha256(payload.encode()).hexdigest()[:32]
    return cache[term]
