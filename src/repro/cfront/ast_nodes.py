"""AST node definitions for the C subset.

The AST is deliberately small and regular so that the interpreter, the
dependence analysis, the source-to-source transforms (C-level unrolling,
spatial splitting) and the IR lowering can all traverse it with plain
structural pattern matching.
"""

from __future__ import annotations

import copy
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

from repro.cfront.ctypes import CType
from repro.errors import SourceLocation

#: Field values a deep copy shares instead of copying: all are immutable.
_SHARED_LEAVES = (str, int, CType, SourceLocation, type(None))


@dataclass
class Node:
    """Base class for every AST node."""

    location: SourceLocation = field(default_factory=SourceLocation, kw_only=True)

    def clone(self, **changes) -> "Node":
        """Return a shallow copy of this node with ``changes`` applied."""
        return replace(self, **changes)

    def __deepcopy__(self, memo: dict) -> "Node":
        """Structural copy: child nodes and lists are copied, the immutable
        leaves are shared.  Through ``memo`` a node reachable twice is
        copied once, as the generic deep copy does."""
        new = object.__new__(type(self))
        memo[id(self)] = new
        new.__dict__.update(
            (name, value if isinstance(value, _SHARED_LEAVES) else copy.deepcopy(value, memo))
            for name, value in self.__dict__.items())
        return new


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass
class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLiteral(Expr):
    value: int


@dataclass
class Identifier(Expr):
    name: str


@dataclass
class ArrayRef(Expr):
    """``base[index]`` where ``base`` is an expression of pointer type."""

    base: Expr
    index: Expr


@dataclass
class UnaryOp(Expr):
    """Prefix unary operator: ``-``, ``+``, ``!``, ``~``, ``&``, ``*``, ``++``, ``--``."""

    op: str
    operand: Expr


@dataclass
class PostfixOp(Expr):
    """Postfix ``++`` / ``--``."""

    op: str
    operand: Expr


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class TernaryOp(Expr):
    cond: Expr
    then: Expr
    otherwise: Expr


@dataclass
class Assign(Expr):
    """Assignment expression ``target op target/value``.

    ``op`` is ``=`` or a compound assignment such as ``+=``.
    """

    op: str
    target: Expr
    value: Expr


@dataclass
class Call(Expr):
    """A call; in this subset all callees are simple identifiers."""

    func: str
    args: list[Expr]


@dataclass
class Cast(Expr):
    target_type: CType
    operand: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    """Base class for statements."""


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Decl(Stmt):
    """A declaration of one variable, optionally initialized.

    Multi-declarator declarations are split by the parser into one
    :class:`Decl` per variable so transforms never have to handle lists.
    """

    var_type: CType
    name: str
    init: Expr | None = None
    array_size: Expr | None = None


@dataclass
class Block(Stmt):
    body: list[Stmt] = field(default_factory=list)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.body)


@dataclass
class If(Stmt):
    cond: Expr
    then: Stmt
    otherwise: Stmt | None = None


@dataclass
class ForLoop(Stmt):
    """``for (init; cond; step) body``; each header slot may be empty."""

    init: Stmt | None
    cond: Expr | None
    step: Expr | None
    body: Stmt


@dataclass
class WhileLoop(Stmt):
    cond: Expr
    body: Stmt


@dataclass
class DoWhileLoop(Stmt):
    body: Stmt
    cond: Expr


@dataclass
class Return(Stmt):
    value: Expr | None = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Goto(Stmt):
    label: str


@dataclass
class Label(Stmt):
    """A label attached to a statement (``L20: stmt``)."""

    name: str
    stmt: Stmt


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Parameter(Node):
    param_type: CType
    name: str


@dataclass
class FunctionDef(Node):
    return_type: CType
    name: str
    params: list[Parameter]
    body: Block

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]


@dataclass
class Program(Node):
    """A translation unit: the functions it defines, in order."""

    functions: list[FunctionDef] = field(default_factory=list)

    def function(self, name: str) -> FunctionDef:
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(f"no function named {name!r}")


AnyNode = Expr | Stmt | FunctionDef | Program | Parameter


#: The child-bearing fields of each node type, in traversal order.  A field
#: holds a node, a list of nodes, or ``None``; unlisted types are leaves.
_CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    Program: ("functions",),
    FunctionDef: ("params", "body"),
    Block: ("body",),
    ExprStmt: ("expr",),
    Decl: ("array_size", "init"),
    If: ("cond", "then", "otherwise"),
    ForLoop: ("init", "cond", "step", "body"),
    WhileLoop: ("cond", "body"),
    DoWhileLoop: ("body", "cond"),
    Return: ("value",),
    Label: ("stmt",),
    ArrayRef: ("base", "index"),
    UnaryOp: ("operand",),
    PostfixOp: ("operand",),
    BinOp: ("left", "right"),
    TernaryOp: ("cond", "then", "otherwise"),
    Assign: ("target", "value"),
    Call: ("args",),
    Cast: ("operand",),
}


def children(node: Node) -> list[Node]:
    """The direct child nodes of ``node``, in traversal order."""
    found: list[Node] = []
    for name in _CHILD_FIELDS.get(type(node), ()):
        value = getattr(node, name)
        if isinstance(value, list):
            found.extend(value)
        elif value is not None:
            found.append(value)
    return found


def walk(node: AnyNode) -> Iterator[Node]:
    """Yield ``node`` and every node reachable from it, preorder.

    A node's children are read after the node itself is yielded, so a
    caller may rewrite the fields of the node it is visiting.
    """
    stack: list[Node] = [node]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(children(current)))


def collect(node: AnyNode, node_type) -> list:
    """Collect every descendant of ``node`` that is an instance of ``node_type``."""
    return [n for n in walk(node) if isinstance(n, node_type)]


#: ``kernel_dtype`` is pure in the tree and asked for on every interpreter
#: run of a cache-shared AST.  Entries keep a strong reference to the
#: function, so the id key cannot be reused; a copy is a new object, so it
#: never inherits an entry.
_DTYPE_MEMO: dict[int, tuple[FunctionDef, object]] = {}
_DTYPE_MEMO_CAPACITY = 512


def kernel_dtype(func: FunctionDef):
    """The lane element type a kernel is modelled at (a ``LaneType``).

    One kernel has one element dtype: it is the sized integer spelling
    (``int16_t``/``int64_t``) its declarations use, or the default 32-bit
    type when every integer is plain ``int``.  Plain ``int`` coexists with
    one sized spelling (loop counters stay ``int``) and is then modelled at
    the kernel dtype's width — the subset models a uniform element width,
    not C's int promotion rules.  Mixing two different sized spellings in
    one kernel raises :class:`~repro.errors.CompileError`.
    """
    entry = _DTYPE_MEMO.get(id(func))
    if entry is not None and entry[0] is func:
        return entry[1]
    dtype = _kernel_dtype_uncached(func)
    if len(_DTYPE_MEMO) >= _DTYPE_MEMO_CAPACITY:
        _DTYPE_MEMO.clear()
    _DTYPE_MEMO[id(func)] = (func, dtype)
    return dtype


def _kernel_dtype_uncached(func: FunctionDef):
    from repro.errors import CompileError
    from repro.lanetypes import DEFAULT_LANE_TYPE, get_lane_type

    sized: dict[str, SourceLocation] = {}
    for node in walk(func):
        if isinstance(node, Parameter):
            ctype = node.param_type
        elif isinstance(node, Decl):
            ctype = node.var_type
        elif isinstance(node, Cast):
            ctype = node.target_type
        else:
            continue
        if ctype.name in ("int16_t", "int64_t"):
            sized.setdefault(ctype.name, node.location)
    if not sized:
        return DEFAULT_LANE_TYPE
    if len(sized) > 1:
        names = " and ".join(sorted(sized))
        raise CompileError(
            f"kernel {func.name!r} mixes element types {names}; "
            f"one kernel models one lane element type"
        )
    (name,) = sized
    return get_lane_type(name)
