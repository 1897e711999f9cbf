"""Abstract syntax for NNRC, the Named Nested Relational Calculus (§5).

::

    e ::= x | d | ⊙e1 | e1 ⊡ e2 | let x = e1 in e2
        | {e2 | x ∈ e1} | e1 ? e2 : e3

plus ``GetConstant`` for database constants, mirroring the algebra side.
NNRC is the gateway to the backends: the Python code generator consumes
optimized NNRC.

Variables are plain strings.  Expressions are immutable and compare
structurally (α-conversion is *not* built into equality; the optimizer
works up to literal names and generates fresh names when needed).
"""

from __future__ import annotations

from typing import Any, Iterator, Tuple

from repro.data.model import is_value
from repro.data.operators import BinaryOp, UnaryOp


class NnrcNode:
    """Base class for NNRC expressions."""

    __slots__ = ()

    def children(self) -> Tuple["NnrcNode", ...]:
        raise NotImplementedError

    def rebuild(self, children: Tuple["NnrcNode", ...]) -> "NnrcNode":
        raise NotImplementedError

    def _tag(self) -> Tuple[Any, ...]:
        return (type(self).__name__,)

    def __eq__(self, other: Any) -> bool:
        if type(self) is not type(other):
            return NotImplemented if not isinstance(other, NnrcNode) else False
        return self._tag() == other._tag() and self.children() == other.children()

    def __ne__(self, other: Any) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self._tag(), self.children()))

    def __repr__(self) -> str:
        from repro.nnrc.pretty import pretty

        return pretty(self)

    def size(self) -> int:
        """Number of expression nodes (the quantity Figures 7a/8a/9c plot)."""
        return 1 + sum(child.size() for child in self.children())

    def depth(self) -> int:
        """Binder nesting depth (let/for/if levels)."""
        child_depths = [child.depth() for child in self.children()]
        deepest = max(child_depths) if child_depths else 0
        return deepest + (1 if isinstance(self, (Let, For, If)) else 0)

    def walk(self) -> Iterator["NnrcNode"]:
        yield self
        for child in self.children():
            for node in child.walk():
                yield node


class Var(NnrcNode):
    """``x``: a variable occurrence."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def children(self) -> Tuple[NnrcNode, ...]:
        return ()

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return self

    def _tag(self) -> Tuple[Any, ...]:
        return ("Var", self.name)


class Const(NnrcNode):
    """``d``: a constant value."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        assert is_value(value), "Const requires a data-model value: %r" % (value,)
        self.value = value

    def children(self) -> Tuple[NnrcNode, ...]:
        return ()

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return self

    def _tag(self) -> Tuple[Any, ...]:
        from repro.data.model import canonical_key

        return ("Const", canonical_key(self.value))


class GetConstant(NnrcNode):
    """Access to a named database constant (a table)."""

    __slots__ = ("cname",)

    def __init__(self, cname: str):
        self.cname = cname

    def children(self) -> Tuple[NnrcNode, ...]:
        return ()

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return self

    def _tag(self) -> Tuple[Any, ...]:
        return ("GetConstant", self.cname)


class Unop(NnrcNode):
    """``⊙ e``."""

    __slots__ = ("op", "arg")

    def __init__(self, op: UnaryOp, arg: NnrcNode):
        self.op = op
        self.arg = arg

    def children(self) -> Tuple[NnrcNode, ...]:
        return (self.arg,)

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return Unop(self.op, children[0])

    def _tag(self) -> Tuple[Any, ...]:
        return ("Unop", self.op)


class Binop(NnrcNode):
    """``e1 ⊡ e2``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: BinaryOp, left: NnrcNode, right: NnrcNode):
        self.op = op
        self.left = left
        self.right = right

    def children(self) -> Tuple[NnrcNode, ...]:
        return (self.left, self.right)

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return Binop(self.op, *children)

    def _tag(self) -> Tuple[Any, ...]:
        return ("Binop", self.op)


class Let(NnrcNode):
    """``let x = defn in body``: dependent sequencing."""

    __slots__ = ("var", "defn", "body")

    def __init__(self, var: str, defn: NnrcNode, body: NnrcNode):
        self.var = var
        self.defn = defn
        self.body = body

    def children(self) -> Tuple[NnrcNode, ...]:
        return (self.defn, self.body)

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return Let(self.var, *children)

    def _tag(self) -> Tuple[Any, ...]:
        return ("Let", self.var)


class For(NnrcNode):
    """``{body | x ∈ source}``: bag comprehension."""

    __slots__ = ("var", "source", "body")

    def __init__(self, var: str, source: NnrcNode, body: NnrcNode):
        self.var = var
        self.source = source
        self.body = body

    def children(self) -> Tuple[NnrcNode, ...]:
        return (self.source, self.body)

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return For(self.var, *children)

    def _tag(self) -> Tuple[Any, ...]:
        return ("For", self.var)


class If(NnrcNode):
    """``cond ? then : else``."""

    __slots__ = ("cond", "then", "otherwise")

    def __init__(self, cond: NnrcNode, then: NnrcNode, otherwise: NnrcNode):
        self.cond = cond
        self.then = then
        self.otherwise = otherwise

    def children(self) -> Tuple[NnrcNode, ...]:
        return (self.cond, self.then, self.otherwise)

    def rebuild(self, children: Tuple[NnrcNode, ...]) -> NnrcNode:
        return If(*children)
