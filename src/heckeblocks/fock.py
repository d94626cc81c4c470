"""Fock space combinatorics at levels one and two.

A context has one charge per component, (0, s) at level two and (0,) at
level one, and every routine loops over them: a node in row r, column c of
component k has residue c - r + (charge of k) mod e.  Nodes are ordered top
to bottom with every node of an earlier component above every node of a
later one and larger row indices lower within a component.  A bipartition
read at level one has an empty second component.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .cartan import AffineRank, RootVec, _check_rank, _Value


def partitions(total: int, cap: int | None = None) -> Iterator[tuple[int, ...]]:
    """The partitions of total with parts at most cap, in reverse
    lexicographic order: (total,) first, (1, ..., 1) last."""
    if total == 0:
        yield ()
        return
    top = total if cap is None else min(cap, total)
    for first in range(top, 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def bipartitions(ctx: FockContext, total: int) -> Iterator[Bipartition]:
    """The (bi)partitions of size total that the context admits, by the size
    of the first component, then in the order of ``partitions``; at level
    one, the partitions of total with an empty second component."""
    for m in range(total + 1) if ctx.level == 2 else (total,):
        for first in partitions(m):
            for second in partitions(total - m):
                yield Bipartition(first, second)


class Node(NamedTuple):
    """A box position: component 1 or 2, row and column both 1-based."""

    component: int
    row: int
    col: int


def _check_parts(parts: tuple[int, ...], label: str) -> None:
    for k, p in enumerate(parts):
        if type(p) is not int:
            raise ValueError(f"{label} must consist of integers, got {parts}")
        if p <= 0:
            raise ValueError(f"{label} must consist of positive parts, got {parts}")
        if k and parts[k - 1] < p:
            raise ValueError(f"{label} must be weakly decreasing, got {parts}")


class Bipartition(_Value):
    """A pair of partitions, stored as weakly decreasing positive tuples."""

    __slots__ = _fields = ("comp1", "comp2")
    comp1: tuple[int, ...]
    comp2: tuple[int, ...]

    def __init__(self, comp1: tuple[int, ...] = (), comp2: tuple[int, ...] = ()) -> None:
        comp1, comp2 = tuple(comp1), tuple(comp2)
        _check_parts(comp1, "component 1")
        _check_parts(comp2, "component 2")
        put = self._put
        put[0](self, comp1)
        put[1](self, comp2)

    @property
    def parts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The components in order, component 1 first."""
        return (self.comp1, self.comp2)

    @property
    def size(self) -> int:
        return sum(map(sum, self.parts))

    def component(self, c: int) -> tuple[int, ...]:
        if type(c) is not int or c not in (1, 2):
            raise ValueError(f"component must be 1 or 2, got {c!r}")
        return self.parts[c - 1]

    def cells(self) -> Iterator[Node]:
        for c, parts in enumerate(self.parts, 1):
            for r, p in enumerate(parts):
                for col in range(1, p + 1):
                    yield Node(c, r + 1, col)

    def to_json(self) -> list[list[int]]:
        return [list(parts) for parts in self.parts]

    @classmethod
    def from_json(cls, data: list[list[int]]) -> "Bipartition":
        """The bipartition of a list of two lists of parts; ValueError for
        any other data."""
        if not (
            type(data) is list and len(data) == 2 and all(type(c) is list for c in data)
        ):
            raise ValueError("a bipartition is a pair of partitions")
        return cls(tuple(data[0]), tuple(data[1]))

    def __str__(self) -> str:
        def one(parts: tuple[int, ...]) -> str:
            return "(" + ",".join(str(p) for p in parts) + ")" if parts else "()"

        return "(" + "|".join(map(one, self.parts)) + ")"


class FockContext(_Value):
    """Rank, charge s and level; fixes residues and the highest weight,
    the sum of the fundamental weights Lambda_c over the charges c."""

    __slots__ = ("rank", "s", "level", "charges")
    _fields = ("rank", "s", "level")
    rank: AffineRank
    s: int
    level: int
    #: one charge per component, (0, s) or (0,) at level one; set once, so
    #: every read is the same tuple, and left out of equality and hashing
    charges: tuple[int, ...]

    def __init__(self, rank: AffineRank, s: int = 0, level: int = 2) -> None:
        _check_rank(rank)
        if type(level) is not int or level not in (1, 2):
            raise ValueError(f"level must be the integer 1 or 2, got {level!r}")
        if type(s) is not int or not 0 <= s <= rank.ell:
            raise ValueError(f"s must be an integer in 0..{rank.ell}, got {s!r}")
        if level == 1 and s != 0:
            raise ValueError("a level-one context has charge 0")
        put = self._put
        put[0](self, rank)
        put[1](self, s)
        put[2](self, level)
        put[3](self, (0, s)[:level])

    # written out rather than read through _get: the fold cache compares
    # and hashes its context on every lookup
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.rank, self.s, self.level) == (other.rank, other.s, other.level)

    def __hash__(self) -> int:
        return hash((self.rank, self.s, self.level))

    def charge(self, component: int) -> int:
        if type(component) is not int or not 1 <= component <= self.level:
            raise ValueError(f"component must be in 1..{self.level}, got {component!r}")
        return self.charges[component - 1]

    def check_shape(self, bp: Bipartition) -> None:
        if any(bp.parts[self.level :]):
            raise ValueError(f"a level-{self.level} context admits {self.level} component(s)")


def residue(ctx: FockContext, node: Node) -> int:
    """Residue of a node: (col - row + charge) mod e."""
    return (node.col - node.row + ctx.charge(node.component)) % ctx.rank.e


def _corners(ctx: FockContext, bp: Bipartition, i: int | None) -> list[tuple[int, Node]]:
    """The addable (+1) and removable (-1) nodes of residue i, or of every
    residue when i is None, as (sign, node) pairs from top to bottom."""
    ctx.check_shape(bp)
    e = ctx.rank.e
    if i is not None:
        i %= e
    out = []
    for c, (charge, parts) in enumerate(zip(ctx.charges, bp.parts), 1):
        last = len(parts)
        for r in range(last + 1):
            p = parts[r] if r < last else 0
            if (r == 0 or parts[r - 1] > p) and (i is None or (p - r + charge) % e == i):
                out.append((1, Node(c, r + 1, p + 1)))
            if r < last and (r + 1 == last or parts[r + 1] < p) and (
                i is None or (p - 1 - r + charge) % e == i
            ):
                out.append((-1, Node(c, r + 1, p)))
    return out


def addable_nodes(ctx: FockContext, bp: Bipartition, i: int | None = None) -> list[Node]:
    """Addable nodes, top to bottom; restrict to residue i when given."""
    return [nd for sign, nd in _corners(ctx, bp, i) if sign > 0]


def removable_nodes(ctx: FockContext, bp: Bipartition, i: int | None = None) -> list[Node]:
    """Removable nodes, top to bottom; restrict to residue i when given."""
    return [nd for sign, nd in _corners(ctx, bp, i) if sign < 0]


def add_node(bp: Bipartition, node: Node) -> Bipartition:
    parts = list(bp.component(node.component))
    r = node.row - 1
    if r == len(parts):
        parts.append(0)
    if r >= len(parts) or parts[r] + 1 != node.col:
        raise ValueError(f"{node} is not an addable corner of {bp}")
    parts[r] += 1
    comps = list(bp.parts)
    comps[node.component - 1] = tuple(parts)
    return Bipartition(*comps)


def _stat_below(ctx: FockContext, bp: Bipartition, node: Node, i: int) -> int:
    """Addable minus removable i-nodes of bp in later components or rows."""
    return sum(sign for sign, nd in _corners(ctx, bp, i) if nd[:2] > node[:2])


def content(ctx: FockContext, bp: Bipartition) -> RootVec:
    """Sum of alpha_{res(x)} over the nodes x of the bipartition."""
    ctx.check_shape(bp)
    coeffs = [0] * ctx.rank.e
    for nd in bp.cells():
        coeffs[residue(ctx, nd)] += 1
    return RootVec(ctx.rank, tuple(coeffs))


class Bitableau(_Value):
    """A standard bitableau recorded as its growth sequence of nodes."""

    __slots__ = _fields = ("shape", "growth")
    shape: Bipartition
    growth: tuple[Node, ...]

    def __init__(self, shape: Bipartition, growth: tuple[Node, ...]) -> None:
        put = self._put
        put[0](self, shape)
        put[1](self, growth)

    def to_json(self) -> dict:
        return {
            "shape": self.shape.to_json(),
            "growth": [[n.component, n.row, n.col] for n in self.growth],
        }


def enumerate_standard(ctx: FockContext, shape: Bipartition) -> Iterator[Bitableau]:
    """Lazily yield the standard bitableaux of the shape.

    The stream is deterministic: growth sequences appear in lexicographic
    order of their (component, row) corner choices.
    """
    ctx.check_shape(shape)
    n = shape.size
    filled = [[0] * len(parts) for parts in shape.parts]
    growth: list[Node] = []

    def corners() -> list[tuple[int, int]]:
        return [
            (c, r)
            for c, (parts, row) in enumerate(zip(shape.parts, filled), 1)
            for r in range(len(parts))
            if row[r] < parts[r] and (r == 0 or row[r] < row[r - 1])
        ]

    def walk() -> Iterator[Bitableau]:
        if len(growth) == n:
            yield Bitableau(shape, tuple(growth))
            return
        for comp, r in corners():
            row = filled[comp - 1]
            growth.append(Node(comp, r + 1, row[r] + 1))
            row[r] += 1
            yield from walk()
            row[r] -= 1
            growth.pop()

    return walk()


def tableau_stats(
    ctx: FockContext, tab: Bitableau, convention: str = "post"
) -> tuple[int, tuple[int, ...]]:
    """Degree and residue sequence of a standard bitableau.

    The degree adds, node by node, the below-statistic of the placed node.
    ``convention`` picks the shape in which that statistic is read: "post"
    includes the node just placed, "pre" does not.  The two readings agree
    (placing a node only toggles corners of the neighbouring residues); both
    are kept so the agreement stays checkable: the oracle O5 compares them
    tableau by tableau, and the benchmark's output checker replays K_q under
    "pre".
    """
    if convention not in ("post", "pre"):
        raise ValueError(f"convention must be 'post' or 'pre', got {convention}")
    ctx.check_shape(tab.shape)
    cur = Bipartition()
    degree = 0
    residues = []
    for node in tab.growth:
        i = residue(ctx, node)
        residues.append(i)
        try:
            bigger = add_node(cur, node)
        except ValueError as exc:
            raise ValueError(f"not a standard bitableau: {exc}") from exc
        degree += _stat_below(ctx, bigger if convention == "post" else cur, node, i)
        cur = bigger
    if cur != tab.shape:
        raise ValueError("not a standard bitableau: growth does not fill the shape")
    return degree, tuple(residues)
