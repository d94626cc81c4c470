"""Graded dimension engine.

The central quantity is the q-weighted tableau count K_q(shape, nu): the sum
of q^degree over standard bitableaux of the shape whose residue word is nu.
Graded dimensions between two idempotents are sums of K_q products over the
bipartitions sharing the idempotents' content.

Everything is computed by one step, read along residue words.  A state maps
each (bi)partition -- a plain tuple of parts tuples, one component at level
one and two at level two -- to its degree histogram, packed: a pair
(lo, packed) with lo the least degree present and packed the sum of
count * 2^(w * (degree - lo)).  The width w = ``_width(level, n)`` depends
only on the level and the word length n: the squared tableau counts of the
shapes of size n sum to level^n * n!, which bounds every coefficient of a
histogram and of a sum over shapes of products of two histograms, so no
chunk carries.  lo is the true least degree and every count is positive, so
the packed form is canonical and equal histograms compare equal.
``_step(e, charges, state, i, w)`` adds one i-node to every shape in every
addable way, shifting the histogram by the node's below-statistic, which
only moves lo.  Folding the step along a word gives K_q(shape, word) for
every shape at once, which is the Fock-space form of the graded dimension
formula (e_i read along the word; Brundan-Kleshchev, with the degrees of
Brundan-Kleshchev-Wang):

- ``_step`` reads each shape's ``_moves`` (grown shapes and shifts) from a
  ``functools.cache`` keyed by (e, charges, shape, i), so states share their
  grown shapes.  The cache is bounded by the Fock space, not the traffic:
  words of length n leave at most e entries per context and (bi)partition of
  size < n, so 3 x 434 on (2,1,3delta);
- ``_fold`` reads the step along one word in one loop, stopping at the
  first empty state, under a ``functools.lru_cache`` keyed, as ``_moves``
  is, on plain data: (e, charges, word), since e and the charges fix the
  context.  A repeated point lookup folds nothing.  The cache holds
  ``_CACHE_STATES`` = 1024 folds, least recently used dropped first.  It
  bounds states, not shapes: a fold is a prefix state of its own word, so
  1024 folds of the block (1,1,6delta), height 12, hold at most the 251 014
  shapes, about 40 MB, of its 1024 largest prefix states; the shapes are the
  memo's.  Cached states are shared and never mutated;
- ``kostka_q`` looks the shape up in the fold of the word and decodes it;
- ``graded_dim`` is the dot product of the folds of its two words in one
  pass: each shared shape's packed product is added above the least degree
  so far, and the sum is decoded once;
- ``dim_matrix`` builds the matrix shape by shape.  Each shape lists the
  classes whose fold it is in, with their histograms packed as the folds
  hold them, and row i sums the products of packed histograms only over
  the classes j >= i sharing a shape with i, each shifted by its two least
  degrees above the least of any fold; no sum carries at the fold width, so
  each entry is decoded once;
- ``_walk`` walks the prefix trie of the block's words depth first, within
  the per-residue budget of beta, so words share their prefixes' states; a
  word ends when its budget is spent.  It is a generator: each word comes
  out with its fold, in lexicographic order, as soon as it is reached, so a
  caller can stop the walk early;
- ``residue_sequences`` takes every word of that walk;
- ``nonzero_idempotents`` walks the same trie but expands each distinct
  state once: a prefix whose state an earlier prefix of the same content
  reached is skipped, since the two subtrees fold alike and the earlier one
  has the smaller words.  A word's class is its final state;
- ``class_matrix`` hands those final states straight to the matrix
  assembly, so each class is folded once, by the walk that finds it;
- ``quiver_bounds`` reads loops and arrows off a matrix through
  ``_read_bound``, the one reader of the bound: it reads entries over
  j >= i in row order and stops at the first that rules the bound out.  The
  classify path does not build the matrix: ``_class_verdict`` pulls the
  classes one at a time, checks entry (0, j) as class j arrives, and hands
  ``_read_bound`` the row-0 entries it kept and the ``_dot`` of two folds
  for the rest.  On most large blocks the failing entry is (0, 0) or
  (0, 1), a few classes into the walk.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator, Sequence

from .cartan import RootVec, _int_tuple, _Value
from .fock import Bipartition, FockContext, bipartitions, content
from .qpoly import QPoly, _from_coeffs

ResidueSeq = tuple[int, ...]
Shape = tuple[tuple[int, ...], ...]
State = dict[Shape, tuple[int, int]]  # shape -> (least degree, packed histogram)


class QuiverShapeError(ValueError):
    """A dimension matrix is not of the shape the quiver bound needs."""


def _as_residue_seq(ctx: FockContext, nu: Sequence[int]) -> ResidueSeq:
    e, seq = ctx.rank.e, _int_tuple(nu, "residue words")
    return tuple(v % e for v in seq) if seq and (min(seq) < 0 or max(seq) >= e) else seq


def _seq_content(ctx: FockContext, nu: ResidueSeq) -> tuple[int, ...]:
    cnt = [0] * ctx.rank.e
    for v in nu:
        cnt[v] += 1
    return tuple(cnt)


def _check_block(ctx: FockContext, beta: RootVec) -> None:
    if beta.rank != ctx.rank:
        raise ValueError("rank mismatch between context and root vector")
    if not beta.in_positive_cone():
        raise ValueError(f"{beta} is not in the positive cone")


def _width(level: int, n: int) -> int:
    """Bits per degree in the packed states of words of length n.

    Summed over the shapes of a level-``level`` Fock space, the squared
    standard tableau counts give level**n * n!, which bounds every
    coefficient of a fold's histogram and of a sum over shapes of products of
    two folds' histograms; one more bit keeps that sum from carrying."""
    return (level**n * math.factorial(n)).bit_length() + 1


def _unpack(lo: int, packed: int, width: int) -> dict[int, int]:
    """The {degree: count} histogram of a packed one, least degree lo."""
    mask = (1 << width) - 1
    hist = {}
    d = lo
    while packed:
        c = packed & mask
        if c:
            hist[d] = c
        packed >>= width
        d += 1
    return hist


@functools.cache
def _moves(
    e: int, charges: tuple[int, ...], shape: Shape, i: int
) -> tuple[tuple[Shape, int], ...]:
    """Each way to add an i-node to the shape, from the bottom up: the grown
    shape and the node's degree, the number of addable minus removable
    i-nodes strictly below it (later components, then larger rows), read in
    the grown shape.  Apart from the new node itself, adding an i-node
    toggles only corners of the neighbouring residues, so the i-corners of
    the smaller shape are counted: a removable one lowers the running
    degree, an addable one is added at it and then raises it.  Cached on
    plain data; racing threads store equal moves, so it needs no lock."""
    out = []
    least = 0
    for k in reversed(range(len(shape))):
        parts = shape[k]
        head, tail = shape[:k], shape[k + 1 :]
        c = charges[k] - i
        r = len(parts)
        # Row r ends in a node of residue i + d - 1, d = (p - r + c) % e, so
        # it has an addable i-node if d is 0, a removable one if d is 1 (as
        # e >= 2, not both).  The empty row below the last is addable.
        if (c - r) % e == 0:
            out.append((head + (parts + (1,),) + tail, least))
            least += 1
        below = 0
        while r:
            r -= 1
            p = parts[r]
            d = (p - r + c) % e
            if d == 1:
                if below < p:
                    least -= 1
            elif d == 0 and (r == 0 or parts[r - 1] > p):
                grown = parts[:r] + (p + 1,) + parts[r + 1 :]
                out.append((head + (grown,) + tail, least))
                least += 1
            below = p
    return tuple(out)


def _step(e: int, charges: tuple[int, ...], state: State, i: int, width: int) -> State:
    """Add one i-node to every shape of the state in every addable way: each
    of the shape's cached ``_moves`` under e and the charges moves its
    histogram's least degree by the node's degree onto the grown shape,
    where two histograms are aligned by one shift and added."""
    out: State = {}
    get = out.get
    for shape, (lo, packed) in state.items():
        for new, shift in _moves(e, charges, shape, i):
            least = lo + shift
            acc = get(new)
            if acc is None:
                out[new] = (least, packed)
            elif acc[0] <= least:
                out[new] = (acc[0], acc[1] + (packed << width * (least - acc[0])))
            else:
                out[new] = (least, packed + (acc[1] << width * (acc[0] - least)))
    return out


def _start(charges: tuple[int, ...]) -> State:
    return {((),) * len(charges): (0, 1)}


#: Most word folds the cache of ``_fold`` holds.
_CACHE_STATES = 1024


@functools.lru_cache(maxsize=_CACHE_STATES)
def _fold(e: int, charges: tuple[int, ...], word: ResidueSeq) -> State:
    """The state of one word under e and the charges, which fix the context:
    the step read along it from the empty shape, stopping at the first empty
    state, so a word that no standard (bi)tableau reads folds to ``{}``.

    Folds are cached on that plain data, which ``graded_dim``, ``kostka_q``
    and ``dim_matrix`` share across calls; a cached fold is shared and never
    mutated.  The cache holds ``_CACHE_STATES`` folds and drops the least
    recently used first; the module docstring bounds what they hold."""
    width = _width(len(charges), len(word))
    state = _start(charges)
    for i in word:
        state = _step(e, charges, state, i, width)
        if not state:
            break
    return state


def _walk(ctx: FockContext, beta: RootVec, merge: bool) -> Iterator[tuple[ResidueSeq, State]]:
    """Every residue word realised in the block of beta with its fold, in
    lexicographic order: the prefix trie of the words, walked depth first
    within the residue budget of beta, each word folded as it is extended.

    With ``merge``, a prefix whose state an earlier prefix already reached is
    not expanded, and a word is kept only if its final state is new.  A
    nonempty state fixes its content, hence the remaining budget, so the two
    subtrees fold alike and the earlier one holds the smaller words: what is
    kept is exactly the smallest word of each class.  A new state is compared
    only with the earlier states of its budget.

    Words come out as they are reached, so a caller that stops early steps
    only as far as the last word it took."""
    _check_block(ctx, beta)
    e, charges = ctx.rank.e, ctx.charges
    width = _width(len(charges), beta.height)
    seen = {} if merge else None
    yield from _extend(e, charges, _start(charges), list(beta.coeffs), [], width, seen)


def _extend(
    e: int,
    charges: tuple[int, ...],
    state: State,
    budget: list[int],
    word: list[int],
    width: int,
    seen: dict[tuple[int, ...], list[State]] | None,
) -> Iterator[tuple[ResidueSeq, State]]:
    """The walk below one prefix: ``word`` folds to ``state`` and leaves
    ``budget``, and is a word of the block once the budget is spent;
    ``seen`` holds the states reached so far by budget, or is None when
    nothing is merged.  States are packed ``width`` bits a degree; the packed
    form is canonical, so equal states compare equal."""
    if not any(budget):
        yield tuple(word), state
        return
    for i, left in enumerate(budget):
        if left:
            grown = _step(e, charges, state, i, width)
            if not grown:
                continue
            budget[i] -= 1
            if seen is not None:
                earlier = seen.setdefault(tuple(budget), [])
                if grown in earlier:
                    budget[i] += 1
                    continue
                earlier.append(grown)
            word.append(i)
            yield from _extend(e, charges, grown, budget, word, width, seen)
            word.pop()
            budget[i] += 1


def _dot(one: State, other: State, width: int) -> QPoly:
    """Sum over shared shapes of the product of the two histograms in one
    pass: each packed product is added above the least degree so far."""
    if len(other) < len(one):
        one, other = other, one
    get = other.get
    least = total = 0
    for shape, (lo, packed) in one.items():
        hit = get(shape)
        if hit is not None:
            lo += hit[0]
            packed *= hit[1]
            if not total:
                least, total = lo, packed
            elif least <= lo:
                total += packed << width * (lo - least)
            else:
                total = packed + (total << width * (least - lo))
                least = lo
    return _from_coeffs(_unpack(least, total, width))


def kostka_q(ctx: FockContext, shape: Bipartition, nu: Sequence[int]) -> QPoly:
    """Sum of q^degree over standard bitableaux of the shape with residue
    word nu; the zero polynomial when no tableau matches, as when the word's
    content is not the shape's (its fold then holds no entry for the shape)."""
    ctx.check_shape(shape)
    seq = _as_residue_seq(ctx, nu)
    if len(seq) != shape.size:
        raise ValueError(
            f"residue word has length {len(seq)}, shape has {shape.size} nodes"
        )
    e, charges = ctx.rank.e, ctx.charges
    hit = _fold(e, charges, seq).get(shape.parts[: len(charges)])
    return _from_coeffs(_unpack(*hit, _width(len(charges), len(seq))) if hit else {})


def block_bipartitions(ctx: FockContext, beta: RootVec) -> list[Bipartition]:
    """All bipartitions whose residue content equals beta, sorted."""
    _check_block(ctx, beta)
    out = [bp for bp in bipartitions(ctx, beta.height) if content(ctx, bp) == beta]
    return sorted(out, key=lambda b: b.parts)


def residue_sequences(ctx: FockContext, beta: RootVec) -> list[ResidueSeq]:
    """Every distinct residue word realised by a standard bitableau in the
    block of beta, sorted lexicographically."""
    return [word for word, _ in _walk(ctx, beta, merge=False)]


def nonzero_idempotents(ctx: FockContext, beta: RootVec) -> list[ResidueSeq]:
    """Distinguished residue words of the block, one per equivalence class.

    Two words are equivalent when they have the same K_q value against every
    bipartition of the block; such words carry identical graded-dimension
    columns.  The returned list holds the lexicographically smallest word of
    each class, sorted; every listed word has nonzero diagonal dimension.
    """
    return [word for word, _ in _walk(ctx, beta, merge=True)]


def graded_dim(ctx: FockContext, nu_prime: Sequence[int], nu: Sequence[int]) -> QPoly:
    """Graded dimension between the idempotents of two residue words:
    the sum over block bipartitions of K_q(shape, nu') * K_q(shape, nu).
    Words of different content give zero: a fold holds only shapes of its
    word's content, so their folds share no shape."""
    a = _as_residue_seq(ctx, nu_prime)
    b = _as_residue_seq(ctx, nu)
    if len(a) != len(b):
        raise ValueError(f"residue words differ in length: {len(a)} vs {len(b)}")
    e, charges = ctx.rank.e, ctx.charges
    return _dot(_fold(e, charges, a), _fold(e, charges, b), _width(len(charges), len(a)))


class DimMatrix(_Value):
    """A matrix of graded dimensions over chosen residue words.  The
    constructor enforces its three rules: the matrix is symmetric, its
    coefficients are nonnegative and its diagonal entries are palindromic."""

    __slots__ = _fields = ("idempotents", "entries")
    idempotents: tuple[ResidueSeq, ...]
    entries: tuple[tuple[QPoly, ...], ...]

    def __init__(
        self, idempotents: tuple[ResidueSeq, ...], entries: tuple[tuple[QPoly, ...], ...]
    ) -> None:
        m = len(idempotents)
        if len(entries) != m or any(len(row) != m for row in entries):
            raise ValueError("entry matrix shape does not match idempotent count")
        for i in range(m):
            for j in range(i, m):
                if entries[i][j] != entries[j][i]:
                    raise ValueError("dimension matrix must be symmetric")
                if not entries[i][j].is_nonnegative():
                    raise ValueError("graded dimensions must have nonnegative coefficients")
            diag = entries[i][i]
            if not diag.is_palindromic():
                raise ValueError(
                    f"diagonal graded dimension at e{idempotents[i]} "
                    f"is not palindromic: {diag}"
                )
        put = self._put
        put[0](self, idempotents)
        put[1](self, entries)

    @property
    def size(self) -> int:
        return len(self.idempotents)

    def entry(self, i: int, j: int) -> QPoly:
        return self.entries[i][j]

    def to_json(self) -> dict:
        return {
            "idempotents": [list(nu) for nu in self.idempotents],
            "entries": [[p.to_json() for p in row] for row in self.entries],
        }

    def __str__(self) -> str:
        labels = ["e(" + ",".join(str(v) for v in nu) + ")" for nu in self.idempotents]
        cells = [[str(p) for p in row] for row in self.entries]
        width0 = max((len(s) for s in labels), default=0)
        widths = [
            max([len(labels[j])] + [len(cells[i][j]) for i in range(self.size)])
            for j in range(self.size)
        ]
        lines = [
            " " * width0
            + "  "
            + "  ".join(labels[j].rjust(widths[j]) for j in range(self.size))
        ]
        for i in range(self.size):
            lines.append(
                labels[i].rjust(width0)
                + "  "
                + "  ".join(cells[i][j].rjust(widths[j]) for j in range(self.size))
            )
        return "\n".join(lines)


def dim_matrix(
    ctx: FockContext, beta: RootVec, idems: Sequence[Sequence[int]]
) -> DimMatrix:
    """Graded dimensions between all pairs of the given residue words."""
    _check_block(ctx, beta)
    target = tuple(beta.coeffs)
    seqs = [_as_residue_seq(ctx, nu) for nu in idems]
    for nu in seqs:
        if _seq_content(ctx, nu) != target:
            raise ValueError(f"residue word {nu} does not have content {beta}")
    e, charges = ctx.rank.e, ctx.charges
    folds = [_fold(e, charges, nu) for nu in seqs]
    return DimMatrix(tuple(seqs), _matrix(folds, _width(len(charges), beta.height)))


def class_matrix(ctx: FockContext, beta: RootVec) -> DimMatrix:
    """The dimension matrix over the block's idempotent classes: the
    ``dim_matrix`` of ``nonzero_idempotents``, built from the folds the class
    walk already holds, so no class is folded twice."""
    words: list[ResidueSeq] = []
    folds: list[State] = []
    for word, fold in _walk(ctx, beta, merge=True):
        words.append(word)
        folds.append(fold)
    return DimMatrix(tuple(words), _matrix(folds, _width(ctx.level, beta.height)))


def _matrix(folds: list[State], width: int) -> tuple[tuple[QPoly, ...], ...]:
    """The rows of the matrix of the given folds, packed ``width`` bits a
    degree, shape by shape.  The list of folds is cleared entry by entry as
    each fold's histograms go into the buckets."""
    m = len(folds)
    lo = min((least for fold in folds for least, _ in fold.values()), default=0)
    zero = _from_coeffs({})
    entries = [[zero] * m for _ in range(m)]
    by_shape: dict[Shape, list[tuple[int, int, int]]] = {}
    for i in reversed(range(m)):
        # by_shape holds the classes j >= i, so row i is summed over j >= i
        # sharing a shape with i only.  A bucket keeps each histogram as its
        # fold packs it, with its least degree above lo in bits, so a product
        # is shifted once to its place above 2 * lo; at the fold width no sum
        # of products carries.
        acc: dict[int, int] = {}
        for shape, (least, packed) in folds[i].items():
            here = width * (least - lo)
            bucket = by_shape.setdefault(shape, [])
            bucket.append((i, here, packed))
            for j, there, other in bucket:
                acc[j] = acc.get(j, 0) + ((packed * other) << (here + there))
        folds[i] = {}  # in the buckets now; free it while the rows fill
        row = entries[i]
        for j, x in acc.items():
            row[j] = entries[j][i] = _from_coeffs(_unpack(2 * lo, x, width))
    return tuple(tuple(row) for row in entries)


def _hook_product_count(parts: tuple[int, ...]) -> int:
    """Number of standard tableaux of one partition, by the hook lengths."""
    m = sum(parts)
    cols = [0] * (parts[0] if parts else 0)
    for p in parts:
        for c in range(p):
            cols[c] += 1
    hooks = 1
    for r, p in enumerate(parts):
        for c in range(p):
            hooks *= (p - c - 1) + (cols[c] - r - 1) + 1
    return math.factorial(m) // hooks


def count_standard(shape: Bipartition) -> int:
    """Number of standard bitableaux of the shape: the multinomial of the
    component sizes times each component's count of standard tableaux."""
    count = math.factorial(shape.size)
    for parts in shape.parts:
        count = count // math.factorial(sum(parts)) * _hook_product_count(parts)
    return count


def ungraded_block_dim(ctx: FockContext, beta: RootVec) -> int:
    """Total dimension of the block: the sum of squared standard-bitableau
    counts over the bipartitions with content beta."""
    return sum(count_standard(shape) ** 2 for shape in block_bipartitions(ctx, beta))


class QuiverBound(_Value):
    """Loop counts and arrow lower bounds read off a dimension matrix."""

    __slots__ = _fields = ("loops", "arrows", "wild")
    loops: tuple[int, ...]
    arrows: tuple[tuple[int, ...], ...]
    wild: bool

    def __init__(
        self, loops: tuple[int, ...], arrows: tuple[tuple[int, ...], ...], wild: bool
    ) -> None:
        put = self._put
        put[0](self, loops)
        put[1](self, arrows)
        put[2](self, wild)

    def to_json(self) -> dict:
        return {
            "loops": list(self.loops),
            "arrows": [list(row) for row in self.arrows],
            "wild": self.wild,
        }


def quiver_bounds(matrix: DimMatrix) -> QuiverBound:
    """Read loop counts and arrow lower bounds from a dimension matrix.

    Requires every entry to be delta_ij + c_ij q^2 + (degrees >= 3 with
    nonnegative coefficients); otherwise raises QuiverShapeError to signal
    that this criterion does not apply.  Vertex i gets loops = c_ii and at
    least c_ij arrows towards j.  The wild flag is set when some vertex has
    at least two loops with arrows both ways between it and another vertex.
    """
    return _read_bound(matrix.size, matrix.entry)


def _quiver_coeff(i: int, j: int, poly: QPoly) -> int:
    """c_ij of an entry delta_ij + c_ij q^2 + O(q^3) with nonnegative
    coefficients; QuiverShapeError naming the entry when it is not one."""
    delta = 1 if i == j else 0
    if (
        poly.coeff(0) != delta
        or poly.coeff(1)
        or (poly.min_deg or 0) < 0
        or not poly.is_nonnegative()
    ):
        raise QuiverShapeError(
            f"entry ({i},{j}) = {poly} is not delta + c*q^2 + O(q^3)"
        )
    return poly.coeff(2)


def _read_bound(m: int, entry: Callable[[int, int], QPoly]) -> QuiverBound:
    """The quiver bound of the symmetric m x m matrix with entries
    ``entry(i, j)``.  Entries are read over j >= i in row order and mirrored,
    which is the order in which a full row-order read first meets each one,
    so the first entry that rules the bound out is named with the same text.
    """
    c = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            c[i][j] = c[j][i] = _quiver_coeff(i, j, entry(i, j))
    # c is symmetric, so an arrow i -> j comes with one j -> i.
    wild = any(
        c[i][i] >= 2 and c[i][j] >= 1 for i in range(m) for j in range(m) if i != j
    )
    return QuiverBound(tuple(c[i][i] for i in range(m)), tuple(map(tuple, c)), wild)


def _class_verdict(ctx: FockContext, beta: RootVec) -> QuiverBound:
    """``quiver_bounds`` of the class matrix, read from the class walk's
    folds without building the matrix.  Entry (0, j) is checked as class j
    arrives, so a failure in row 0 stops the walk; the later rows are read
    once it is done.  Each entry is the full ``_dot`` of two folds, the
    polynomial the matrix would hold, so an error names the same entry with
    the same text."""
    width = _width(ctx.level, beta.height)
    folds: list[State] = []
    first: list[QPoly] = []
    for j, (_, fold) in enumerate(_walk(ctx, beta, merge=True)):
        folds.append(fold)
        first.append(_dot(folds[0], fold, width))
        _quiver_coeff(0, j, first[j])
    return _read_bound(
        len(folds), lambda i, j: first[j] if i == 0 else _dot(folds[i], folds[j], width)
    )
