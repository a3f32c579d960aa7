"""Exact linear algebra over Z/nZ.

Matrices are tuples of row tuples with entries in [0, n).  The central
canonical form is the Howell normal form: unlike plain row echelon form it
is unique for a given row span even in the presence of zero divisors, which
makes structural equality of module presentations coincide with mathematical
equality.  On top of it we build finitely presented Z/nZ-modules together
with pruned (unit-pivot-free) presentations and subquotients: a submodule
of a presented module is the subquotient of its generators modulo its
relations, and a kernel is the preimage of the relations
(`preimage_gens`).

Every linear system is solved from one Howell form, that of
[A | I; C | 0] (`_augmented`): the rows of A carry the unknowns, and the
relation rows C, the solutions that count as trivial, enter without
unknowns.  Preimages, row kernels (C empty), solutions of x*A == b modulo
span(C) and subquotient coordinates are all read off it.

All arithmetic uses exact Python integers; moduli above 2**31 are rejected
at construction.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from math import gcd

MAX_MODULUS = 2**31


class LinAlgError(Exception):
    """Raised for malformed matrices, moduli or presentations."""


def _check_modulus(n: int) -> None:
    if not isinstance(n, int) or n < 2:
        raise LinAlgError(f"modulus must be an integer >= 2, got {n!r}")
    if n > MAX_MODULUS:
        raise LinAlgError(f"modulus {n} exceeds the supported bound 2**31")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b)."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _unit_scale(x: int, n: int) -> int:
    """A unit u mod n with u*x == gcd(x, n) (mod n), for x in [0, n)."""
    if x == 0:
        return 1
    d = gcd(x, n)
    c = x // d
    # c is invertible mod n/d; shift by multiples of n/d until it is a unit mod n
    while gcd(c, n) != 1:
        c += n // d
    return pow(c, -1, n)


def _pivots(hrows) -> tuple[int, ...]:
    """Pivot column of each row of a Howell form (its rows are nonzero)."""
    return tuple(next(itertools.compress(itertools.count(), row))
                 for row in hrows)


def _reduce_pivoted(v: list, hrows, pivots, n: int) -> list:
    """Reduce `v` (entries in [0, n)) against Howell rows with known pivots.

    Each row in turn brings the entry at its pivot column d into [0, d), in
    row order.  This is the one reduction loop of the module.
    """
    for row, j in zip(hrows, pivots):
        x = v[j]
        if x and x >= row[j]:
            q = x // row[j]
            v = [(a - q * b) % n for a, b in zip(v, row)]
    return v


def howell(rows, ncols: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Howell normal form of the span of `rows` inside (Z/n)^ncols.

    The result is in echelon form, every pivot divides n, entries above a
    pivot are reduced modulo that pivot, and the row set is span-closed:
    any span element with leading zeros lies in the span of the later rows.
    The form is unique for a given row span.

    Column by column, the first row nonzero there becomes the pivot and
    every other such row is cleared against it.  When the pivot's entry a
    divides the row's entry b, the row becomes r - (b/a)*pivot and the
    pivot stays: one row update.  Otherwise an xgcd step replaces both by
    the gcd row and the two remainders.  Either way the span is unchanged,
    and so is the form, which the span alone determines.  The pivot is
    then scaled by a unit to a divisor d of n (skipped when that unit is
    1), and its multiple by n/d, zero in this column, joins the rows still
    to be reduced (skipped when d is 1, as it is then zero).  The loop
    stops once no row is left, so zero rows alone give () at once.
    """
    pool = []  # nonzero rows only
    for r in rows:
        rr = [v % n for v in r]
        if len(rr) != ncols:
            raise LinAlgError("row length mismatch")
        if any(rr):
            pool.append(rr)
    result: list[list[int]] = []
    cols: list[int] = []
    for j in range(ncols):
        if not pool:
            break
        pivot = None
        rest = []
        for r in pool:
            b = r[j]
            if b == 0:
                rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            a = pivot[j]
            if b % a == 0:
                q = b // a
                red_r = [(y - q * x) % n for x, y in zip(pivot, r)]
                if any(red_r):
                    rest.append(red_r)
                continue
            g, s, t = _xgcd(a, b)
            new = [(s * x + t * y) % n for x, y in zip(pivot, r)]
            red_p = [(x - (a // g) * z) % n for x, z in zip(pivot, new)]
            red_r = [(y - (b // g) * z) % n for y, z in zip(r, new)]
            if any(red_p):
                rest.append(red_p)
            if any(red_r):
                rest.append(red_r)
            pivot = new
        if pivot is not None:
            u = _unit_scale(pivot[j], n)
            if u != 1:
                pivot = [(u * x) % n for x in pivot]
            d = pivot[j]
            if d != 1:
                ann = [((n // d) * x) % n for x in pivot]
                if any(ann):
                    rest.append(ann)
            result.append(pivot)
            cols.append(j)
        pool = rest
    # reduce entries above each pivot: each row against the rows below it,
    # which are zero in its own pivot column and are not yet reduced
    for k in range(len(result) - 1):
        result[k] = _reduce_pivoted(result[k], result[k + 1:], cols[k + 1:], n)
    return tuple(tuple(r) for r in result)


def reduce_mod_span(vec, hrows, n: int) -> tuple[int, ...]:
    """Canonical representative of `vec` modulo the span of Howell rows."""
    return tuple(_reduce_pivoted([x % n for x in vec], hrows, _pivots(hrows),
                                 n))


def span_contains(vec, hrows, n: int) -> bool:
    return not any(reduce_mod_span(vec, hrows, n))


def _augmented(rows, rel_rows, ncols: int, n: int):
    """Howell form of [A | I; C | 0] for A = `rows` and C = `rel_rows`,
    with its pivot columns.

    Only the k rows of A carry unknowns; the relation rows C enter with a
    zero identity part.  The rows pivoting left of `ncols` come first;
    they record how each vector of span(A) + span(C) is reached.  The
    rest, cut to their last k columns, span {x : x*A in span(C)}.
    """
    k = len(rows)
    aug = [tuple(rows[i]) + (0,) * i + (1,) + (0,) * (k - i - 1)
           for i in range(k)]
    aug += [tuple(row) + (0,) * k for row in rel_rows]
    h = howell(aug, ncols + k, n)
    return h, _pivots(h)


def _kernel_of(h, pivots, ncols: int):
    """Howell form of {x : x*A in span(C)}, from the Howell form H of
    [A | I; C | 0].

    The rows of H pivoting at or right of `ncols` are zero on A's columns;
    cut to the identity part they are the answer, with no second Howell
    form taken.  They span it: (0 | x) lies in span(H) exactly when
    x*A + y*C == 0 for some y, and by span closure such a vector, zero on
    A's columns, lies in the span of these rows.  Cutting off A's columns
    keeps their echelon shape and reduced entries, and keeps span
    closure: a vector of their span with leading zeros is, with the zero
    columns put back, a vector of span(H) with the same leading zeros,
    so it lies in the span of the rows pivoting at or after its first
    nonzero column.
    """
    return tuple(row[ncols:] for row, j in zip(h, pivots) if j >= ncols)


def _solve_augmented(h, pivots, b, ncols: int, k: int, n: int):
    """Some x with x*A - b in span(C), from the augmented form of A and C;
    None if none.

    Reducing (b | 0) against the rows pivoting left of `ncols` leaves
    (0 | -x) exactly when b lies in span(A) + span(C).
    """
    if len(b) != ncols:
        raise LinAlgError("vector length mismatch")
    split = bisect_left(pivots, ncols)
    v = _reduce_pivoted([x % n for x in b] + [0] * k, h[:split],
                        pivots[:split], n)
    if any(v[:ncols]):
        return None
    return [-x % n for x in v[ncols:]]


def row_kernel(rows, ncols: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of {v in (Z/n)^k : v*A == 0} for A with k rows, in
    Howell form: the preimage of the zero span."""
    return preimage_gens(rows, (), ncols, n)


def preimage_gens(rows, rel_rows, ncols: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Generators of {x : x*A lies in span(rel_rows)} for A with k rows,
    in Howell form, read off the form [A | I; C | 0] by `_kernel_of`.

    A matrix with no columns sends every x into the span: the answer is
    all of (Z/n)^k, whose Howell form is the identity.
    """
    if not ncols and not any(rows):
        return identity_matrix(len(rows))
    return _kernel_of(*_augmented(rows, rel_rows, ncols, n), ncols)


def solve_row(rows, rel_rows, b, ncols: int, n: int):
    """Some x with x*A - b in span(rel_rows) (mod n), canonical within its
    solution coset.

    Returns None when no solution exists.  The representative is obtained by
    reducing a particular solution modulo `preimage_gens(rows, rel_rows)`,
    the Howell form of the differences of two solutions, which makes the
    choice deterministic.
    """
    return solve_rows(rows, rel_rows, [b], ncols, n)[0]


def solve_rows(rows, rel_rows, targets, ncols: int, n: int) -> list:
    """`solve_row` for each b in `targets`, factoring A and C once."""
    k = len(rows)
    h, pivots = _augmented(rows, rel_rows, ncols, n)
    kernel = None
    out = []
    for b in targets:
        coeffs = _solve_augmented(h, pivots, b, ncols, k, n)
        if coeffs is not None:
            if kernel is None:
                kernel = _kernel_of(h, pivots, ncols)
            coeffs = reduce_mod_span(coeffs, kernel, n)
        out.append(coeffs)
    return out


def mat_mul(a, b, n: int) -> tuple[tuple[int, ...], ...]:
    """Product of matrices given as tuples of rows, reduced mod n."""
    if not a:
        return ()
    inner = len(a[0])
    if inner and len(b) != inner:
        raise LinAlgError("matrix dimension mismatch")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    acc[j] += x * y
        out.append(tuple(v % n for v in acc))
    return tuple(out)


def vec_mat(vec, matrix, n: int) -> tuple[int, ...]:
    (res,) = mat_mul((tuple(vec),), matrix, n) if matrix or vec else ((),)
    return res


def identity_matrix(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def zero_matrix(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    return tuple((0,) * cols for _ in range(rows))


class FpZnModule:
    """Finitely presented Z/nZ-module in Howell canonical form.

    The module is (Z/n)^ngens modulo the row span of `rels`.  Presentations
    are recanonicalized eagerly, so structural equality of two instances is
    equality of the presented modules.  The pivot column of each relation
    row is stored beside `rels` when the module is built, so reducing a
    vector never searches a row for its pivot.  Equality and hashing look
    at `n`, `ngens` and `rels` only.
    """

    __slots__ = ("n", "ngens", "rels", "pivots")

    def __init__(self, n: int, ngens: int, rels=()):
        _check_modulus(n)
        if ngens < 0:
            raise LinAlgError("negative generator count")
        self.n = n
        self.ngens = ngens
        self.rels = howell(rels, ngens, n)
        self.pivots = _pivots(self.rels)

    def __eq__(self, other):
        return (isinstance(other, FpZnModule) and self.n == other.n
                and self.ngens == other.ngens and self.rels == other.rels)

    def __hash__(self):
        return hash((self.n, self.ngens, self.rels))

    def __repr__(self):
        return f"FpZnModule(n={self.n}, ngens={self.ngens}, rels={self.rels})"

    def reduce(self, vec) -> tuple[int, ...]:
        if len(vec) != self.ngens:
            raise LinAlgError("vector length mismatch")
        n = self.n
        v = [x % n for x in vec]
        if self.rels:
            v = _reduce_pivoted(v, self.rels, self.pivots, n)
        return tuple(v)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def add(self, a, b) -> tuple[int, ...]:
        return self.reduce([x + y for x, y in zip(a, b)])

    def neg(self, a) -> tuple[int, ...]:
        return self.reduce([-x for x in a])

    def scale(self, c: int, a) -> tuple[int, ...]:
        return self.reduce([c * x for x in a])

    def _pivot_sizes(self) -> list[int]:
        """Per generator, the number of canonical values of its coordinate."""
        sizes = [self.n] * self.ngens
        for row, j in zip(self.rels, self.pivots):
            sizes[j] = row[j]
        return sizes

    def cardinality(self) -> int:
        card = 1
        for size in self._pivot_sizes():
            card *= size
        return card

    @property
    def is_zero(self) -> bool:
        return self.cardinality() == 1

    def elements(self):
        """Iterate over all canonical representatives (finite)."""
        ranges = [range(size) for size in self._pivot_sizes()]
        return (tuple(t) for t in itertools.product(*ranges))


def prune(module: FpZnModule):
    """Drop the generators that a unit-pivot relation expresses by the rest.

    Returns (pruned, kept, proj).  `kept` lists the surviving generator
    indices in order; row g of `proj` is the image of ambient generator g
    in `pruned`, and the map it defines is an isomorphism.  In a Howell
    form a row with pivot 1 at column c is the only row nonzero in column
    c, and it is zero in every other unit-pivot column, so e_c equals
    minus the rest of that row, which lies on the kept columns.  The
    other rows, cut to the kept columns, present the same module.
    """
    n = module.n
    unit = {j: row for row, j in zip(module.rels, module.pivots)
            if row[j] == 1}
    kept = [c for c in range(module.ngens) if c not in unit]
    pruned = FpZnModule(n, len(kept),
                        [[row[c] for c in kept]
                         for row, j in zip(module.rels, module.pivots)
                         if j not in unit])
    proj = tuple(tuple(-unit[g][c] % n for c in kept) if g in unit
                 else tuple(int(c == g) for c in kept)
                 for g in range(module.ngens))
    return pruned, kept, proj


class Subquotient:
    """Presentation of span(wgens) / R inside the module `ambient`, where
    R is the span of its relations.

    Used wherever a module arises as "solutions modulo trivial solutions",
    e.g. hom modules, and for every graded submodule: its generators
    modulo the ambient relations.  Exposes lifts of the presentation
    generators into the ambient space and a coordinate solver for
    arbitrary ambient vectors.

    The contract: `wgens` is a Howell form whose span holds R.  A
    preimage of the relations (`preimage_gens`) is one; any other rows
    are taken as `howell(rows + ambient.rels)` by the caller.  So no
    Howell form is taken here: the generators are the rows of `wgens`
    that are nonzero in the ambient module, and the ambient `FpZnModule`
    brings R in Howell form with its pivots.

    The generators and the relations are factored once, when the object
    is built: the augmented Howell form [gens | I; rels | 0], with
    unknowns for the generators only, yields the relations of `module`
    and is kept, with its pivots, so that `coords` is a single reduction
    against it followed by `module.reduce`.
    """

    __slots__ = ("ambient", "gens", "module", "_aug", "_aug_pivots")

    def __init__(self, wgens, ambient: FpZnModule):
        self.ambient = ambient
        n, dim = ambient.n, ambient.ngens
        self.gens = tuple(row for row in wgens if any(ambient.reduce(row)))
        self._aug, self._aug_pivots = _augmented(self.gens, ambient.rels,
                                                 dim, n)
        # the kernel part is the preimage of the relations: the relations
        # among the generators
        self.module = FpZnModule(n, len(self.gens),
                                 _kernel_of(self._aug, self._aug_pivots, dim))

    def lift(self, coords) -> tuple[int, ...]:
        """An ambient representative of the element with the given coordinates."""
        if not self.gens:
            return self.ambient.zero()
        return vec_mat(coords, self.gens, self.ambient.n)

    def coords(self, ambient_vec):
        """Coordinates of an ambient vector, or None if it is not represented.

        Two solutions x of x*gens - v in span(rels) differ by a relation of
        `module`; reducing any solution therefore gives the canonical
        coordinates.
        """
        sol = _solve_augmented(self._aug, self._aug_pivots, ambient_vec,
                               self.ambient.ngens, len(self.gens),
                               self.ambient.n)
        if sol is None:
            return None
        return self.module.reduce(sol)
