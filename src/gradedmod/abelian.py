"""Finitely generated abelian grading groups and epimorphisms between them.

A group is an explicit product of cyclic factors given by a moduli list:
0 encodes an infinite cyclic factor, m >= 2 a finite one.  Elements are
integer vectors in canonical form (coordinate i reduced into [0, m_i) for
finite factors).  Epimorphisms carry an integer matrix sending source
generators to target elements; well-definedness and surjectivity are
verified at construction, the latter by one integer echelon pass that
asks whether the rows and the target's relations span Z^k.
"""

from __future__ import annotations

from .znlinalg import _xgcd


class GroupError(Exception):
    """Raised for invalid groups, elements or would-be epimorphisms."""


class NotWellDefined(GroupError):
    pass


class NotSurjective(GroupError):
    pass


class FgAbelianGroup:
    """Product of cyclic groups Z/m_1 x ... x Z/m_k (m_i = 0 meaning Z).

    Elements are canonical tuples: `canon` reduces a coordinate sequence
    once, and `add`, `sub` and `neg` return canonical tuples directly, in
    one pass, still rejecting a wrong coordinate length.  Objects graded by
    the group store their degrees canonical, so a lookup with a canonical
    tuple needs no further canonicalization.

    Groups with no factor or one factor, the trivial group, Z and Z/m,
    grade every shipped object, so `canon`, `add`, `sub` and `neg` compute
    their coordinates directly for them; longer groups take the general
    loop.  Both give the same tuples.
    """

    __slots__ = ("moduli",)

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 0 or m == 1 for m in moduli):
            raise GroupError("moduli must be 0 or >= 2")
        self.moduli = moduli

    def __eq__(self, other):
        return isinstance(other, FgAbelianGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return f"FgAbelianGroup({list(self.moduli)})"

    def canon(self, coords) -> tuple[int, ...]:
        coords = tuple(coords)
        moduli = self.moduli
        if len(coords) != len(moduli):
            raise GroupError("coordinate length mismatch")
        if not moduli:
            return ()
        if len(moduli) == 1:
            m, c = moduli[0], int(coords[0])
            return (c % m if m else c,)
        return tuple([int(c) % m if m else int(c)
                      for c, m in zip(coords, moduli)])

    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)

    def add(self, a, b) -> tuple[int, ...]:
        moduli = self.moduli
        if len(a) != len(moduli) or len(b) != len(moduli):
            raise GroupError("coordinate length mismatch")
        if not moduli:
            return ()
        if len(moduli) == 1:
            m, x = moduli[0], a[0] + b[0]
            return (x % m if m else x,)
        return tuple([(x + y) % m if m else x + y
                      for x, y, m in zip(a, b, moduli)])

    def neg(self, a) -> tuple[int, ...]:
        moduli = self.moduli
        if len(a) != len(moduli):
            raise GroupError("coordinate length mismatch")
        if not moduli:
            return ()
        if len(moduli) == 1:
            m = moduli[0]
            return (-a[0] % m if m else -a[0],)
        return tuple([-x % m if m else -x for x, m in zip(a, moduli)])

    def sub(self, a, b) -> tuple[int, ...]:
        moduli = self.moduli
        if len(a) != len(moduli) or len(b) != len(moduli):
            raise GroupError("coordinate length mismatch")
        if not moduli:
            return ()
        if len(moduli) == 1:
            m, x = moduli[0], a[0] - b[0]
            return (x % m if m else x,)
        return tuple([(x - y) % m if m else x - y
                      for x, y, m in zip(a, b, moduli)])

    def element_order_divides(self, m: int, coords) -> bool:
        return self.canon([m * c for c in coords]) == self.zero()


class GroupEpi:
    """A surjective homomorphism between explicit products of cyclic groups.

    Row i of `matrix` is the image of source generator i.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FgAbelianGroup, target: FgAbelianGroup, matrix):
        matrix = tuple(target.canon(row) for row in matrix)
        if len(matrix) != len(source.moduli):
            raise GroupError("matrix row count must match source generator count")
        for m, row in zip(source.moduli, matrix):
            if m and not target.element_order_divides(m, row):
                raise NotWellDefined(
                    f"generator of order {m} maps to an element whose order "
                    f"does not divide {m}")
        if not _spans_target(matrix, target):
            raise NotSurjective("matrix columns do not span the target group")
        self.source = source
        self.target = target
        self.matrix = matrix

    def __eq__(self, other):
        return (isinstance(other, GroupEpi) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source, self.target, self.matrix))

    def __repr__(self):
        return f"GroupEpi({self.source!r} -> {self.target!r}, {self.matrix})"

    def apply(self, coords) -> tuple[int, ...]:
        coords = self.source.canon(coords)
        k = len(self.target.moduli)
        out = [0] * k
        for c, row in zip(coords, self.matrix):
            for j in range(k):
                out[j] += c * row[j]
        return self.target.canon(out)

    @staticmethod
    def identity(group: FgAbelianGroup) -> "GroupEpi":
        k = len(group.moduli)
        return GroupEpi(group, group,
                        [[1 if j == i else 0 for j in range(k)] for i in range(k)])


def _spans_target(matrix, target: FgAbelianGroup) -> bool:
    """True if the rows of `matrix` generate the target group, that is,
    span Z^k with the relations m_j e_j of its finite factors.  Column by
    column, the rows nonzero there (entries a, b) merge into one pivot row
    by steps (p, r) -> (s p + t r, (b/g) p - (a/g) r), g = s a + t b, of
    determinant -1: the span stays and r gets a zero there.  The span is
    Z^k iff every pivot entry is +-1.
    """
    k = len(target.moduli)
    rows = list(matrix) + [[m if i == j else 0 for i in range(k)]
                           for j, m in enumerate(target.moduli) if m]
    for col in range(k):
        pivot, rest = None, []
        for row in rows:
            if not row[col]:
                rest.append(row)
            elif pivot is None:
                pivot = row
            else:
                a, b = pivot[col], row[col]
                g, s, t = _xgcd(a, b)
                pivot, row = ([s * x + t * y for x, y in zip(pivot, row)],
                              [b // g * x - a // g * y
                               for x, y in zip(pivot, row)])
                rest.append(row)
        if pivot is None or abs(pivot[col]) != 1:
            return False
        rows = rest
    return True


def make_group(moduli) -> FgAbelianGroup:
    return FgAbelianGroup(moduli)


def make_epi(source: FgAbelianGroup, target: FgAbelianGroup, matrix) -> GroupEpi:
    return GroupEpi(source, target, matrix)
