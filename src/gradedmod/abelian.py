"""Finitely generated abelian grading groups and epimorphisms between them.

A group is an explicit product of cyclic factors given by a moduli list:
0 encodes an infinite cyclic factor, m >= 2 a finite one.  Elements are
integer vectors in canonical form (coordinate i reduced into [0, m_i) for
finite factors).  Epimorphisms carry an integer matrix sending source
generators to target elements; well-definedness and surjectivity are
verified at construction, the latter via Smith normal form over Z.
"""

from __future__ import annotations


class GroupError(Exception):
    """Raised for invalid groups, elements or would-be epimorphisms."""


class NotWellDefined(GroupError):
    pass


class NotSurjective(GroupError):
    pass


def smith_normal_form(matrix) -> list[int]:
    """Elementary divisors (non-negative, each dividing the next) of an
    integer matrix, including zeros up to min(rows, cols)."""
    a = [list(map(int, row)) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    divisors = []
    top = 0
    while top < min(rows, cols):
        # find a nonzero pivot below/right of (top, top)
        pr = pc = -1
        for i in range(top, rows):
            for j in range(top, cols):
                if a[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        a[top], a[pr] = a[pr], a[top]
        for row in a:
            row[top], row[pc] = row[pc], row[top]
        while True:
            # clear column top
            for i in range(top + 1, rows):
                while a[i][top]:
                    q = a[top][top] // a[i][top] if a[i][top] else 0
                    if abs(a[i][top]) < abs(a[top][top]) or a[top][top] == 0:
                        a[top], a[i] = a[i], a[top]
                        continue
                    q = a[i][top] // a[top][top]
                    for j in range(cols):
                        a[i][j] -= q * a[top][j]
            # clear row top
            row_dirty = False
            for j in range(top + 1, cols):
                while a[top][j]:
                    if abs(a[top][j]) < abs(a[top][top]) or a[top][top] == 0:
                        for i in range(rows):
                            a[i][top], a[i][j] = a[i][j], a[i][top]
                        row_dirty = True
                        continue
                    q = a[top][j] // a[top][top]
                    for i in range(rows):
                        a[i][j] -= q * a[i][top]
            if not row_dirty and all(a[i][top] == 0 for i in range(top + 1, rows)):
                break
        d = abs(a[top][top])
        # enforce divisibility d | remaining entries
        fixed = False
        for i in range(top + 1, rows):
            for j in range(top + 1, cols):
                if d and a[i][j] % d:
                    for jj in range(cols):
                        a[top][jj] += a[i][jj]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        divisors.append(d)
        top += 1
    while len(divisors) < min(rows, cols):
        divisors.append(0)
    return divisors


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

    @property
    def is_trivial(self) -> bool:
        return not self.moduli

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

    @property
    def is_identity(self) -> bool:
        return (self.source == self.target
                and all(row == tuple(1 if j == i else 0
                                     for j in range(len(self.target.moduli)))
                        for i, row in enumerate(self.matrix)))

    @staticmethod
    def identity(group: FgAbelianGroup) -> "GroupEpi":
        k = len(group.moduli)
        return GroupEpi(group, group,
                        [[1 if j == i else 0 for j in range(k)] for i in range(k)])


def _spans_target(matrix, target: FgAbelianGroup) -> bool:
    """True if the rows of `matrix` generate the target group."""
    k = len(target.moduli)
    if k == 0:
        return True
    rows = [list(r) for r in matrix]
    for j, m in enumerate(target.moduli):
        if m:
            rows.append([m if jj == j else 0 for jj in range(k)])
    if not rows:
        return False
    divisors = smith_normal_form(rows)
    return len(divisors) >= k and all(d == 1 for d in divisors[:k])


def make_group(moduli) -> FgAbelianGroup:
    return FgAbelianGroup(moduli)


def make_epi(source: FgAbelianGroup, target: FgAbelianGroup, matrix) -> GroupEpi:
    return GroupEpi(source, target, matrix)
