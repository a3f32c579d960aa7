"""Seeded benchmark inputs, built only from gradedmod's public constructors.

Two families of ring morphisms are generated here:

* the truncated-polynomial quotients h: (Z/n)[X]/(X^k) ->> (Z/n)[X]/(X^j),
* the Frobenius extensions F_p -> F_p[t]/(t^e),

each for the trivial grading, the Z grading and a Z/m grading (deg X = 1).
Every component presentation then receives a random invertible change of
generators drawn from the workload seed: a permutation of its generators
with a unit rescaling of each.  The change rewrites the relation
rows, the unit, the structure tensors and the ring-morphism matrices, but
not the modules they present, so every closed-form answer (cardinalities,
verdicts, free shifts) is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from gradedmod.abelian import make_epi, make_group
from gradedmod.graded import GradedRing, GradedRingHom
from gradedmod.znlinalg import FpZnModule


@dataclass(frozen=True)
class Grading:
    """Grading group with deg X = 1: "triv", "Z" or "Z/m"."""

    kind: str
    m: int = 0

    @property
    def label(self) -> str:
        return self.kind if self.kind != "Z/m" else f"Z{self.m}"

    def group(self):
        if self.kind == "triv":
            return make_group([])
        if self.kind == "Z":
            return make_group([0])
        return make_group([self.m])

    def degree(self, i: int) -> tuple[int, ...]:
        """Degree of the monomial X^i."""
        if self.kind == "triv":
            return ()
        if self.kind == "Z":
            return (i,)
        return (i % self.m,)

    def coarsening(self):
        """The epimorphism onto the trivial group used by d80 checks."""
        grp = self.group()
        return make_epi(grp, make_group([]), [[] for _ in grp.moduli])


@dataclass
class Instance:
    """One ring morphism h: R -> S with the data its checks need."""

    name: str
    kind: str          # "quotient" or "frobenius"
    n: int             # coefficient modulus
    k: int             # R = (Z/n)[X]/(X^k)  (k = 1 for a Frobenius source)
    j: int             # S = (Z/n)[X]/(X^j)  (j = e for a Frobenius target)
    grading: Grading
    ring_r: GradedRing
    ring_s: GradedRing
    h: GradedRingHom
    psi: object

    @property
    def card_s(self) -> int:
        return self.n ** self.j


# ---------------------------------------------------------------------------
# random changes of generators


def random_invertible(size: int, n: int, rng: random.Random):
    """(P, P^-1) for a random monomial invertible matrix over Z/n.

    P permutes the generators and rescales each by a random unit.  A dense
    random P would present the same modules too, but it moves the cost of
    one task by up to 4x from seed to seed (theta on the ungraded k=3
    member), which would drown every regression bound; a monomial P keeps
    the cost of a seed within run-to-run noise.
    """
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    perm = list(range(size))
    rng.shuffle(perm)
    p = [[0] * size for _ in range(size)]
    pinv = [[0] * size for _ in range(size)]
    for a, b in enumerate(perm):
        u = rng.choice(units)
        p[a][b] = u
        pinv[b][a] = pow(u, -1, n)
    return p, pinv


def _vec_mat(v, m, n):
    """The row vector v times the matrix m, over Z/n."""
    cols = len(m[0]) if m else 0
    return [sum(x * m[t][c] for t, x in enumerate(v)) % n
            for c in range(cols)]


class _Basis:
    """Per-degree changes of generators for one monomial presentation."""

    def __init__(self, degs, n, rng):
        self.n = n
        self.p, self.pinv = {}, {}
        for d in sorted(degs):
            self.p[d], self.pinv[d] = random_invertible(degs[d], n, rng)

    def coords(self, d, old):
        """New coordinates of an element given in old coordinates."""
        return tuple(_vec_mat(old, self.pinv[d], self.n))


# ---------------------------------------------------------------------------
# truncated polynomial rings


def _monomials(grading: Grading, k: int):
    """Degree -> list of exponents i < k with deg X^i = degree."""
    out = {}
    for i in range(k):
        out.setdefault(grading.degree(i), []).append(i)
    return out


def truncated_ring(grading: Grading, n: int, k: int, j: int, basis: _Basis):
    """(Z/n)[X]/(X^k), modulo X^j when j < k, in the basis `basis`.

    The quotient keeps the k monomial generators and adds the relations
    X^i = 0 for i >= j, the presentation the shipped instances use.
    """
    grp = grading.group()
    mono = _monomials(grading, k)
    pos = {i: (d, idx) for d, exps in mono.items() for idx, i in enumerate(exps)}
    comps, mult = {}, {}
    for d, exps in mono.items():
        rels = []
        for idx, i in enumerate(exps):
            if i >= j:
                old = [0] * len(exps)
                old[idx] = 1
                rels.append(basis.coords(d, old))
        comps[d] = FpZnModule(n, len(exps), rels)
    for dg, eg in mono.items():
        for dh, eh in mono.items():
            dout = grp.add(dg, dh)
            if dout not in mono:
                continue
            width = len(mono[dout])
            # old structure constants t[a][b], then the change of basis
            old = [[[0] * width for _ in eh] for _ in eg]
            for a, ia in enumerate(eg):
                for b, ib in enumerate(eh):
                    if ia + ib < k:
                        old[a][b][pos[ia + ib][1]] = 1
            pg, ph = basis.p[dg], basis.p[dh]
            new = []
            for a in range(len(eg)):
                block = []
                for b in range(len(eh)):
                    acc = [0] * width
                    for x in range(len(eg)):
                        if pg[a][x]:
                            for y in range(len(eh)):
                                c = pg[a][x] * ph[b][y]
                                if c:
                                    for z, v in enumerate(old[x][y]):
                                        acc[z] += c * v
                    block.append(basis.coords(dout, [v % n for v in acc]))
                new.append(block)
            mult[(dg, dh)] = new
    zero = grp.zero()
    one_old = [0] * len(mono[zero])
    one_old[0] = 1
    one = basis.coords(zero, one_old)
    return GradedRing(grp, n, comps, mult, one)


def _ring_hom(ring_r, ring_s, mono_r, mono_s, basis_r, basis_s, n):
    """The morphism sending each monomial X^i of R to X^i in S."""
    maps = {}
    for d, exps in mono_r.items():
        target = mono_s.get(d, [])
        rows = []
        for a in range(len(exps)):
            # new generator a of R = sum_x P[a][x] X^{exps[x]}
            old = [0] * len(target)
            for x, i in enumerate(exps):
                c = basis_r.p[d][a][x]
                if c and i in target:
                    old[target.index(i)] = (old[target.index(i)] + c) % n
            rows.append(basis_s.coords(d, old) if target else ())
        maps[d] = rows
    return GradedRingHom(ring_r, ring_s, maps)


def quotient_instance(grading: Grading, n: int, k: int, j: int,
                      rng: random.Random) -> Instance:
    """h: (Z/n)[X]/(X^k) ->> (Z/n)[X]/(X^j) with seeded generators."""
    mono = _monomials(grading, k)
    sizes = {d: len(e) for d, e in mono.items()}
    basis_r = _Basis(sizes, n, rng)
    basis_s = _Basis(sizes, n, rng)
    ring_r = truncated_ring(grading, n, k, k, basis_r)
    ring_s = truncated_ring(grading, n, k, j, basis_s)
    h = _ring_hom(ring_r, ring_s, mono, mono, basis_r, basis_s, n)
    return Instance(f"trunc-{grading.label}-n{n}-k{k}-j{j}", "quotient", n, k,
                    j, grading, ring_r, ring_s, h, grading.coarsening())


def frobenius_instance(grading: Grading, p: int, e: int,
                       rng: random.Random) -> Instance:
    """The inclusion F_p -> F_p[t]/(t^e) with seeded generators."""
    mono_r = _monomials(grading, 1)
    mono_s = _monomials(grading, e)
    basis_r = _Basis({d: len(x) for d, x in mono_r.items()}, p, rng)
    basis_s = _Basis({d: len(x) for d, x in mono_s.items()}, p, rng)
    ring_r = truncated_ring(grading, p, 1, 1, basis_r)
    ring_s = truncated_ring(grading, p, e, e, basis_s)
    h = _ring_hom(ring_r, ring_s, mono_r, mono_s, basis_r, basis_s, p)
    return Instance(f"frob-{grading.label}-p{p}-e{e}", "frobenius", p, 1, e,
                    grading, ring_r, ring_s, h, grading.coarsening())
