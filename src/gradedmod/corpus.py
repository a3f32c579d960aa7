"""Named instances and seeded random generators for tests and scenarios.

The named instances are the recurring examples: the quotient Z/4 -> Z/2,
the inclusion of F_2 into F_2[t]/(t^2) (graded by Z/2 with deg t = 1 and
ungraded), the truncated polynomial ring F_2[X]/(X^3) with its quotient by
(X^2) (ungraded, Z/3-graded, and Z-graded), and the coarsening maps between
their grading groups.  The random generators draw modules from shifts, sums
and quotients of the ring, up to a bounded size, and morphisms
uniformly from the presentation of Hom(M, N)_0, so properties quantified
over "all modules/morphisms" are exercised on a reproducible sample.
"""

from __future__ import annotations

import random

from .abelian import FgAbelianGroup, GroupEpi, make_epi, make_group
from .graded import (GradedModule, GradedMorphism, GradedRing, GradedRingHom,
                     direct_sum, graded_cokernel, graded_submodule,
                     ring_as_module, shift)
from .functors import hom_degree
from .znlinalg import FpZnModule


# ---------------------------------------------------------------------------
# named instances


def z4_to_z2():
    """The quotient Z/4 -> Z/2 over the trivial grading group (n = 4)."""
    g0 = make_group([])
    d0 = ()
    r = GradedRing(g0, 4, {d0: FpZnModule(4, 1, [])},
                   {(d0, d0): (((1,),),)}, (1,))
    s = GradedRing(g0, 4, {d0: FpZnModule(4, 1, [(2,)])},
                   {(d0, d0): (((1,),),)}, (1,))
    h = GradedRingHom(r, s, {d0: ((1,),)})
    return {"ring_r": r, "ring_s": s, "h": h,
            "psi": GroupEpi.identity(g0)}


def frobenius():
    """F_2 -> F_2[t]/(t^2), graded by Z/2 with deg t = 1 (n = 2)."""
    g = make_group([2])
    c1 = FpZnModule(2, 1, [])
    s = GradedRing(g, 2, {(0,): c1, (1,): c1},
                   {((0,), (0,)): (((1,),),),
                    ((0,), (1,)): (((1,),),),
                    ((1,), (0,)): (((1,),),)},
                   (1,))
    r = GradedRing(g, 2, {(0,): c1}, {((0,), (0,)): (((1,),),)}, (1,))
    h = GradedRingHom(r, s, {(0,): ((1,),)})
    psi = make_epi(g, make_group([]), [[]])
    return {"ring_r": r, "ring_s": s, "h": h, "psi": psi}


def frobenius_ungraded():
    """F_2 -> F_2[t]/(t^2) with the trivial grading (n = 2).

    This is the Morita-positive instance: the algebra is self-dual as a
    module, so scalar extension and coextension coincide.  (With the
    nontrivial grading the self-duality acquires a shift and the two
    functors differ.)
    """
    g0 = make_group([])
    d0 = ()
    s = GradedRing(g0, 2, {d0: FpZnModule(2, 2, [])},
                   {(d0, d0): (((1, 0), (0, 1)), ((0, 1), (0, 0)))},
                   (1, 0))
    r = GradedRing(g0, 2, {d0: FpZnModule(2, 1, [])},
                   {(d0, d0): (((1,),),)}, (1,))
    h = GradedRingHom(r, s, {d0: ((1, 0),)})
    return {"ring_r": r, "ring_s": s, "h": h,
            "psi": GroupEpi.identity(g0)}


def _truncated_mult_tensor():
    """Structure constants of F_2[X]/(X^3) on the basis 1, X, X^2."""
    def basis(i, j):
        out = [0, 0, 0]
        if i + j <= 2:
            out[i + j] = 1
        return tuple(out)
    return tuple(tuple(basis(i, j) for j in range(3)) for i in range(3))


def d25e():
    """R = F_2[X]/(X^3) ->> R/(X^2), ungraded (n = 2)."""
    g0 = make_group([])
    d0 = ()
    t = _truncated_mult_tensor()
    r = GradedRing(g0, 2, {d0: FpZnModule(2, 3, [])}, {(d0, d0): t},
                   (1, 0, 0))
    s = GradedRing(g0, 2, {d0: FpZnModule(2, 3, [(0, 0, 1)])},
                   {(d0, d0): t}, (1, 0, 0))
    h = GradedRingHom(r, s,
                      {d0: ((1, 0, 0), (0, 1, 0), (0, 0, 1))})
    return {"ring_r": r, "ring_s": s, "h": h,
            "psi": GroupEpi.identity(g0)}


def _graded_truncated(group: FgAbelianGroup, degx, quotient: bool):
    """F_2[X]/(X^3) graded with deg X = degx; optionally modulo (X^2)."""
    c1 = FpZnModule(2, 1, [])
    zero = group.zero()
    d1 = group.canon(degx)
    d2 = group.add(d1, d1)
    comps = {zero: c1, d1: c1,
             d2: FpZnModule(2, 1, [(1,)] if quotient else [])}
    mult = {}
    degs = {zero: 0, d1: 1, d2: 2}
    for da, pa in degs.items():
        for db, pb in degs.items():
            if pa + pb <= 2:
                out = group.add(da, db)
                if out in comps and comps[out].ngens:
                    mult[(da, db)] = (((1,),),)
    ring = GradedRing(group, 2, comps, mult, (1,))
    return ring


def d25e_z3():
    """The d25e instance graded by Z/3 with deg X = 1 (n = 2)."""
    g = make_group([3])
    r = _graded_truncated(g, (1,), False)
    s = _graded_truncated(g, (1,), True)
    h = GradedRingHom(r, s, {d: ((1,),) for d in r.components})
    psi = make_epi(g, make_group([]), [[]])
    return {"ring_r": r, "ring_s": s, "h": h, "psi": psi}


def zgraded_truncated():
    """F_2[X]/(X^3), Z-graded with deg X = 1, and psi: Z -> 0 (n = 2)."""
    g = make_group([0])
    r = _graded_truncated(g, (1,), False)
    psi = make_epi(g, make_group([]), [[]])
    return {"ring_r": r, "ring_s": r,
            "h": GradedRingHom.identity(r), "psi": psi}


# name -> builder of the instance; each builder returns a fresh dict with
# keys "ring_r", "ring_s", "h" and "psi"
INSTANCE_BUILDERS = {
    "z4_to_z2": z4_to_z2,
    "frobenius": frobenius,
    "frobenius_ungraded": frobenius_ungraded,
    "d25e": d25e,
    "d25e_z3": d25e_z3,
    "zgraded": zgraded_truncated,
}


def named_instances():
    """All named ring-morphism instances, keyed by their usual names."""
    return {name: build() for name, build in INSTANCE_BUILDERS.items()}


# ---------------------------------------------------------------------------
# seeded random generators


MAX_COMPONENTS = 6
MAX_GENS = 6


def _module_size(module: GradedModule) -> int:
    return sum(c.ngens for c in module.components.values())


def _candidate_shifts(ring: GradedRing):
    degs = set()
    for d in ring.components:
        degs.add(d)
        degs.add(ring.group.neg(d))
    return sorted(degs)


def random_module(ring: GradedRing, rng: random.Random,
                  ops: int = 2) -> GradedModule:
    """A random module built from the ring by shifts, sums and quotients."""
    module = ring_as_module(ring)
    shifts = _candidate_shifts(ring)
    for _ in range(ops):
        choice = rng.randrange(3)
        if choice == 0 and shifts:
            module = shift(module, rng.choice(shifts))
        elif choice == 1 and _module_size(module) < MAX_GENS:
            other = shift(ring_as_module(ring), rng.choice(shifts))
            module, _, _ = direct_sum([module, other])
        else:
            module = _random_quotient(module, rng)
        if module.is_zero:
            module = ring_as_module(ring)
    return module


def _saturate(module: GradedModule, gens_by_degree):
    """Close a homogeneous generating set under the ring action."""
    ring = module.ring
    grp = ring.group
    gens = {d: [module.components[d].reduce(v) for v in vs]
            for d, vs in gens_by_degree.items()}
    queue = [(d, v) for d, vs in gens.items() for v in vs]
    while queue:
        d, v = queue.pop()
        for dc in sorted(ring.components):
            rc = ring.components[dc]
            out_deg = grp.add(dc, d)
            out = module.component(out_deg)
            if not out.ngens:
                continue
            for p in range(rc.ngens):
                r = (dc, tuple(1 if q == p else 0 for q in range(rc.ngens)))
                _, image = module.act(r, (d, v))
                if any(image) and image not in gens.get(out_deg, []):
                    gens.setdefault(out_deg, []).append(image)
                    queue.append((out_deg, image))
    return gens


def _random_quotient(module: GradedModule, rng: random.Random):
    degs = sorted(module.components)
    if not degs:
        return module
    d = rng.choice(degs)
    comp = module.components[d]
    vec = tuple(rng.randrange(comp.n) for _ in range(comp.ngens))
    vec = comp.reduce(vec)
    if not any(vec):
        return module
    sub, incl = graded_submodule(module, _saturate(module, {d: [vec]}))
    coker, _ = graded_cokernel(incl)
    return coker


def random_morphism(source: GradedModule, target: GradedModule,
                    rng: random.Random) -> GradedMorphism:
    """A uniformly random degree-zero morphism, via Hom(M, N)_0."""
    ring = source.ring
    deg = hom_degree(GradedRingHom.identity(ring), source, target,
                     ring.group.zero())
    comp = deg.sq.module
    if not comp.ngens:
        return GradedMorphism.zero(source, target)
    coords = comp.reduce(tuple(rng.randrange(comp.n)
                               for _ in range(comp.ngens)))
    return GradedMorphism(source, target, deg.matrices(coords),
                          validate=False)


def random_endo_pair(ring: GradedRing, rng: random.Random):
    """(module, module', random morphism between them)."""
    m = random_module(ring, rng)
    n = random_module(ring, rng)
    return m, n, random_morphism(m, n, rng)
