"""Named instances and seeded random generators for tests and scenarios.

The named instances are the recurring examples: the quotient Z/4 -> Z/2,
the inclusion of F_2 into F_2[t]/(t^2) (graded by Z/2 with deg t = 1 and
ungraded), the truncated polynomial ring F_2[X]/(X^3) with its quotient by
(X^2) (ungraded, Z/3-graded, and Z-graded), and the coarsening maps between
their grading groups.  Every named ring but those of Z/4 -> Z/2 comes from
`graded.monomial_ring`, and every named quotient from
`graded.monomial_quotient`, on the standard monomial basis.  The random
generators draw modules from shifts, sums and quotients of the ring, up to
a bounded size, and morphisms uniformly from the presentation of
Hom(M, N)_0, so properties quantified over "all modules/morphisms" are
exercised on a reproducible sample.
"""

from __future__ import annotations

import random

from .abelian import GroupEpi, make_epi, make_group
from .graded import (GradedModule, GradedMorphism, GradedRing, GradedRingHom,
                     direct_sum, graded_cokernel, graded_submodule,
                     monomial_quotient, monomial_ring, ring_as_module, shift)
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


def _frobenius(group, degt):
    """F_2 -> F_2[t]/(t^2) over `group`, deg t = degt, and the epi onto 0."""
    r = monomial_ring(group, 2, [], [])
    s = monomial_ring(group, 2, [degt], [(2,)])
    return {"ring_r": r, "ring_s": s,
            "h": GradedRingHom(r, s, {group.zero(): (s.one,)}),
            "psi": make_epi(group, make_group([]), [[]] * len(group.moduli))}


def frobenius():
    """F_2 -> F_2[t]/(t^2), graded by Z/2 with deg t = 1 (n = 2)."""
    return _frobenius(make_group([2]), (1,))


def frobenius_ungraded():
    """F_2 -> F_2[t]/(t^2) with the trivial grading (n = 2).

    This is the Morita-positive instance: the algebra is self-dual as a
    module, so scalar extension and coextension coincide.  (With the
    nontrivial grading the self-duality acquires a shift and the two
    functors differ.)
    """
    return _frobenius(make_group([]), ())


def _truncated_quotient(group, degx):
    """F_2[X]/(X^3) ->> F_2[X]/(X^2) over `group`, deg X = degx, and the
    epi onto 0."""
    h = monomial_quotient(group, 2, [degx], [(3,)], [(2,)])
    return {"ring_r": h.source, "ring_s": h.target, "h": h,
            "psi": make_epi(group, make_group([]), [[]] * len(group.moduli))}


def d25e():
    """R = F_2[X]/(X^3) ->> R/(X^2), ungraded (n = 2)."""
    return _truncated_quotient(make_group([]), ())


def d25e_z3():
    """The d25e instance graded by Z/3 with deg X = 1 (n = 2)."""
    return _truncated_quotient(make_group([3]), (1,))


def zgraded_truncated():
    """F_2[X]/(X^3), Z-graded with deg X = 1, and psi: Z -> 0 (n = 2)."""
    g = make_group([0])
    r = monomial_ring(g, 2, [(1,)], [(3,)])
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
