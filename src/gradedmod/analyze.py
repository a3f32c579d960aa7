"""Decision procedures for graded modules, morphisms, and ring morphisms.

Every predicate is decided exactly.  Positive verdicts carry witnesses
(section matrices, shift degrees, explicit isomorphisms); negative verdicts
carry counterexamples (kernel elements, missed cosets).  The ring-level
procedures implement the epimorphism criterion (multiplication map
S (x)_R S -> S bijective), its battery of equivalent statements, its
stability under coarsening, and the Morita-type comparison of scalar
extension with coextension.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .abelian import GroupEpi
from .graded import (GradedError, GradedModule, GradedMorphism,
                     GradedRingHom, _unit_vec, coarsen_ring_hom, free_module,
                     ring_as_module, shift)
from .functors import (_block_layout, _block_matrices, _flat_vector, coextend,
                       hom_degree, restrict)
from .znlinalg import (howell, identity_matrix, mat_mul, preimage_gens,
                       solve_row, solve_rows, span_contains)
from . import canonical


class AnalyzeError(GradedError):
    pass


class InconsistentBattery(AnalyzeError):
    """The battery's statements disagreed; this signals a bug, never math."""


class IsoSearchExhausted(AnalyzeError):
    """The isomorphism search ran out of budget before deciding."""


@dataclass
class AnalysisReport:
    """Decided flags plus their witnesses or counterexamples."""

    subject: str
    flags: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)


@dataclass
class EpiBatteryReport:
    """Verdicts for the seven equivalent epimorphism statements."""

    decisive: bool
    verdicts: dict = field(default_factory=dict)


def is_mono(u: GradedMorphism):
    """(verdict, witness): witness is a nonzero kernel element if not mono.

    Decided degreewise in sorted order, without building the kernel
    module: the kernel generators of u_d with the source relations, in
    Howell form, give the first row that is nonzero modulo the relations.
    That is the first basis row of `graded_kernel(u)` in that degree.
    """
    for deg in sorted(u.source.components):
        sc = u.source.components[deg]
        tc = u.target.component(deg)
        gens = preimage_gens(u.matrix(deg), tc.rels, tc.ngens, sc.n)
        for row in howell(list(gens) + list(sc.rels), sc.ngens, sc.n):
            vec = sc.reduce(row)
            if any(vec):
                return False, (deg, vec)
    return True, None


def is_epi(u: GradedMorphism):
    """(verdict, witness): witness is a target element missed if not epi."""
    for deg in sorted(u.target.components):
        tc = u.target.components[deg]
        rows = list(u.matrix(deg)) + list(tc.rels)
        h = howell(rows, tc.ngens, tc.n)
        for i in range(tc.ngens):
            e = _unit_vec(tc.ngens, i)
            if any(tc.reduce(e)) and not span_contains(e, h, tc.n):
                return False, (deg, e)
    return True, None


def is_iso(u: GradedMorphism):
    mono, w1 = is_mono(u)
    if not mono:
        return False, w1
    epi, w2 = is_epi(u)
    if not epi:
        return False, w2
    return True, None


def _hom_back(u: GradedMorphism):
    """Hom(N, M)_0 for u: M -> N, as the (blocks, sq) of `hom_degree`."""
    ring = u.source.ring
    blocks, _, sq = hom_degree(GradedRingHom.identity(ring), u.target,
                               u.source, ring.group.zero())
    return blocks, sq


def _one_sided_inverse(u: GradedMorphism, side: str, back):
    """(verdict, v) for v: N -> M with v.u = id (side='left') or u.v = id.

    v ranges over `back`, the presentation of Hom(N, M)_0 from `_hom_back`,
    so every candidate is well defined and R-linear.  The composite is
    linear in v: each presentation generator w_k gives one row, its
    composite w.u (left) or u.w (right) flattened over the block layout of
    End(E)_0, where E is M (left) or N (right).  Below those rows sit the
    relation rows of E, since the composite need only equal the identity
    modulo the relations of E.  One `solve_row` against the flattened
    identity decides, and the first coefficients c_k of a solution give
    v = sum_k c_k w_k, checked to be a one-sided inverse.
    """
    ring = u.source.ring
    n = ring.n
    blocks, sq = back
    gens = sq.gens if sq is not None else ()
    end = u.source if side == "left" else u.target
    end_blocks, end_dim, end_rels = _block_layout(end, end, ring.group.zero())
    rows = []
    for w in gens:
        composite = {}
        for a, wa in _block_matrices(blocks, w).items():
            ua = u.matrix(a)
            composite[a] = (mat_mul(ua, wa, n) if side == "left"
                            else mat_mul(wa, ua, n))
        rows.append(_flat_vector(end_blocks, end_dim, composite))
    ident = _flat_vector(end_blocks, end_dim,
                         {a: identity_matrix(k) for (a, k, _, _) in end_blocks})
    sol = solve_row(rows + end_rels, ident, end_dim, n)
    if sol is None:
        return False, None
    mats = {} if sq is None else _block_matrices(blocks,
                                                 sq.lift(sol[:len(gens)]))
    v = GradedMorphism(u.target, u.source, mats)
    composite = v.compose(u) if side == "left" else u.compose(v)
    if composite != GradedMorphism.identity(end):
        what = "section" if side == "left" else "retraction"
        raise AnalyzeError(f"{what} solver returned a non-inverse")
    return True, v


def is_section(u: GradedMorphism):
    """(verdict, witness): witness is v with v.u = id when one exists."""
    return _one_sided_inverse(u, "left", _hom_back(u))


def is_retraction(u: GradedMorphism):
    """(verdict, witness): witness is v with u.v = id when one exists."""
    return _one_sided_inverse(u, "right", _hom_back(u))


def is_pure(u: GradedMorphism) -> bool:
    """Pure := mono and section.

    Every cokernel in this universe is finitely presented; a pure
    monomorphism with finitely presented cokernel splits, and every section
    is pure, so the two notions coincide here.
    """
    return is_mono(u)[0] and is_section(u)[0]


DEFAULT_ISO_BUDGET = 200000


def iso_search(m: GradedModule, n_mod: GradedModule,
               budget: int = DEFAULT_ISO_BUDGET):
    """A degree-respecting isomorphism m -> n_mod, or None if none exists.

    The candidates are the elements of Hom_R(m, n_mod)_0, the degree-zero
    component of the graded Hom module, enumerated from its presentation.
    Each is a morphism by construction and is accepted when it is
    bijective.  Modules with different nonzero supports or component
    cardinalities are rejected first.  The budget counts Hom elements;
    IsoSearchExhausted is raised when it runs out before a decision.
    """
    if m.ring != n_mod.ring:
        return None
    degs = _nonzero_support(m)
    if degs != _nonzero_support(n_mod):
        return None
    for d in degs:
        if m.components[d].cardinality() != n_mod.components[d].cardinality():
            return None
    if m == n_mod:
        return GradedMorphism.identity(m)
    if not degs:  # both modules are zero
        return GradedMorphism.zero(m, n_mod)
    ring = m.ring
    blocks, _, sq = hom_degree(GradedRingHom.identity(ring), m, n_mod,
                               ring.group.zero())
    for tried, coords in enumerate(sq.module.elements(), 1):
        if tried > budget:
            raise IsoSearchExhausted(
                f"undecided within budget {budget}: no isomorphism among "
                f"the first {budget} elements of Hom(M, N)_0")
        u = GradedMorphism(m, n_mod, _block_matrices(blocks, sq.lift(coords)))
        if is_iso(u)[0]:
            return u
    return None


def _nonzero_support(module: GradedModule):
    """The sorted degrees whose component is a nonzero module.

    A component can be presented on generators and still be zero, as X^2 is
    in F_2[X]/(X^2) graded by Z/3; such a degree is not part of the support
    that two isomorphic modules must share.
    """
    return sorted(d for d, c in module.components.items() if not c.is_zero)


def _cardinality(ring) -> int:
    return math.prod(c.cardinality() for c in ring.components.values())


def _unit_degrees(ring):
    """The degrees of the homogeneous units of a *local ring: those d with
    m_d short of R_d, whose Howell form is then not the identity (Howell
    forms are unique).  They form a subgroup U, and R(-d) ~ R(-d-u) for u
    in U, by multiplication with a unit of degree u."""
    m = ring.nilpotent_ideal
    return {d for d, c in ring.components.items()
            if m[d] != identity_matrix(c.ngens)}


def _free_by_count(module: GradedModule) -> bool:
    """Whether a module over a *local ring is free, by graded Nakayama.

    The cover F = (+)_i R(-d_i) on the s minimal generators x_i of
    degrees d_i maps onto M, so M is free iff |F| = |R|^s = |M|: a
    surjection between finite sets of equal size is a bijection, and a
    free M has a basis of s elements, as every minimal generating set has
    s elements.
    """
    return (_cardinality(module.ring) ** len(module.minimal_generators)
            == module.cardinality())


def _local_free_shifts(module: GradedModule):
    """`is_free` over a *local ring.

    The degree multiset of a minimal generating set is an invariant up to
    the unit degrees U, and R(-d) ~ R(-e) iff d - e lies in U.  The shifts
    returned are those of the sorted multiset that picks, for each d_i,
    the least degree of the nonzero support in d_i + U: the first
    isomorphic candidate in `combinations_with_replacement` order over the
    sorted support, as the search over candidates on other rings finds.
    """
    if not _free_by_count(module):
        return None
    grp = module.ring.group
    units = _unit_degrees(module.ring)
    supp = _nonzero_support(module)
    least = [next(e for e in supp if grp.sub(e, d) in units)
             for d, _ in module.minimal_generators]
    return [grp.neg(e) for e in sorted(least)]


def is_free(module: GradedModule, budget: int = DEFAULT_ISO_BUDGET):
    """Shift degrees (g_1..g_k) with module ~ (+)_i R(g_i), or None.

    Over a *local ring this counts (`_local_free_shifts`) and `budget` is
    not used.  Otherwise candidate generator degrees come from the
    support; a candidate multiset survives only if every component
    cardinality matches, after which iso_search looks for an isomorphism
    among the elements of Hom((+)_i R(g_i), module)_0, at most `budget` of
    them per candidate.
    """
    ring = module.ring
    if module.is_zero:
        return []
    if ring.is_local:
        return _local_free_shifts(module)
    supp = _nonzero_support(module)
    max_gens = sum(c.ngens for c in module.components.values())
    for k in range(1, max_gens + 1):
        for gens in itertools.combinations_with_replacement(supp, k):
            shifts = [ring.group.neg(a) for a in gens]
            cand = free_module(ring, shifts)
            if _nonzero_support(cand) != supp:
                continue
            if any(cand.components[d].cardinality()
                   != module.components[d].cardinality() for d in supp):
                continue
            if iso_search(cand, module, budget) is not None:
                return list(shifts)
    return None


def finite_presentation(module: GradedModule):
    """The explicit presentation record; always available here."""
    return {d: (c.ngens, len(c.rels)) for d, c in module.components.items()}


def free_cover(module: GradedModule):
    """The canonical epimorphism from a free module onto the module."""
    ring = module.ring
    shifts = []
    for d in sorted(module.components):
        shifts.extend([ring.group.neg(d)] * module.components[d].ngens)
    cover = free_module(ring, shifts)
    # row order of the cover's degree-d component: one block per generator
    # (in sorted degree order), each block listing the ring component's
    # generators at the complementary degree; map each row through the action
    maps = {}
    for d in sorted(set(cover.components) | set(module.components)):
        cov = cover.component(d)
        comp = module.component(d)
        if not cov.ngens:
            continue
        rows = []
        gen_list = []
        for dd in sorted(module.components):
            for i in range(module.components[dd].ngens):
                gen_list.append((dd, i))
        for (dd, i) in gen_list:
            g = ring.group.neg(dd)
            rc = ring.component(ring.group.add(g, d))
            for p in range(rc.ngens):
                # ring element of degree g+d acting on generator (dd, i)
                r = (ring.group.add(g, d), _unit_vec(rc.ngens, p))
                x = (dd, _unit_vec(module.components[dd].ngens, i))
                rows.append(module.act(r, x)[1])
        maps[d] = tuple(rows)
    return GradedMorphism(cover, module, maps)


def _minimal_cover(module: GradedModule) -> GradedMorphism:
    """The cover (+)_i R(-d_i) -> M, 1 in summand i -> x_i, on the minimal
    generators x_i of a module over a *local ring.

    Summand i of the cover at degree d is R_{d-d_i}, so the row of its
    generator r is r x_i, the stored row of the action tensor at
    (d - d_i, d_i) for the unit vector x_i.
    """
    ring = module.ring
    grp = ring.group
    gens = module.minimal_generators
    cover = free_module(ring, [grp.neg(d) for d, _ in gens])
    maps = {}
    for d, comp in module.components.items():
        rows = []
        for dx, x in gens:
            c = grp.sub(d, dx)
            t = module.action.get((c, dx))
            j = x.index(1)
            rows += [t[p][j] if t is not None else comp.zero()
                     for p in range(ring.component(c).ngens)]
        if rows:
            maps[d] = rows
    return GradedMorphism(cover, module, maps, validate=False)


def _cover_inverse(p: GradedMorphism) -> GradedMorphism:
    """The inverse v of a bijective cover p: F -> M, checked: p.v = id.

    At each degree, row j of v solves x p_d = e_j modulo the relations of
    M_d; with p onto and |F| = |M| the solution is unique in F_d.
    """
    module, cover = p.target, p.source
    n = module.ring.n
    maps = {}
    for d, comp in module.components.items():
        fc = cover.component(d)
        rows = list(p.matrix(d)) + list(comp.rels)
        sols = solve_rows(rows, identity_matrix(comp.ngens), comp.ngens, n)
        if None in sols:
            raise AnalyzeError("the minimal cover is not onto")
        maps[d] = [fc.reduce(x[:fc.ngens]) for x in sols]
    v = GradedMorphism(module, cover, maps, validate=False)
    if p.compose(v) != GradedMorphism.identity(module):
        raise AnalyzeError("the minimal cover has no inverse")
    return v


def is_projective(module: GradedModule):
    """(verdict, witness): witness is a splitting of a free cover.

    Over a *local ring a projective module is free (graded Nakayama), so
    the verdict is that of `is_free`, and the witness is the inverse of
    the minimal cover (`_minimal_cover`), checked to compose with it to
    the identity.  Otherwise the witness is a right inverse of
    `free_cover`, solved for by `is_retraction`.
    """
    if module.is_zero:
        return True, None
    if module.ring.is_local:
        if not _free_by_count(module):
            return False, None
        return True, _cover_inverse(_minimal_cover(module))
    p = free_cover(module)
    ok, v = is_retraction(p)
    return (True, v) if ok else (False, None)


def is_flat(module: GradedModule) -> bool:
    """Flat coincides with projective for finitely presented modules."""
    return is_projective(module)[0]


def is_small(module: GradedModule) -> bool:
    """Finite type implies small; every module here is of finite type."""
    return True


def analyze_morphism(u: GradedMorphism, subject: str = "morphism"):
    mono, wm = is_mono(u)
    epi, we = is_epi(u)
    back = _hom_back(u)  # one presentation serves both one-sided inverses
    sec, ws = _one_sided_inverse(u, "left", back)
    ret, wr = _one_sided_inverse(u, "right", back)
    report = AnalysisReport(subject)
    report.flags = {
        "is_epi": epi,
        "is_iso": mono and epi,
        "is_mono": mono,
        "is_pure": mono and sec,
        "is_retraction": ret,
        "is_section": sec,
    }
    report.witnesses = {
        "kernel_element": wm,
        "missed_element": we,
        "retraction_witness": wr,
        "section_witness": ws,
    }
    return report


def analyze_module(module: GradedModule, subject: str = "module",
                   budget: int = DEFAULT_ISO_BUDGET):
    free = is_free(module, budget)
    proj, wp = is_projective(module)
    report = AnalysisReport(subject)
    report.flags = {
        "is_finite_presentation": True,
        "is_finite_type": True,
        "is_flat": proj,
        "is_free": free is not None,
        "is_projective": proj,
        "is_small": True,
    }
    report.witnesses = {
        "free_shifts": free,
        "presentation": finite_presentation(module),
        "splitting": wp,
    }
    return report


def is_ring_epimorphism(h: GradedRingHom) -> bool:
    """The multiplication map S (x)_R S -> S is an isomorphism iff h is an
    epimorphism of graded rings."""
    sig = canonical.sigma(h, ring_as_module(h.target))
    return is_iso(sig.morphism)[0]


def d70_battery(h: GradedRingHom, family) -> EpiBatteryReport:
    """Evaluate all seven equivalent epimorphism statements on a family.

    The family must contain S and its support shifts; statement (ii) is the
    exact decision and (iii)-(vii) are checked on the family.  Any
    divergence is an implementation bug, reported as InconsistentBattery.
    Each instance, a canonical map on family members, is decided once, on
    first use: (ii) and (iii) share sigma at S, and (vii) is row S of the
    eta table of (vi).  Each member N is restricted once, and every
    instance is built on that h_*(N).
    """
    family = list(family)
    group = h.target.group
    s_mod = ring_as_module(h.target)
    for g in sorted(h.target.components):
        wanted = shift(s_mod, group.neg(g))
        at = next((i for i, m in enumerate(family) if m == wanted), None)
        if at is None:
            raise AnalyzeError(
                "battery family must contain S and all its support shifts")
        if g == group.zero():
            s_at = at
    restricted = [restrict(h, m) for m in family]
    decided = {}

    def iso(fn, *at):
        """Whether the builder fn on the family members at `at`, given
        their restrictions, is an isomorphism."""
        if (fn, at) not in decided:
            mods = [family[i] for i in at] + [restricted[i] for i in at]
            decided[(fn, at)] = is_iso(fn(h, *mods).morphism)[0]
        return decided[(fn, at)]

    members = range(len(family))
    pairs = list(itertools.product(members, repeat=2))
    decisive = iso(canonical._sigma, s_at)
    verdicts = {"i": decisive, "ii": decisive}
    verdicts["iii"] = all(iso(canonical._sigma, i) for i in members)
    verdicts["iv"] = all(iso(canonical._rho_tilde, i) for i in members)
    verdicts["v"] = all(iso(canonical._gamma, i, j) for i, j in pairs)
    verdicts["vi"] = all(iso(canonical._eta, i, j) for i, j in pairs)
    verdicts["vii"] = all(iso(canonical._eta, s_at, j) for j in members)
    if len(set(verdicts.values())) > 1:
        raise InconsistentBattery(f"verdicts diverge: {verdicts}")
    return EpiBatteryReport(decisive, verdicts)


def d80_check(h: GradedRingHom, psi: GroupEpi):
    """(h epi?, coarsened h epi?); the contract is that these agree."""
    return (is_ring_epimorphism(h),
            is_ring_epimorphism(coarsen_ring_hom(h, psi)))


def morita_check(h: GradedRingHom, budget: int = DEFAULT_ISO_BUDGET) -> bool:
    """Extension and coextension agree iff h_*(S) is projective of finite
    type and coextend(h, R) is isomorphic to S.

    Over a *local R, h_*(S) is projective iff it is free, which
    `_free_by_count` decides.  Over a *local S, coextend(h, R) ~ S
    iff coextend(h, R) has one minimal generator, in a degree d of a
    homogeneous unit of S, and |coextend(h, R)| = |S|: the cover
    S(-d) ~ S onto it is then a bijection, and conversely the generator
    of S sits in degree 0, so that of any module isomorphic to S sits in
    a unit degree.  On a ring that is not *local, `is_projective` decides
    the first question, and iso_search the second among the elements of
    Hom_S(coextend(h, R), S)_0, at most `budget` of them.
    """
    hs = restrict(h, ring_as_module(h.target))
    projective = (_free_by_count(hs) if h.source.is_local
                  else is_projective(hs)[0])
    if not projective:
        return False
    hr = coextend(h, ring_as_module(h.source)).module
    if h.target.is_local:
        gens = hr.minimal_generators
        return (len(gens) == 1 and gens[0][0] in _unit_degrees(h.target)
                and hr.cardinality() == _cardinality(h.target))
    return iso_search(hr, ring_as_module(h.target), budget) is not None
