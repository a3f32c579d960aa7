"""Decision procedures for graded modules, morphisms, and ring morphisms.

Every predicate is decided exactly.  Positive verdicts carry witnesses
(section matrices, shift degrees, explicit isomorphisms); negative verdicts
carry counterexamples (kernel elements, missed cosets).  The ring-level
procedures decide epimorphisms of graded rings by surjectivity in every
degree: by the paper's criterion (the multiplication map S (x)_R S -> S
bijective) and its stability under coarsening, h is one iff the
underlying ring map is, and a finite epimorphism of commutative rings is
surjective (the Stacks Project, Algebra, "Epimorphisms of rings";
Seminaire Samuel 1967-68).  They also give the battery of equivalent
statements, which still decides the criterion by sigma, the coarsening
check, and the Morita-type comparison of scalar extension with
coextension.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .abelian import GroupEpi
from .graded import (GradedError, GradedModule, GradedMorphism,
                     GradedRingHom, RingMismatch, _unit_vec, apply_tensor,
                     coarsen_ring_hom, free_module, ring_as_module, shift)
from .functors import (HomDegree, coextend, extend, hom_degree, hom_graded,
                       restrict, restrict_witness, tensor)
from .znlinalg import (FpZnModule, howell, identity_matrix, mat_mul,
                       preimage_gens, solve_row, solve_rows, vec_mat)
from . import canonical


class AnalyzeError(GradedError):
    pass


class InconsistentBattery(AnalyzeError):
    """The battery's statements disagreed; this signals a bug, never math."""


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
    """(verdict, witness): witness is a target element missed if not epi,
    the first one `first_missed` finds."""
    missed = u.first_missed()
    return missed is None, missed


def is_iso(u: GradedMorphism):
    """(verdict, witness): the witness of a non-isomorphism is that of
    `is_mono` if u is not mono, else that of `is_epi`.

    A surjection between finite modules of equal order is a bijection, so
    when |source| = |target| and u is epi, u is an isomorphism and no
    kernel is computed.  Otherwise mono is tested first, as the witness
    asks; at equal orders a u that is not epi is not mono either, so
    that test fails and gives the witness.
    """
    if (u.source.cardinality() == u.target.cardinality()
            and is_epi(u)[0]):
        return True, None
    mono, w1 = is_mono(u)
    if not mono:
        return False, w1
    epi, w2 = is_epi(u)
    if not epi:
        return False, w2
    return True, None


def _hom_back(u: GradedMorphism):
    """Hom(N, M)_0 for u: M -> N, as a solved `HomDegree`."""
    ring = u.source.ring
    return hom_degree(GradedRingHom.identity(ring), u.target, u.source,
                      ring.group.zero())


def _one_sided_inverse(u: GradedMorphism, side: str, back):
    """(verdict, v) for v: N -> M with v.u = id (side='left') or u.v = id.

    v ranges over `back`, the presentation of Hom(N, M)_0 from `_hom_back`,
    so every candidate is well defined and R-linear.  The composite is
    linear in v: each presentation generator w_k gives one row, its
    composite w.u (left) or u.w (right) flattened by the layout of
    End(E)_0, where E is M (left) or N (right).  Below those rows sit the
    relation rows of that layout, since the composite need only equal the
    identity modulo the relations of E.  One `solve_row` against the
    flattened identity decides, and the first coefficients c_k of a
    solution give v = sum_k c_k w_k, checked to be a one-sided inverse.
    A combination of the w_k is a morphism by construction, so v is
    built without a second axiom check; the composite check stays.
    """
    ring = u.source.ring
    n = ring.n
    gens = back.sq.gens
    end = u.source if side == "left" else u.target
    end_deg = HomDegree(end, end, ring.group.zero())
    rows = []
    for w in gens:
        composite = {}
        for a, wa in back.unflatten(w).items():
            ua = u.matrix(a)
            composite[a] = (mat_mul(ua, wa, n) if side == "left"
                            else mat_mul(wa, ua, n))
        rows.append(end_deg.flatten(composite))
    ident = end_deg.flatten({a: identity_matrix(k)
                             for (a, k, _, _) in end_deg.blocks})
    sol = solve_row(rows + end_deg.rels, ident, end_deg.dim, n)
    if sol is None:
        return False, None
    v = GradedMorphism(u.target, u.source, back.matrices(sol[:len(gens)]),
                       validate=False)
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


def _nonzero_support(module: GradedModule):
    """The sorted degrees whose component is a nonzero module.

    A component can be presented on generators and still be zero, as X^2 is
    in F_2[X]/(X^2) graded by Z/3; such a degree is not part of the support
    that two isomorphic modules must share.
    """
    return sorted(d for d, c in module.components.items() if not c.is_zero)


def _cardinality(ring) -> int:
    return math.prod(c.cardinality() for c in ring.components.values())


def _factor_orders(ring):
    """|eR| for each factor e of the ring: |eR_d| = |R_d/(1 - e)R_d|."""
    zero = ring.group.zero()
    orders = []
    for e, _ in ring.factors:
        if e == ring.one:
            orders.append(_cardinality(ring))
            continue
        order = 1
        for d, c in ring.components.items():
            t = ring.mult.get((zero, d))
            units = [_unit_vec(c.ngens, j) for j in range(c.ngens)]
            rest = [[u - v for u, v in zip(x, apply_tensor(t, e, x, c))]
                    for x in units]
            order *= FpZnModule(ring.n, c.ngens, c.rels + tuple(rest)) \
                .cardinality()
        orders.append(order)
    return orders


def _unit_degrees(ring):
    """Per factor e of the ring, the degrees of the homogeneous units of
    eR: those d with (J_e)_d short of R_d, whose Howell form is then not
    the identity (Howell forms are unique).  They form a subgroup U_e,
    and eR(-d) ~ eR(-d-u) for u in U_e, by multiplication with a unit of
    degree u."""
    return tuple({d for d, c in ring.components.items()
                  if ideal[d] != identity_matrix(c.ngens)}
                 for ideal in ring.nilpotent_ideals)


def _projective_by_count(module: GradedModule) -> bool:
    """Whether a module is projective, by graded Nakayama on each factor.

    M is projective iff every eM is projective over the *local eR, iff
    every eM is free.  The cover (+)_i eR(-d_i) on the s_e minimal
    generators e x_i of degrees d_i maps onto eM, so eM is free iff
    |eR|^(s_e) = |eM|: a surjection between finite sets of equal size is
    a bijection, and a free eM has a basis of s_e elements, as every
    minimal generating set has s_e elements.  As |eR|^(s_e) >= |eM| for
    every e, and |M| is the product of the |eM|, M is projective iff
    prod_e |eR|^(s_e) = |M|.
    """
    return math.prod(order ** len(gens) for order, gens in zip(
        _factor_orders(module.ring), module.minimal_generators)) \
        == module.cardinality()


def is_free(module: GradedModule):
    """Shift degrees (g_1..g_k) with module ~ (+)_i R(g_i), or None.

    M is free iff it is projective (`_projective_by_count`), every factor
    e of the ring has the same number s of minimal generators, and one
    multiset of degrees a_1..a_s matches the generator degrees d of every
    factor up to its unit degrees U_e: then eM ~ (+)_i eR(-a_i) for each
    e, and their sum is (+)_i R(-a_i); conversely a basis of M gives each
    factor such generators.  The shifts returned are those of the sorted
    multiset that comes first in `combinations_with_replacement` order
    over the sorted nonzero support, which holds every a_i: the first
    isomorphic candidate of a search over free modules.  A depth-first
    walk over the support finds it; on a *local ring it takes, for each
    d, the least support degree in d + U.  The walk stops as soon as it
    has passed the last support degree in d + U_e of a generator degree
    d still unmatched, which no later degree can match.
    """
    gens = module.minimal_generators
    if len({len(g) for g in gens}) > 1 or not _projective_by_count(module):
        return None
    grp = module.ring.group
    supp = _nonzero_support(module)
    units = _unit_degrees(module.ring)
    # per factor, the generator degrees d to match, each with the index of
    # the last support degree in d + U_e (-1 if none)
    left = [[(d, max((i for i, a in enumerate(supp) if grp.sub(a, d) in u),
                     default=-1)) for d, _ in g]
            for g, u in zip(gens, units)]

    def walk(start, picked):
        if len(picked) == len(gens[0]):
            return picked
        for at in range(start, len(supp)):
            if any(last < at for ds in left for _, last in ds):
                return None
            a = supp[at]
            hits = [next((i for i, (d, _) in enumerate(ds)
                          if grp.sub(a, d) in u), None)
                    for ds, u in zip(left, units)]
            if None in hits:
                continue
            taken = [ds.pop(i) for ds, i in zip(left, hits)]
            found = walk(at, picked + [a])
            if found is not None:
                return found
            for ds, i, d in zip(left, hits, taken):
                ds.insert(i, d)
        return None

    found = walk(0, [])
    return None if found is None else [grp.neg(a) for a in found]


def _cover_generators(module: GradedModule):
    """(e, deg, x) for the minimal generators x of every factor e of the
    ring, factor by factor."""
    return [(e, d, x) for (e, _), gens in zip(module.ring.factors,
                                              module.minimal_generators)
            for d, x in gens]


def _minimal_cover(module: GradedModule) -> GradedMorphism:
    """The cover (+)_i R(-d_i) -> M, 1 in summand i -> e x_i, on the
    minimal generators x_i of degree d_i of each factor e of the ring.

    Summand i of the cover at degree d is R_{d-d_i}, so the row of its
    generator r is r e x_i.  For e = 1 that is r x_i, the stored row of
    the action tensor at (d - d_i, d_i) for the unit vector x_i.
    """
    ring = module.ring
    grp, n = ring.group, ring.n
    gens = _cover_generators(module)
    cover = free_module(ring, [grp.neg(d) for _, d, _ in gens])
    maps = {}
    for d, comp in module.components.items():
        rows = []
        for e, dx, x in gens:
            c = grp.sub(d, dx)
            t = module.action.get((c, dx))
            k = ring.component(c).ngens
            if t is None:
                rows += [comp.zero()] * k
            elif e == ring.one:
                j = x.index(1)
                rows += [t[p][j] for p in range(k)]
            else:
                ex = module.act((grp.zero(), e), (dx, x))[1]
                rows += [vec_mat(ex, t[p], n) for p in range(k)]
        if rows:
            maps[d] = rows
    return GradedMorphism(cover, module, maps, validate=False)


def _cover_section(p: GradedMorphism) -> GradedMorphism:
    """A section v of the minimal cover p: F -> M of a projective M,
    checked: p.v = id.

    Let E be the sum of the parts eR(-d_i) of the summands of F, each
    for the factor e of its generator.  p vanishes off E, and maps E onto
    M bijectively, as M is the sum of the free eM.  At each degree, row j
    of v solves x p_d = e_j modulo the relations of M_d, and the part of
    x in E, each summand's block multiplied by its e, is the unique
    solution in E; on a *local ring E = F.
    """
    module, cover = p.target, p.source
    ring = module.ring
    grp, zero = ring.group, ring.group.zero()
    gens = _cover_generators(module)

    def part_in_e(d, x):
        out = []
        for e, dx, _ in gens:
            c = grp.sub(d, dx)
            rc = ring.component(c)
            block, x = x[:rc.ngens], x[rc.ngens:]
            out += block if e == ring.one else apply_tensor(
                ring.mult.get((zero, c)), e, block, rc)
        return out

    maps = {}
    for d, comp in module.components.items():
        fc = cover.component(d)
        rows = list(p.matrix(d)) + list(comp.rels)
        sols = solve_rows(rows, identity_matrix(comp.ngens), comp.ngens,
                          ring.n)
        if None in sols:
            raise AnalyzeError("the minimal cover is not onto")
        maps[d] = [part_in_e(d, x[:fc.ngens]) for x in sols]
    v = GradedMorphism(module, cover, maps, validate=False)
    if p.compose(v) != GradedMorphism.identity(module):
        raise AnalyzeError("the minimal cover has no section")
    return v


def is_projective(module: GradedModule):
    """(verdict, witness): witness is a section of the minimal cover.

    A module is projective iff each factor eM is free over the *local eR
    (graded Nakayama), which `_projective_by_count` decides.  The witness
    is a section v of the minimal cover p (`_minimal_cover`, on the
    minimal generators of every factor), checked by p.v = id; on a
    *local ring it is the inverse of p.
    """
    if module.is_zero:
        return True, None
    if not _projective_by_count(module):
        return False, None
    return True, _cover_section(_minimal_cover(module))


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


def analyze_module(module: GradedModule, subject: str = "module"):
    free = is_free(module)
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
        "presentation": {d: (c.ngens, len(c.rels))
                         for d, c in module.components.items()},
        "splitting": wp,
    }
    return report


def is_ring_epimorphism(h: GradedRingHom) -> bool:
    """Whether h: R -> S is an epimorphism of graded rings: iff every h_d
    is onto, decided degreewise by `first_missed`.  No module is built.

    By the paper's criterion h is an epimorphism iff the multiplication
    map sigma: S (x)_R S -> S is bijective.  Coarsening to the trivial
    group commutes with the tensor product, so h is an epimorphism of
    graded rings iff the underlying ring map is an epimorphism of rings.
    S is finite over R, and a finite epimorphism of commutative rings is
    surjective (the Stacks Project, Algebra, "Epimorphisms of rings";
    Seminaire Samuel 1967-68, *Les epimorphismes d'anneaux*): with
    C = coker h, tensoring R -> S -> C -> 0 with S over R gives
    S (x)_R C = 0, as S (x)_R S -> S is bijective.  At a maximal ideal m
    of R, with k = R/m, (S/mS) (x)_k (C/mC) = 0, so by Nakayama S_m = 0
    or C_m = 0; C_m = 0 in both cases, as C is a quotient of S, and
    C = 0.  Conversely every surjection is an epimorphism.

    The proof uses commutativity of R and S (localization, and S (x)_R C
    as a base change), which ring validation enforces.  `d70_battery`
    still decides statement (ii) by sigma, so any divergence between this
    theorem and the tensor code is raised there.
    """
    return h.first_missed() is None


def d70_battery(h: GradedRingHom, family) -> EpiBatteryReport:
    """Evaluate all seven equivalent epimorphism statements on a family.

    The family must contain S and its support shifts S(-g).  Statement
    (i), the decisive verdict, is decided by surjectivity
    (`is_ring_epimorphism`); (ii) is sigma at S, and (iii)-(vii) are
    checked on the family.  Any divergence is an implementation bug,
    reported as InconsistentBattery.

    Each instance, a canonical map on family members, is decided once
    per shift orbit of S.  h_*, h^* and coextension commute with shifts,
    and M(a) (x) N(b) = (M (x) N)(a+b) and
    Hom(M(a), N(b)) = Hom(M, N)(b-a), by the canonical identifications.
    So sigma and rho_tilde at S(a) are their instances at S shifted by
    a, and gamma and eta at a pair with S(a) in either slot are their
    instances with S in that slot, shifted by a or -a.  A shifted
    morphism is an isomorphism iff the morphism is, so every member that
    is a support shift of S is decided at S's own index; other members
    stay pairwise.  (ii) and (iii) share sigma at S, and (vii) is row S
    of the eta table of (vi).  Every member is checked to live over S up
    front, so a member over another ring is refused even when the
    battery stops early.

    Every build is made once, when an instance first needs it, and
    shared: per member N, h_*(N), its extension h^*(h_*(N)) and its
    coextension coextend(h, h_*(N)).  sigma at N is built on that
    extension and rho_tilde on that coextension.  Restriction along h
    commutes with the mixed functors (`functors.restrict_witness`): the
    restricted extension is h_*(S) (x)_R h_*(N), the source of gamma at
    (S, N), and the restricted coextension is Hom_R(h_*(S), h_*(N)), the
    target of eta at (S, N).  So those instances solve no tensor and no
    Hom system of their own.
    """
    family = list(family)
    group = h.target.group
    s_mod = ring_as_module(h.target)
    shifts = {shift(s_mod, group.neg(g)) for g in h.target.components}
    if not shifts <= set(family):
        raise AnalyzeError(
            "battery family must contain S and all its support shifts")
    s_at = family.index(s_mod)
    rep = [s_at if m in shifts else i for i, m in enumerate(family)]
    if any(m.ring != h.target for m in family):
        raise RingMismatch("restriction expects a module over the target ring")
    @functools.cache
    def res(i):
        return restrict(h, family[i])

    @functools.cache
    def ext(i):
        return extend(h, res(i))

    @functools.cache
    def coext(i):
        return coextend(h, res(i))

    def gamma_source(i, j):
        if i == s_at:
            return restrict_witness(ext(j), res(i))
        return tensor(res(i), res(j))

    def eta_target(i, j):
        if i == s_at:
            return restrict_witness(coext(j), res(i))
        return hom_graded(res(i), res(j))

    shared = {canonical._sigma: ext, canonical._rho_tilde: coext,
              canonical._gamma: gamma_source, canonical._eta: eta_target}

    @functools.cache
    def decide(fn, at):
        return is_iso(fn(h, *[family[i] for i in at],
                         shared[fn](*at)).morphism)[0]

    def iso(fn, *at):
        """Whether the builder fn on the family members at `at`, given
        its shared build, is an isomorphism; members on the shift orbit
        of S stand for S."""
        return decide(fn, tuple(rep[i] for i in at))

    members = range(len(family))
    pairs = list(itertools.product(members, repeat=2))
    decisive = is_ring_epimorphism(h)
    verdicts = {"i": decisive, "ii": iso(canonical._sigma, s_at)}
    verdicts["iii"] = all(iso(canonical._sigma, i) for i in members)
    verdicts["iv"] = all(iso(canonical._rho_tilde, i) for i in members)
    verdicts["v"] = all(iso(canonical._gamma, i, j) for i, j in pairs)
    verdicts["vi"] = all(iso(canonical._eta, i, j) for i, j in pairs)
    verdicts["vii"] = all(iso(canonical._eta, s_at, j) for j in members)
    if len(set(verdicts.values())) > 1:
        raise InconsistentBattery(f"verdicts diverge: {verdicts}")
    return EpiBatteryReport(decisive, verdicts)


def d80_check(h: GradedRingHom, psi: GroupEpi):
    """(h epi?, coarsened h epi?); the contract is that these agree.

    Both sides are decided by surjectivity, so this checks that
    `coarsen_ring_hom` keeps every component of h onto or not onto.
    """
    return (is_ring_epimorphism(h),
            is_ring_epimorphism(coarsen_ring_hom(h, psi)))


def morita_check(h: GradedRingHom) -> bool:
    """Extension and coextension agree iff h_*(S) is projective of finite
    type and coextend(h, R) is isomorphic to S.

    `_projective_by_count` decides the first question.  coextend(h, R) ~ S
    iff for every factor e of S, e coextend(h, R) ~ eS, iff
    e coextend(h, R) has one minimal generator, in a degree d of a
    homogeneous unit of eS, and the orders agree: the cover eS(-d) ~ eS
    onto it is then a bijection, and conversely the generator of eS sits
    in degree 0, so that of any module isomorphic to eS sits in a unit
    degree.  With one such generator for every factor, the covers make
    |e coextend(h, R)| <= |eS| for each e, so |coextend(h, R)| = |S|
    decides the orders of all factors at once.
    """
    if not _projective_by_count(restrict(h, ring_as_module(h.target))):
        return False
    hr = coextend(h, ring_as_module(h.source)).module
    return (all(len(gens) == 1 and gens[0][0] in units for gens, units in
                zip(hr.minimal_generators, _unit_degrees(h.target)))
            and hr.cardinality() == _cardinality(h.target))
