"""Shared helpers for the test suite."""

import itertools
import math

from gradedmod import analyze, canonical
from gradedmod.abelian import make_group
from gradedmod.functors import (coextend, hom_degree, mixed_hom, mixed_tensor,
                                restrict)
from gradedmod.graded import (_MODULE_WORDS, _RING_WORDS, GradedError,
                              GradedModule, GradedMorphism, GradedRing,
                              GradedRingHom, _image, _maps_well_defined,
                              _product, _unit_vec, apply_tensor,
                              coarse_layout, coarsen_module, coarsen_ring,
                              coarsen_ring_hom, free_module, graded_kernel,
                              ring_as_module, shift, zero_component)
from gradedmod.znlinalg import FpZnModule, prune


def rebase(u: GradedMorphism, source, target) -> GradedMorphism:
    """The same matrices between different (componentwise equal) modules."""
    for d, c in u.source.components.items():
        assert source.component(d) == c, f"source mismatch at {d}"
    for d, c in u.target.components.items():
        assert target.component(d) == c, f"target mismatch at {d}"
    return GradedMorphism(source, target, dict(u.maps), validate=False)


def inverse_of(u: GradedMorphism) -> GradedMorphism:
    """Two-sided inverse of an isomorphism, verified."""
    ok, v = analyze.is_section(u)
    assert ok, "morphism is not even a section"
    assert u.compose(v) == GradedMorphism.identity(u.target)
    return v


def is_component_iso(u: GradedMorphism) -> bool:
    """Componentwise bijectivity, decided directly by linear algebra."""
    return analyze.is_iso(u)[0]


def is_component_epi(u: GradedMorphism) -> bool:
    return analyze.is_epi(u)[0]


def is_component_mono(u: GradedMorphism) -> bool:
    return analyze.is_mono(u)[0]


def reference_is_mono(u: GradedMorphism):
    """`analyze.is_mono` through the kernel module: (verdict, witness), the
    witness being the first basis generator of `graded_kernel(u)`, in
    sorted degree order, whose image under the inclusion is nonzero."""
    ker, incl = graded_kernel(u)
    for deg in sorted(ker.components):
        comp = ker.components[deg]
        for i in range(comp.ngens):
            _, vec = incl.apply((deg, _unit_vec(comp.ngens, i)))
            if any(vec):
                return False, (deg, vec)
    return True, None


def reference_is_iso(u: GradedMorphism):
    """`analyze.is_iso` without its shortcut at equal orders: mono first,
    with the kernel element as the witness, then epi, with the missed
    element."""
    mono, w1 = analyze.is_mono(u)
    if not mono:
        return False, w1
    epi, w2 = analyze.is_epi(u)
    if not epi:
        return False, w2
    return True, None


def reference_is_ring_epimorphism(h: GradedRingHom) -> bool:
    """`analyze.is_ring_epimorphism` by the paper's criterion: h is an
    epimorphism iff the multiplication map S (x)_R S -> S is bijective."""
    sig = canonical.sigma(h, ring_as_module(h.target))
    return analyze.is_iso(sig.morphism)[0]


def reference_d70_battery(h: GradedRingHom, family):
    """`analyze.d70_battery` with every instance built by the public
    builder of its map on its own family members: (iii) and (iv) at every
    member, and (v) and (vi) at every ordered pair, with no
    identification along the shift orbit of S and no build shared between
    instances.  An instance met twice is decided once, and each statement
    stops at its first false instance."""
    family = list(family)
    group = h.target.group
    s_mod = ring_as_module(h.target)
    for g in sorted(h.target.components):
        wanted = shift(s_mod, group.neg(g))
        at = next((i for i, m in enumerate(family) if m == wanted), None)
        if at is None:
            raise analyze.AnalyzeError(
                "battery family must contain S and all its support shifts")
        if g == group.zero():
            s_at = at
    decided = {}

    def iso(fn, *at):
        if (fn, at) not in decided:
            mods = [family[i] for i in at]
            decided[(fn, at)] = reference_is_iso(fn(h, *mods).morphism)[0]
        return decided[(fn, at)]

    members = range(len(family))
    pairs = list(itertools.product(members, repeat=2))
    decisive = analyze.is_ring_epimorphism(h)
    verdicts = {"i": decisive, "ii": iso(canonical.sigma, s_at)}
    verdicts["iii"] = all(iso(canonical.sigma, i) for i in members)
    verdicts["iv"] = all(iso(canonical.rho_tilde, i) for i in members)
    verdicts["v"] = all(iso(canonical.gamma, i, j) for i, j in pairs)
    verdicts["vi"] = all(iso(canonical.eta, i, j) for i, j in pairs)
    verdicts["vii"] = all(iso(canonical.eta, s_at, j) for j in members)
    if len(set(verdicts.values())) > 1:
        raise analyze.InconsistentBattery(f"verdicts diverge: {verdicts}")
    return analyze.EpiBatteryReport(decisive, verdicts)


# ---------------------------------------------------------------------------
# Howell forms by the xgcd step alone: the reference for `znlinalg.howell`
# and `row_kernel`


def _xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b)."""
    r0, r1, s0, s1, t0, t1 = a, b, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def _unit_scale(x, n):
    """A unit u mod n with u*x == gcd(x, n) (mod n), for x in [0, n)."""
    if x == 0:
        return 1
    d = math.gcd(x, n)
    c = x // d
    while math.gcd(c, n) != 1:
        c += n // d
    return pow(c, -1, n)


def reference_howell(rows, ncols, n):
    """`znlinalg.howell` with every pivot clash cleared by one xgcd step,
    every pivot scaled and every annihilator row formed."""
    pool = []
    for r in rows:
        rr = [v % n for v in r]
        assert len(rr) == ncols
        if any(rr):
            pool.append(rr)
    result, cols = [], []
    for j in range(ncols):
        pivot, rest = None, []
        for r in pool:
            if r[j] == 0:
                rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            a, b = pivot[j], r[j]
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
            pivot = [(u * x) % n for x in pivot]
            d = pivot[j]
            ann = [((n // d) * x) % n for x in pivot]
            if any(ann):
                rest.append(ann)
            result.append(pivot)
            cols.append(j)
        pool = rest
    # reduce entries above each pivot: each row against the rows below it
    for k in range(len(result) - 1):
        v = result[k]
        for row, j in zip(result[k + 1:], cols[k + 1:]):
            x = v[j]
            if x and x >= row[j]:
                q = x // row[j]
                v = [(a - q * b) % n for a, b in zip(v, row)]
        result[k] = v
    return tuple(tuple(r) for r in result)


def reference_row_kernel(rows, ncols, n):
    """`znlinalg.row_kernel` by the Howell form of [A | I]: the rows
    pivoting right of A, cut to the identity part."""
    k = len(rows)
    aug = reference_howell([tuple(r) + _unit_vec(k, i)
                            for i, r in enumerate(rows)], ncols + k, n)
    return reference_howell([r[ncols:] for r in aug if not any(r[:ncols])],
                            k, n)


# ---------------------------------------------------------------------------
# the search over candidates: references for `analyze.is_free`,
# `is_projective` and `morita_check` on any ring


class IsoSearchExhausted(Exception):
    """The isomorphism search ran out of budget before deciding."""


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
    degs = analyze._nonzero_support(m)
    if degs != analyze._nonzero_support(n_mod):
        return None
    for d in degs:
        if m.components[d].cardinality() != n_mod.components[d].cardinality():
            return None
    if m == n_mod:
        return GradedMorphism.identity(m)
    if not degs:  # both modules are zero
        return GradedMorphism.zero(m, n_mod)
    ring = m.ring
    deg = hom_degree(GradedRingHom.identity(ring), m, n_mod, ring.group.zero())
    for tried, coords in enumerate(deg.sq.module.elements(), 1):
        if tried > budget:
            raise IsoSearchExhausted(
                f"undecided within budget {budget}: no isomorphism among "
                f"the first {budget} elements of Hom(M, N)_0")
        u = GradedMorphism(m, n_mod, deg.matrices(coords))
        if analyze.is_iso(u)[0]:
            return u
    return None


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


def reference_is_free(module, budget=DEFAULT_ISO_BUDGET):
    """`analyze.is_free` by a search over candidates, on any ring: the
    first shift multiset, in `combinations_with_replacement` order over the
    sorted nonzero support, whose free module has the component orders of
    `module` and is isomorphic to it by `iso_search`."""
    ring = module.ring
    if module.is_zero:
        return []
    supp = analyze._nonzero_support(module)
    max_gens = sum(c.ngens for c in module.components.values())
    for k in range(1, max_gens + 1):
        for gens in itertools.combinations_with_replacement(supp, k):
            shifts = [ring.group.neg(a) for a in gens]
            cand = free_module(ring, shifts)
            if analyze._nonzero_support(cand) != supp:
                continue
            if any(cand.components[d].cardinality()
                   != module.components[d].cardinality() for d in supp):
                continue
            if iso_search(cand, module, budget) is not None:
                return list(shifts)
    return None


def reference_is_projective(module):
    """`analyze.is_projective` on any ring: (verdict, witness), the witness
    a right inverse of `free_cover`, the cover with one generator per Z/n
    generator, solved for by `analyze.is_retraction`."""
    if module.is_zero:
        return True, None
    ok, v = analyze.is_retraction(free_cover(module))
    return (True, v) if ok else (False, None)


def reference_morita_check(h, budget=DEFAULT_ISO_BUDGET):
    """`analyze.morita_check` on any rings: `reference_is_projective` of
    h_*(S), then `iso_search` for coextend(h, R) -> S."""
    hs = restrict(h, ring_as_module(h.target))
    if not reference_is_projective(hs)[0]:
        return False
    hr = coextend(h, ring_as_module(h.source)).module
    return iso_search(hr, ring_as_module(h.target), budget) is not None


def group_ring(n, m):
    """The group ring (Z/n)[Z/m] graded by Z/m, deg x = 1.  As x^m = 1,
    x is a unit, and every degree holds a homogeneous unit."""
    grp = make_group([m])
    comps = {(i,): FpZnModule(n, 1) for i in range(m)}
    mult = {((i,), (j,)): (((1,),),) for i in range(m) for j in range(m)}
    return GradedRing(grp, n, comps, mult, (1,))


def product_ring(first, second):
    """The product ring first x second, over the group and modulus they
    share: each component is the sum of theirs, first's generators first,
    and the product is taken in each factor."""
    grp, n = first.group, first.n
    degs = sorted(set(first.components) | set(second.components))
    parts = {d: (first.component(d), second.component(d)) for d in degs}
    comps = {d: FpZnModule(n, a.ngens + b.ngens,
                           [r + (0,) * b.ngens for r in a.rels]
                           + [(0,) * a.ngens + r for r in b.rels])
             for d, (a, b) in parts.items()}
    mult = {}
    for da, db in itertools.product(degs, repeat=2):
        dc = grp.add(da, db)
        if dc not in comps:
            continue
        (a1, a2), (b1, b2), (c1, c2) = parts[da], parts[db], parts[dc]
        t1 = first.mult.get((da, db))
        t2 = second.mult.get((da, db))
        tensor = []
        for i in range(a1.ngens + a2.ngens):
            block = []
            for j in range(b1.ngens + b2.ngens):
                if i < a1.ngens and j < b1.ngens and t1 is not None:
                    row = tuple(t1[i][j]) + (0,) * c2.ngens
                elif i >= a1.ngens and j >= b1.ngens and t2 is not None:
                    row = (0,) * c1.ngens + tuple(t2[i - a1.ngens]
                                                  [j - b1.ngens])
                else:
                    row = (0,) * (c1.ngens + c2.ngens)
                block.append(row)
            tensor.append(block)
        mult[(da, db)] = tensor
    return GradedRing(grp, n, comps, mult, first.one + second.one)


def diagonal(ring):
    """The diagonal ring morphism ring -> ring x ring (`product_ring`),
    r -> (r, r)."""
    maps = {d: [_unit_vec(c.ngens, i) * 2 for i in range(c.ngens)]
            for d, c in ring.components.items()}
    return GradedRingHom(ring, product_ring(ring, ring), maps)


def adjoin_truncated(ring, e, deg_t):
    """The inclusion ring -> ring[t]/(t^e), with t of degree deg_t.

    The component of degree d is the sum of the R_c t^j with
    c + j deg_t = d and j < e, in order of j then of c, and
    (x t^i)(y t^j) = xy t^(i+j), which is 0 when i + j >= e.
    """
    grp, n = ring.group, ring.n
    power = grp.zero()
    blocks = {}  # degree -> [(j, c)], the summands R_c t^j
    for j in range(e):
        for c in sorted(ring.components):
            blocks.setdefault(grp.add(c, power), []).append((j, c))
        power = grp.add(power, deg_t)
    comps, at = {}, {}
    for d, parts in blocks.items():
        total = sum(ring.components[c].ngens for _, c in parts)
        rels, off = [], 0
        for j, c in parts:
            rc = ring.components[c]
            at[(d, j, c)] = off
            rels += [(0,) * off + tuple(r) + (0,) * (total - off - rc.ngens)
                     for r in rc.rels]
            off += rc.ngens
        comps[d] = FpZnModule(n, total, rels)
    mult = {}
    for da, db in itertools.product(comps, repeat=2):
        dc = grp.add(da, db)
        if dc not in comps:
            continue
        t = [[[0] * comps[dc].ngens for _ in range(comps[db].ngens)]
             for _ in range(comps[da].ngens)]
        for (i, ca), (j, cb) in itertools.product(blocks[da], blocks[db]):
            rt = ring.mult.get((ca, cb))
            if i + j >= e or rt is None:
                continue
            oa, ob = at[(da, i, ca)], at[(db, j, cb)]
            oc = at[(dc, i + j, grp.add(ca, cb))]
            for x, y in itertools.product(range(len(rt)), range(len(rt[0]))):
                for z, v in enumerate(rt[x][y]):
                    t[oa + x][ob + y][oc + z] = v
        mult[(da, db)] = t
    zero = grp.zero()
    one = [0] * comps[zero].ngens
    base = at[(zero, 0, zero)]
    one[base:base + len(ring.one)] = ring.one
    target = GradedRing(grp, n, comps, mult, tuple(one))
    maps = {}
    for c, rc in ring.components.items():
        k, base = comps[c].ngens, at[(c, 0, c)]
        maps[c] = [tuple(int(m == base + i) for m in range(k))
                   for i in range(rc.ngens)]
    return GradedRingHom(ring, target, maps)


def reference_homs(m, n_mod):
    """The elements of Hom(m, n_mod)_0, by brute force.

    Every degreewise Z/n-linear map, given by canonical images of the
    generators, is tried as a GradedMorphism; those that validate are the
    elements of Hom(m, n_mod)_0.
    """
    degs = sorted(set(m.components) | set(n_mod.components))
    per_degree = [
        list(itertools.product(list(n_mod.component(d).elements()),
                               repeat=m.component(d).ngens))
        for d in degs]
    homs = []
    for combo in itertools.product(*per_degree):
        try:
            homs.append(GradedMorphism(m, n_mod, dict(zip(degs, combo))))
        except GradedError:
            continue
    return homs


def reference_mixed_tensor(h, left, right):
    """`functors.mixed_tensor` with the balance relations
    x.h(r) (x) y = x (x) r.y written for every Z/n-generator r of every
    component of R, not only for the algebra generators.

    Returns (module, index, pos) as a `TensorWitness` holds them.  The
    ambient generators of degree d are the pairs (a, i, b, j) with
    a + b = d, in the order of `mixed_tensor`; products come from
    `act` and `apply`, not from the structure tensors.
    """
    ring_s = h.target
    grp, n = ring_s.group, ring_s.n
    pairs = {}
    for a in sorted(left.components):
        for b in sorted(right.components):
            pairs.setdefault(grp.add(a, b), []).extend(
                (a, i, b, j) for i in range(left.components[a].ngens)
                for j in range(right.components[b].ngens))
    at = {d: {pair: k for k, pair in enumerate(lst)}
          for d, lst in pairs.items()}

    def ambient(x, y):
        """The pure tensor x (x) y on the ambient pairs of its degree."""
        (a, xv), (b, yv) = x, y
        atd = at[grp.add(a, b)]
        vec = [0] * len(atd)
        for i, xi in enumerate(xv):
            for j, yj in enumerate(yv):
                if xi * yj:
                    vec[atd[(a, i, b, j)]] += xi * yj
        return vec

    rels = {d: [] for d in pairs}
    lbasis, rbasis = list(_basis(left.components)), list(_basis(right.components))
    for (a, xv), (b, yv) in itertools.product(lbasis, rbasis):
        d = grp.add(a, b)
        for r in left.components[a].rels:
            rels[d].append(ambient((a, r), (b, yv)))
        for s in right.components[b].rels:
            rels[d].append(ambient((a, xv), (b, s)))
        for r in _basis(h.source.components):
            if grp.add(d, r[0]) in at:
                lhs = ambient(left.act(h.apply(r), (a, xv)), (b, yv))
                rhs = ambient((a, xv), right.act(r, (b, yv)))
                rels[grp.add(d, r[0])].append(
                    [u - v for u, v in zip(lhs, rhs)])
    comps, index, pos = {}, {}, {}
    for d, lst in pairs.items():
        comps[d], kept, proj = prune(FpZnModule(n, len(lst), rels[d]))
        index[d] = [lst[k] for k in kept]
        pos[d] = dict(zip(lst, proj))
    action = {}
    for c in sorted(ring_s.components):
        for d in sorted(index):
            out = comps.get(grp.add(c, d))
            if out is None:
                continue
            tensor = []
            for s in _basis({c: ring_s.components[c]}):
                block = []
                for (a, i, b, j) in index[d]:
                    a2, sx = left.act(s, (a, _unit_vec(
                        left.components[a].ngens, i)))
                    vec = [0] * out.ngens
                    for k, v in enumerate(sx):
                        for m, w in enumerate(pos[grp.add(c, d)][(a2, k, b, j)]):
                            vec[m] += v * w
                    block.append(out.reduce(vec))
                tensor.append(block)
            action[(c, d)] = tensor
    return GradedModule(ring_s, comps, action), index, pos


# ---------------------------------------------------------------------------
# references for the coarsening comparison maps of `gradedmod.canonical`:
# each coarse Hom element or tensor generator is assembled as a block
# matrix or block pair from the fine one, not by an element formula


def reference_beta_h(psi, h, m, n_mod):
    """`canonical.beta_h` by block matrices: the matrix family U_a of each
    generator of Hom(M, N)_g is written into the blocks of the coarse
    matrices at the offsets of M's and N's fine components."""
    hw = mixed_hom(h, m, n_mod)
    grp = h.target.group
    src = coarsen_module(hw.module, psi, coarsen_ring(h.target, psi))
    hpsi = coarsen_ring_hom(h, psi)
    mpsi = coarsen_module(m, psi, hpsi.target)
    npsi = coarsen_module(n_mod, psi, hpsi.source)
    target = mixed_hom(hpsi, mpsi, npsi)
    _, hoff = coarse_layout(hw.module.components, psi)
    _, moff = coarse_layout(m.components, psi)
    _, noff = coarse_layout(n_mod.components, psi)
    maps = {}
    for gc in sorted(src.components):
        rows = [None] * src.components[gc].ngens
        for g in sorted(hw.module.components):
            if psi.apply(g) != gc:
                continue
            comp = hw.module.components[g]
            for k in range(comp.ngens):
                mats_g = hw.matrices(g, _unit_vec(comp.ngens, k))
                coarse_mats = {}
                for ab in sorted(mpsi.components):
                    cols = npsi.component(psi.target.add(gc, ab)).ngens
                    if not cols:
                        continue
                    mat = [[0] * cols
                           for _ in range(mpsi.components[ab].ngens)]
                    for a in sorted(m.components):
                        u_a = mats_g.get(a)
                        e = grp.add(g, a)
                        if psi.apply(a) != ab or u_a is None or e not in noff:
                            continue
                        for i, row in enumerate(u_a):
                            for j, v in enumerate(row):
                                mat[moff[a] + i][noff[e] + j] = v
                    coarse_mats[ab] = tuple(tuple(r) for r in mat)
                coords = target.coords_of(gc, coarse_mats)
                assert coords is not None, "beta: not a graded homomorphism"
                rows[hoff[g] + k] = coords
        maps[gc] = rows
    return GradedMorphism(src, target.module, maps)


def reference_tensor_coarsen_iso(psi, tw):
    """`canonical.tensor_coarsen_iso` by offsets: generator k of the fine
    tensor component d, the pair (a, i, b, j), goes to the pure tensor of
    generator i of L_a and generator j of R_b at their coarse offsets."""
    ring_s = tw.h.target
    src = coarsen_module(tw.module, psi, coarsen_ring(ring_s, psi))
    hpsi = coarsen_ring_hom(tw.h, psi)
    lpsi = coarsen_module(tw.left, psi, hpsi.target)
    rpsi = coarsen_module(tw.right, psi, hpsi.source)
    target = mixed_tensor(hpsi, lpsi, rpsi)
    _, toff = coarse_layout(tw.module.components, psi)
    _, loff = coarse_layout(tw.left.components, psi)
    _, roff = coarse_layout(tw.right.components, psi)
    maps = {}
    for dc in sorted(src.components):
        rows = [None] * src.components[dc].ngens
        for d in sorted(tw.module.components):
            if psi.apply(d) != dc:
                continue
            for k, (a, i, b, j) in enumerate(tw.index[d]):
                la, lb = psi.apply(a), psi.apply(b)
                x = (la, _unit_vec(lpsi.component(la).ngens, loff[a] + i))
                y = (lb, _unit_vec(rpsi.component(lb).ngens, roff[b] + j))
                rows[toff[d] + k] = target.pure(x, y)[1]
        maps[dc] = rows
    return GradedMorphism(src, target.module, maps)


# ---------------------------------------------------------------------------
# brute-force reference for the axiom checks of `gradedmod.graded`
#
# Each function returns the first axiom the object fails, as (axiom name,
# witness), or None.  Every multilinear axiom runs every argument over the
# Z/n-generators of its components, with no appeal to algebra generators,
# so an associativity check costs d^3; the tests hold the library's checks
# to the same verdicts.


def _basis(comps):
    """(deg, unit vector) for every generator of every component."""
    for d in sorted(comps):
        k = comps[d].ngens
        for i in range(k):
            yield d, _unit_vec(k, i)


def reference_ring_failure(ring):
    """Commutativity on all pairs, then the module axioms of R on itself."""
    basis = list(_basis(ring.components))
    for x in basis:
        for y in basis:
            if ring.multiply(x, y) != ring.multiply(y, x):
                return "commutativity", (x, y)
    return _reference_module_failure(ring, ring.components, ring.mult,
                                     ring.multiply)


def reference_module_failure(module):
    return _reference_module_failure(module.ring, module.components,
                                     module.action, module.act)


def _reference_module_failure(ring, comps, tensors, act):
    g = ring.group
    for dg, dh in tensors:
        if g.add(dg, dh) not in comps:
            return "support", (dg, dh)
    for m in _basis(comps):
        if act(ring.one_element(), m)[1] != comps[m[0]].reduce(m[1]):
            return "unit", (m,)
    for dg, cg in ring.components.items():
        for dh, ch in comps.items():
            out = comps.get(g.add(dg, dh))
            t = tensors.get((dg, dh))
            pairs = [(r, _unit_vec(ch.ngens, j)) for r in cg.rels
                     for j in range(ch.ngens)]
            pairs += [(_unit_vec(cg.ngens, i), s) for s in ch.rels
                      for i in range(cg.ngens)]
            for r, m in pairs:
                if out is not None and any(apply_tensor(t, r, m, out)):
                    return "well-definedness", ((dg, r), (dh, m))
    rbasis = list(_basis(ring.components))
    for x in rbasis:
        for y in rbasis:
            xy = ring.multiply(x, y)
            for m in _basis(comps):
                if act(xy, m)[1] != act(x, act(y, m))[1]:
                    return "associativity", (x, y, m)
    return None


def reference_morphism_failure(u):
    """Well-definedness, then u(rx) = r u(x) on all pairs."""
    src, tgt = u.source, u.target
    for deg in u.maps:
        for r in src.component(deg).rels:
            if any(u.apply((deg, r))[1]):
                return "well-definedness", ((deg, r),)
    for r in _basis(src.ring.components):
        for x in _basis(src.components):
            if u.apply(src.act(r, x))[1] != tgt.act(r, u.apply(x))[1]:
                return "linearity", (r, x)
    return None


def reference_ring_hom_failure(h):
    """Well-definedness, the unit, then h(xy) = h(x)h(y) on all pairs."""
    src, tgt = h.source, h.target
    for deg in h.maps:
        for r in src.component(deg).rels:
            if any(h.apply((deg, r))[1]):
                return "well-definedness", ((deg, r),)
    if h.apply(src.one_element())[1] != tgt.one:
        return "unit", ()
    basis = list(_basis(src.components))
    for x in basis:
        for y in basis:
            if (h.apply(src.multiply(x, y))[1]
                    != tgt.multiply(h.apply(x), h.apply(y))[1]):
                return "multiplicativity", (x, y)
    return None


# The library's validation loops as they stood before the checks read rows
# and columns of the stored tensors: every product is a bilinear evaluation
# by `apply_tensor`, every degree sum is taken in the innermost loop, and
# absent tensors are evaluated like present ones.  Each raises the same
# GradedError, with the same message, as the `_validate` it stands for.


def reference_check_module_axioms(ring, comps, tensors, words):
    """`graded._check_module_axioms`: support, unit, well-definedness, then
    associativity with y over the ring's algebra generators."""
    what, unit, assoc = words
    g = ring.group
    for dg, dh in tensors:
        if g.add(dg, dh) not in comps:
            raise GradedError(f"{what} leaves the declared support")
    zero = g.zero()
    for dh, ch in comps.items():
        t = tensors.get((zero, dh))
        for j in range(ch.ngens):
            ej = _unit_vec(ch.ngens, j)
            if apply_tensor(t, ring.one, ej, ch) != ch.reduce(ej):
                raise GradedError(f"{unit} fails at degree {dh}")
    none = zero_component(ring.n)
    for dg, cg in ring.components.items():
        for dh, ch in comps.items():
            out = comps.get(g.add(dg, dh), none)
            t = tensors.get((dg, dh))
            for r in cg.rels:
                for j in range(ch.ngens):
                    if any(apply_tensor(t, r, _unit_vec(ch.ngens, j), out)):
                        raise GradedError(
                            f"{what} not well defined at {dg},{dh}")
            for s in ch.rels:
                for i in range(cg.ngens):
                    if any(apply_tensor(t, _unit_vec(cg.ngens, i), s, out)):
                        raise GradedError(
                            f"{what} not well defined at {dg},{dh}")
    rcomps, rmult = ring.components, ring.mult
    for dy, y in ring.algebra_generators:
        ym = {dh: (g.add(dy, dh),
                   [_product(g, comps, tensors, dy, y, dh,
                             _unit_vec(ch.ngens, k))[1]
                    for k in range(ch.ngens)])
              for dh, ch in comps.items()}
        for dx, cx in rcomps.items():
            for i in range(cx.ngens):
                x = _unit_vec(cx.ngens, i)
                dxy, xy = _product(g, rcomps, rmult, dx, x, dy, y)
                for dh, ch in comps.items():
                    dyh, yms = ym[dh]
                    out = comps.get(g.add(dxy, dh), none)
                    left = tensors.get((dxy, dh))
                    right = tensors.get((dx, dyh))
                    for k in range(ch.ngens):
                        if (apply_tensor(left, xy, _unit_vec(ch.ngens, k), out)
                                != apply_tensor(right, x, yms[k], out)):
                            raise GradedError(
                                f"{assoc} fails at {dx},{dy},{dh}")


def reference_validate_ring(ring):
    """`GradedRing._validate`: commutativity, then the module axioms."""
    g, comps, mult = ring.group, ring.components, ring.mult
    for dy, y in (ring.one_element(),) + ring.algebra_generators:
        for dx, cx in comps.items():
            for i in range(cx.ngens):
                x = _unit_vec(cx.ngens, i)
                if (_product(g, comps, mult, dx, x, dy, y)
                        != _product(g, comps, mult, dy, y, dx, x)):
                    lo, hi = sorted((dx, dy))
                    raise GradedError(
                        f"commutativity fails at degrees {lo},{hi}")
    reference_check_module_axioms(ring, comps, mult, _RING_WORDS)


def reference_validate_module(module):
    """`GradedModule._validate`."""
    reference_check_module_axioms(module.ring, module.components,
                                  module.action, _MODULE_WORDS)


def reference_validate_morphism(u):
    """`GradedMorphism._validate`: well-definedness, then R-linearity."""
    _maps_well_defined(u)
    src, tgt = u.source, u.target
    g = src.ring.group
    for dr, r in src.ring.algebra_generators:
        for dh, sc in src.components.items():
            for j in range(sc.ngens):
                x = _unit_vec(sc.ngens, j)
                drx, rx = _product(g, src.components, src.action,
                                   dr, r, dh, x)
                _, rux = _product(g, tgt.components, tgt.action,
                                  dr, r, dh, _image(u, dh, x))
                if _image(u, drx, rx) != rux:
                    raise GradedError(
                        f"morphism is not linear at degrees {dr},{dh}")


def reference_validate_ring_hom(h):
    """`GradedRingHom._validate`: well-definedness, the unit, then
    multiplicativity."""
    _maps_well_defined(h)
    _, one_img = h.apply(h.source.one_element())
    if one_img != h.target.one:
        raise GradedError("ring morphism does not preserve the unit")
    src, tgt = h.source, h.target
    g = src.group
    for dy, y in src.algebra_generators:
        hy = _image(h, dy, y)
        for dx, cx in src.components.items():
            for i in range(cx.ngens):
                x = _unit_vec(cx.ngens, i)
                dxy, xy = _product(g, src.components, src.mult,
                                   dx, x, dy, y)
                _, hxhy = _product(g, tgt.components, tgt.mult,
                                   dx, _image(h, dx, x), dy, hy)
                if _image(h, dxy, xy) != hxhy:
                    raise GradedError(
                        f"ring morphism not multiplicative at {dx},{dy}")
