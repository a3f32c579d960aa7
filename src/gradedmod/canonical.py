"""Canonical morphisms between composite change-of-ring functors.

Each constructor materializes one of the canonical natural transformations
(units and counits of the adjunctions, the comparison maps between tensor
and Hom composites, the coarsening comparison maps) as an explicit graded
morphism built on generators by its element-level formula.  Construction
validates well-definedness and linearity, so a successful return is itself
a check of the defining formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .abelian import GroupEpi
from .graded import (GradedModule, GradedMorphism, GradedRingHom,
                     GradedError, RingMismatch, _coarse_components, _unit_vec,
                     coarsen_module, coarsen_ring, coarsen_ring_hom,
                     direct_sum, ring_as_module)
from .functors import (HomWitness, TensorWitness, _lift_generators,
                       coextend, extend, hom_graded, mixed_hom, mixed_tensor,
                       restrict, tensor)


class CanonicalMapError(GradedError):
    """Raised when an element-level formula fails to land where it must."""


@dataclass(frozen=True)
class CanonicalMap:
    """A named canonical morphism with its inputs and optional inverse."""

    name: str
    morphism: GradedMorphism
    inputs: dict = field(default_factory=dict, compare=False)
    inverse: GradedMorphism | None = None


def _coords_or_fail(witness: HomWitness, g, mats, what: str):
    coords = witness.coords_of(g, mats)
    if coords is None:
        raise CanonicalMapError(f"{what}: image is not a graded homomorphism")
    return coords


def underline(h: GradedRingHom) -> GradedMorphism:
    """The morphism of R-modules R -> h_*(S) underlying h."""
    return GradedMorphism(ring_as_module(h.source),
                          restrict(h, ring_as_module(h.target)), dict(h.maps))


def hstar_ring_iso(h: GradedRingHom):
    """The canonical isomorphism h^*(R) -> S, s (x) r -> s h(r)."""
    tw = extend(h, ring_as_module(h.source))
    target = ring_as_module(h.target)
    maps = {}
    for d, pairs in tw.index.items():
        rows = []
        for (c, p, a, i) in pairs:
            sp = (c, _unit_vec(h.target.component(c).ngens, p))
            _, hr = h.apply((a, _unit_vec(h.source.component(a).ngens, i)))
            _, prod = h.target.multiply(sp, (a, hr))
            rows.append(prod)
        maps[d] = rows
    return CanonicalMap("hstar_ring", GradedMorphism(tw.module, target, maps),
                        {"h": h})


# ---------------------------------------------------------------------------
# units and counits (adjunctions of restriction with extension/coextension)


def rho(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The unit M -> h_*(h^*(M)), x -> 1_S (x) x."""
    tw = extend(h, module)
    target = restrict(h, tw.module)
    one = (h.target.group.zero(), h.target.one)
    maps = {}
    for a, comp in module.components.items():
        rows = [tw.pure(one, (a, _unit_vec(comp.ngens, i)))[1]
                for i in range(comp.ngens)]
        maps[a] = rows
    return CanonicalMap("rho", GradedMorphism(module, target, maps),
                        {"h": h, "module": module})


def sigma(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The counit h^*(h_*(N)) -> N, s (x) x -> sx."""
    return _sigma(h, module, restrict(h, module))


def _sigma(h, module, restricted) -> CanonicalMap:
    """`sigma` on N = `module`, given h_*(N) as `restricted`."""
    tw = extend(h, restricted)
    maps = {}
    for d, pairs in tw.index.items():
        rows = []
        for (c, p, a, j) in pairs:
            sp = (c, _unit_vec(h.target.component(c).ngens, p))
            xj = (a, _unit_vec(module.component(a).ngens, j))
            rows.append(module.act(sp, xj)[1])
        maps[d] = rows
    return CanonicalMap("sigma", GradedMorphism(tw.module, module, maps),
                        {"h": h, "module": module})


def rho_tilde(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The unit N -> coextend(h, h_*(N)), x -> (s -> sx)."""
    return _rho_tilde(h, module, restrict(h, module))


def _rho_tilde(h, module, restricted) -> CanonicalMap:
    """`rho_tilde` on N = `module`, given h_*(N) as `restricted`."""
    hw = coextend(h, restricted)
    ring_s = h.target
    grp = ring_s.group
    maps = {}
    for a, comp in module.components.items():
        rows = []
        for j in range(comp.ngens):
            xj = (a, _unit_vec(comp.ngens, j))
            mats = {}
            for c in sorted(ring_s.components):
                sc = ring_s.components[c]
                out = module.component(grp.add(c, a))
                if not out.ngens:
                    continue
                mats[c] = tuple(
                    module.act((c, _unit_vec(sc.ngens, p)), xj)[1]
                    for p in range(sc.ngens))
            rows.append(_coords_or_fail(hw, a, mats, "rho_tilde"))
        maps[a] = rows
    return CanonicalMap("rho_tilde", GradedMorphism(module, hw.module, maps),
                        {"h": h, "module": module})


def sigma_tilde(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The counit h_*(coextend(h, M)) -> M, u -> u(1_S)."""
    hw = coextend(h, module)
    source = restrict(h, hw.module)
    one = (h.target.group.zero(), h.target.one)
    maps = {}
    for g, comp in hw.module.components.items():
        rows = [hw.evaluate((g, _unit_vec(comp.ngens, k)), one)[1]
                for k in range(comp.ngens)]
        maps[g] = rows
    return CanonicalMap("sigma_tilde", GradedMorphism(source, module, maps),
                        {"h": h, "module": module})


# ---------------------------------------------------------------------------
# tensor comparison maps


def delta(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """h^*(M) (x)_S h^*(N) -> h^*(M (x)_R N) with its two-sided inverse."""
    em, en = extend(h, m), extend(h, n)
    src = tensor(em.module, en.module)
    tmn = tensor(m, n)
    etmn = extend(h, tmn.module)
    ring_s = h.target
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (d1, k1, d2, k2) in pairs:
            c1, p, a, i = em.index[d1][k1]
            c2, q, b, j = en.index[d2][k2]
            ss = ring_s.multiply((c1, _unit_vec(ring_s.component(c1).ngens, p)),
                                 (c2, _unit_vec(ring_s.component(c2).ngens, q)))
            xy = tmn.pure((a, _unit_vec(m.component(a).ngens, i)),
                          (b, _unit_vec(n.component(b).ngens, j)))
            rows.append(etmn.pure(ss, xy)[1])
        maps[d] = rows
    forward = GradedMorphism(src.module, etmn.module, maps)
    one = (ring_s.group.zero(), ring_s.one)
    inv_maps = {}
    for d, pairs in etmn.index.items():
        rows = []
        for (c, p, dd, t) in pairs:
            a, i, b, j = tmn.index[dd][t]
            u1 = em.pure((c, _unit_vec(ring_s.component(c).ngens, p)),
                         (a, _unit_vec(m.component(a).ngens, i)))
            u2 = en.pure(one, (b, _unit_vec(n.component(b).ngens, j)))
            rows.append(src.pure(u1, u2)[1])
        inv_maps[d] = rows
    backward = GradedMorphism(etmn.module, src.module, inv_maps)
    return CanonicalMap("delta", forward, {"h": h, "m": m, "n": n}, backward)


def gamma(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """h_*(M) (x)_R h_*(N) -> h_*(M (x)_S N), x (x) y -> x (x) y."""
    return _gamma(h, m, n, restrict(h, m), restrict(h, n))


def _gamma(h, m, n, rm, rn) -> CanonicalMap:
    """`gamma` on M = `m` and N = `n`, given h_*(M) and h_*(N) as `rm`
    and `rn`."""
    src = tensor(rm, rn)
    ttw = tensor(m, n)
    target = restrict(h, ttw.module)
    maps = {}
    for d, pairs in src.index.items():
        rows = [ttw.pure((a, _unit_vec(m.component(a).ngens, i)),
                         (b, _unit_vec(n.component(b).ngens, j)))[1]
                for (a, i, b, j) in pairs]
        maps[d] = rows
    return CanonicalMap("gamma", GradedMorphism(src.module, target, maps),
                        {"h": h, "m": m, "n": n})


def epsilon(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """coextend(M) (x)_S coextend(N) -> coextend(M (x)_R N).

    On pure tensors: u (x) v -> (s -> u(s) (x) v(1_S)).
    """
    hm, hn = coextend(h, m), coextend(h, n)
    src = tensor(hm.module, hn.module)
    tmn = tensor(m, n)
    target = coextend(h, tmn.module)
    ring_s = h.target
    grp = ring_s.group
    one = (grp.zero(), ring_s.one)
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (g1, k1, g2, k2) in pairs:
            hn_comp = hn.module.component(g2)
            v1_deg, v1 = hn.evaluate((g2, _unit_vec(hn_comp.ngens, k2)), one)
            hm_comp = hm.module.component(g1)
            mats = {}
            for c in sorted(ring_s.components):
                sc = ring_s.components[c]
                out = tmn.module.component(grp.add(grp.add(g1, g2), c))
                if not out.ngens:
                    continue
                rows_c = []
                for p in range(sc.ngens):
                    u_deg, uvec = hm.evaluate(
                        (g1, _unit_vec(hm_comp.ngens, k1)),
                        (c, _unit_vec(sc.ngens, p)))
                    rows_c.append(tmn.pure((u_deg, uvec), (v1_deg, v1))[1])
                mats[c] = tuple(rows_c)
            rows.append(_coords_or_fail(target, grp.add(g1, g2), mats,
                                        "epsilon"))
        maps[d] = rows
    return CanonicalMap("epsilon", GradedMorphism(src.module, target.module,
                                                  maps),
                        {"h": h, "m": m, "n": n})


# ---------------------------------------------------------------------------
# Hom comparison maps


def eta(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """h_*(Hom^G_S(M, N)) -> Hom^G_R(h_*(M), h_*(N)), u -> h_*(u)."""
    if m.ring != n.ring:
        # the error of Hom^G_S(M, N), which comes before the restrictions
        raise RingMismatch("Hom endpoints live over different rings")
    return _eta(h, m, n, restrict(h, m), restrict(h, n))


def _eta(h, m, n, rm, rn) -> CanonicalMap:
    """`eta` on M = `m` and N = `n`, given h_*(M) and h_*(N) as `rm` and
    `rn`."""
    hw_s = hom_graded(m, n)
    src = restrict(h, hw_s.module)
    target = mixed_hom(GradedRingHom.identity(h.source), rm, rn)
    maps = {}
    for g, comp in hw_s.module.components.items():
        rows = []
        for k in range(comp.ngens):
            mats = hw_s.matrices(g, _unit_vec(comp.ngens, k))
            rows.append(_coords_or_fail(target, g, mats, "eta"))
        maps[g] = rows
    return CanonicalMap("eta", GradedMorphism(src, target.module, maps),
                        {"h": h, "m": m, "n": n})


def theta(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """h^*(Hom^G_R(M, N)) -> Hom^G_S(h^*(M), h^*(N)).

    On generators: s (x) u -> (r (x) x -> (rs) (x) u(x)).
    """
    hw_r = hom_graded(m, n)
    src = extend(h, hw_r.module)
    em, en = extend(h, m), extend(h, n)
    target = hom_graded(em.module, en.module)
    ring_s = h.target
    grp = ring_s.group
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (c, p, g, k) in pairs:
            sp = (c, _unit_vec(ring_s.component(c).ngens, p))
            hom_comp = hw_r.module.component(g)
            shift_deg = grp.add(c, g)
            mats = {}
            for d1 in sorted(em.module.components):
                cols = en.module.component(grp.add(shift_deg, d1)).ngens
                if not cols:
                    continue
                rows_d = []
                for (c1, q, a, i) in em.index[d1]:
                    sq = (c1, _unit_vec(ring_s.component(c1).ngens, q))
                    ss = ring_s.multiply(sq, sp)
                    ux = hw_r.evaluate((g, _unit_vec(hom_comp.ngens, k)),
                                       (a, _unit_vec(m.component(a).ngens, i)))
                    rows_d.append(en.pure(ss, ux)[1])
                mats[d1] = tuple(rows_d)
            rows.append(_coords_or_fail(target, shift_deg, mats, "theta"))
        maps[d] = rows
    return CanonicalMap("theta", GradedMorphism(src.module, target.module,
                                                maps),
                        {"h": h, "m": m, "n": n})


def pi(h: GradedRingHom, l: GradedModule, m: GradedModule,
       n: GradedModule) -> CanonicalMap:
    """Hom^G_R(L, M) (x)_S N -> Hom^G_S(L, M (x)_R N).

    L and N are S-modules, M an R-module; u (x) x -> (y -> u(y) (x) x).
    """
    homlm = mixed_hom(h, l, m)
    src = tensor(homlm.module, n)
    tmn = mixed_tensor(h, n, m)  # M (x)_R N with the S-action on N
    target = hom_graded(l, tmn.module)
    grp = h.target.group
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (g, k, b, j) in pairs:
            hom_comp = homlm.module.component(g)
            xj = (b, _unit_vec(n.component(b).ngens, j))
            mats = {}
            for a in sorted(l.components):
                ca = l.components[a]
                cols = tmn.module.component(grp.add(grp.add(g, b), a)).ngens
                if not cols:
                    continue
                mats[a] = tuple(
                    tmn.pure(xj, homlm.evaluate(
                        (g, _unit_vec(hom_comp.ngens, k)),
                        (a, _unit_vec(ca.ngens, i))))[1]
                    for i in range(ca.ngens))
            rows.append(_coords_or_fail(target, grp.add(g, b), mats, "pi"))
        maps[d] = rows
    return CanonicalMap("pi", GradedMorphism(src.module, target.module, maps),
                        {"h": h, "l": l, "m": m, "n": n})


def nu(h: GradedRingHom, l: GradedModule, m: GradedModule,
       n: GradedModule) -> CanonicalMap:
    """Hom^G_R(L, M) (x)_R N -> Hom^G_R(L, M (x)_R N).

    L is an S-module, M and N are R-modules; u (x) x -> (y -> u(y) (x) x).
    """
    homlm = mixed_hom(h, l, m)
    src = mixed_tensor(h, homlm.module, n)
    tmn = tensor(m, n)
    target = mixed_hom(h, l, tmn.module)
    grp = h.target.group
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (g, k, b, j) in pairs:
            hom_comp = homlm.module.component(g)
            xj = (b, _unit_vec(n.component(b).ngens, j))
            mats = {}
            for a in sorted(l.components):
                ca = l.components[a]
                cols = tmn.module.component(grp.add(grp.add(g, b), a)).ngens
                if not cols:
                    continue
                mats[a] = tuple(
                    tmn.pure(homlm.evaluate((g, _unit_vec(hom_comp.ngens, k)),
                                            (a, _unit_vec(ca.ngens, i))), xj)[1]
                    for i in range(ca.ngens))
            rows.append(_coords_or_fail(target, grp.add(g, b), mats, "nu"))
        maps[d] = rows
    return CanonicalMap("nu", GradedMorphism(src.module, target.module, maps),
                        {"h": h, "l": l, "m": m, "n": n})


def mu(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """M (x)_R N -> Hom^G_R(Hom^G_R(M, R), N), x (x) y -> (u -> u(x) y)."""
    src = mixed_tensor(h, m, n)
    inner = mixed_hom(h, m, ring_as_module(h.source))
    target = mixed_hom(h, inner.module, n)
    grp = h.target.group
    lifted = _lift_generators(inner, inner.module.components)
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (a, i, b, j) in pairs:
            xi = (a, _unit_vec(m.component(a).ngens, i))
            yj = (b, _unit_vec(n.component(b).ngens, j))
            mats = {}
            for g in sorted(inner.module.components):
                cols = n.component(grp.add(grp.add(a, b), g)).ngens
                if not cols:
                    continue
                mats[g] = tuple(n.act(inner.apply(g, u, xi), yj)[1]
                                for u in lifted[g])
            rows.append(_coords_or_fail(target, grp.add(a, b), mats, "mu"))
        maps[d] = rows
    return CanonicalMap("mu", GradedMorphism(src.module, target.module, maps),
                        {"h": h, "m": m, "n": n})


def tau3(l: GradedModule, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """L (x)_R Hom(M, N) -> Hom(Hom(L, M), N), x (x) u -> (v -> u(v(x)))."""
    hommn = hom_graded(m, n)
    src = tensor(l, hommn.module)
    homlm = hom_graded(l, m)
    target = hom_graded(homlm.module, n)
    grp = l.ring.group
    lifted_lm = _lift_generators(homlm, homlm.module.components)
    lifted_mn = _lift_generators(hommn, hommn.module.components)
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (a, i, g, k) in pairs:
            xi = (a, _unit_vec(l.component(a).ngens, i))
            u = lifted_mn[g][k]
            mats = {}
            for g1 in sorted(homlm.module.components):
                cols = n.component(grp.add(grp.add(a, g), g1)).ngens
                if not cols:
                    continue
                mats[g1] = tuple(hommn.apply(g, u, homlm.apply(g1, v, xi))[1]
                                 for v in lifted_lm[g1])
            rows.append(_coords_or_fail(target, grp.add(a, g), mats, "tau3"))
        maps[d] = rows
    return CanonicalMap("tau3", GradedMorphism(src.module, target.module,
                                               maps),
                        {"l": l, "m": m, "n": n})


def tau(l: GradedModule) -> CanonicalMap:
    """The bidual map L -> Hom(Hom(L, R), R), x -> (u -> u(x))."""
    ring = l.ring
    rm = ring_as_module(ring)
    homlr = hom_graded(l, rm)
    target = hom_graded(homlr.module, rm)
    grp = ring.group
    lifted = _lift_generators(homlr, homlr.module.components)
    maps = {}
    for a, comp in l.components.items():
        rows = []
        for i in range(comp.ngens):
            xi = (a, _unit_vec(comp.ngens, i))
            mats = {}
            for g in sorted(homlr.module.components):
                cols = ring.component(grp.add(a, g)).ngens
                if not cols:
                    continue
                mats[g] = tuple(homlr.apply(g, u, xi)[1] for u in lifted[g])
            rows.append(_coords_or_fail(target, a, mats, "tau"))
        maps[a] = rows
    return CanonicalMap("tau", GradedMorphism(l, target.module, maps),
                        {"l": l})


# ---------------------------------------------------------------------------
# finite families


def kappa(m: GradedModule, family) -> CanonicalMap:
    """(prod N_j) (x)_R M -> prod (N_j (x)_R M) for a finite family."""
    family = list(family)
    ring = m.ring
    n_mod = ring.n
    if not family:
        zero = GradedModule(ring, {}, {}, validate=False)
        src = tensor(zero, m)
        return CanonicalMap("kappa",
                            GradedMorphism.zero(src.module, zero),
                            {"m": m, "family": tuple(family)})
    total, _, projs = direct_sum(family)
    src = tensor(total, m)
    parts = [tensor(nj, m) for nj in family]
    tgt_total, tinjs, _ = direct_sum([p.module for p in parts])
    maps = {}
    for d, pairs in src.index.items():
        tc = tgt_total.component(d)
        rows = []
        for (a, i, b, j) in pairs:
            acc = [0] * tc.ngens
            ei = _unit_vec(total.component(a).ngens, i)
            for jj, part in enumerate(parts):
                _, pvec = projs[jj].apply((a, ei))
                _, t = part.pure((a, pvec),
                                 (b, _unit_vec(m.component(b).ngens, j)))
                _, ivec = tinjs[jj].apply((d, t))
                for idx, v in enumerate(ivec):
                    acc[idx] += v
            rows.append(tuple(v % n_mod for v in acc))
        maps[d] = rows
    return CanonicalMap("kappa", GradedMorphism(src.module, tgt_total, maps),
                        {"m": m, "family": tuple(family)})


def lambda_big(m: GradedModule, family) -> CanonicalMap:
    """(+)_j Hom(M, N_j) -> Hom(M, (+)_j N_j), (u_j) -> (x -> (u_j(x)))."""
    family = list(family)
    ring = m.ring
    n_mod = ring.n
    grp = ring.group
    if not family:
        zero = GradedModule(ring, {}, {}, validate=False)
        target = hom_graded(m, zero)
        return CanonicalMap("lambda",
                            GradedMorphism.zero(zero, target.module),
                            {"m": m, "family": tuple(family)})
    homs = [hom_graded(m, nj) for nj in family]
    src_total, _, sprojs = direct_sum([hw.module for hw in homs])
    total_n, ninjs, _ = direct_sum(family)
    target = hom_graded(m, total_n)
    maps = {}
    for g, comp in src_total.components.items():
        rows = []
        for k in range(comp.ngens):
            ek = _unit_vec(comp.ngens, k)
            mats = {}
            for a in sorted(m.components):
                ca = m.components[a]
                cols = total_n.component(grp.add(g, a)).ngens
                if not cols:
                    continue
                mat = [[0] * cols for _ in range(ca.ngens)]
                for jj, hw in enumerate(homs):
                    _, cj = sprojs[jj].apply((g, ek))
                    inj_mat = ninjs[jj].matrix(grp.add(g, a))
                    for i in range(ca.ngens):
                        _, val = hw.evaluate((g, cj),
                                             (a, _unit_vec(ca.ngens, i)))
                        for kk, v in enumerate(val):
                            if v:
                                for col, w in enumerate(inj_mat[kk]):
                                    mat[i][col] += v * w
                mats[a] = tuple(tuple(v % n_mod for v in row) for row in mat)
            rows.append(_coords_or_fail(target, g, mats, "lambda"))
        maps[g] = rows
    return CanonicalMap("lambda", GradedMorphism(src_total, target.module,
                                                 maps),
                        {"m": m, "family": tuple(family)})


# ---------------------------------------------------------------------------
# coarsening comparison maps


def beta_h(psi: GroupEpi, h: GradedRingHom, m: GradedModule,
           n: GradedModule) -> CanonicalMap:
    """Hom^G_R(M, N)_[psi] -> Hom^H(M_[psi], N_[psi]) for h: R -> S."""
    hw = mixed_hom(h, m, n)
    ring_r = h.source
    grp = h.target.group
    src = coarsen_module(hw.module, psi, coarsen_ring(h.target, psi))
    hpsi = coarsen_ring_hom(h, psi)
    mpsi = coarsen_module(m, psi, hpsi.target)
    npsi = coarsen_module(n, psi, hpsi.source)
    target = mixed_hom(hpsi, mpsi, npsi)
    _, hoff = _coarse_components(hw.module.components, psi, ring_r.n)
    _, moff = _coarse_components(m.components, psi, ring_r.n)
    _, noff = _coarse_components(n.components, psi, ring_r.n)
    maps = {}
    for gc in sorted(src.components):
        rows = [None] * src.components[gc].ngens
        for g in sorted(hw.module.components):
            if psi.apply(g) != gc:
                continue
            comp = hw.module.components[g]
            base = hoff[g]
            for k in range(comp.ngens):
                mats_g = hw.matrices(g, _unit_vec(comp.ngens, k))
                coarse_mats = {}
                for ab in sorted(mpsi.components):
                    rows_n = mpsi.components[ab].ngens
                    cols_n = npsi.component(
                        psi.target.add(gc, ab)).ngens
                    if not cols_n:
                        continue
                    mat = [[0] * cols_n for _ in range(rows_n)]
                    for a in sorted(m.components):
                        if psi.apply(a) != ab:
                            continue
                        u_a = mats_g.get(a)
                        if u_a is None:
                            continue
                        e_deg = grp.add(g, a)
                        if e_deg not in noff:
                            continue
                        ro, co = moff[a], noff[e_deg]
                        for i, row in enumerate(u_a):
                            for jj, v in enumerate(row):
                                if v:
                                    mat[ro + i][co + jj] = v
                    coarse_mats[ab] = tuple(tuple(r) for r in mat)
                rows[base + k] = _coords_or_fail(target, gc, coarse_mats,
                                                 "beta")
        maps[gc] = rows
    return CanonicalMap("beta", GradedMorphism(src, target.module, maps),
                        {"psi": psi, "h": h, "m": m, "n": n})


def beta(psi: GroupEpi, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """Hom^G_R(M, N)_[psi] -> Hom^H_{R[psi]}(M_[psi], N_[psi])."""
    cm = beta_h(psi, GradedRingHom.identity(m.ring), m, n)
    return CanonicalMap("beta", cm.morphism,
                        {"psi": psi, "m": m, "n": n})


def tensor_coarsen_iso(psi: GroupEpi, tw: TensorWitness) -> CanonicalMap:
    """(M (x) N)_[psi] -> M_[psi] (x) N_[psi], an isomorphism."""
    ring_s = tw.h.target
    n_mod = ring_s.n
    src = coarsen_module(tw.module, psi, coarsen_ring(ring_s, psi))
    hpsi = coarsen_ring_hom(tw.h, psi)
    lpsi = coarsen_module(tw.left, psi, hpsi.target)
    rpsi = coarsen_module(tw.right, psi, hpsi.source)
    target = mixed_tensor(hpsi, lpsi, rpsi)
    _, toff = _coarse_components(tw.module.components, psi, n_mod)
    _, loff = _coarse_components(tw.left.components, psi, n_mod)
    _, roff = _coarse_components(tw.right.components, psi, n_mod)
    maps = {}
    for dc in sorted(src.components):
        rows = [None] * src.components[dc].ngens
        for d in sorted(tw.module.components):
            if psi.apply(d) != dc:
                continue
            base = toff[d]
            for k, (a, i, b, j) in enumerate(tw.index[d]):
                la = psi.apply(a)
                lb = psi.apply(b)
                lvec = [0] * lpsi.component(la).ngens
                lvec[loff[a] + i] = 1
                rvec = [0] * rpsi.component(lb).ngens
                rvec[roff[b] + j] = 1
                rows[base + k] = target.pure((la, lvec), (lb, rvec))[1]
        maps[dc] = rows
    return CanonicalMap("tensor_coarsen",
                        GradedMorphism(src, target.module, maps),
                        {"psi": psi})


# ---------------------------------------------------------------------------
# the Hom-tensor adjunction


def alpha(h: GradedRingHom, l: GradedModule, m: GradedModule,
          n: GradedModule) -> CanonicalMap:
    """Hom^G_R(L (x)_S M, N) -> Hom^G_S(L, Hom^G_R(M, N)), with inverse.

    Currying: w -> (x -> (y -> w(x (x) y))).
    """
    tlm = tensor(l, m)
    src = mixed_hom(h, tlm.module, n)
    inner = mixed_hom(h, m, n)
    target = hom_graded(l, inner.module)
    grp = h.target.group
    maps = {}
    for g in sorted(src.module.components):
        comp = src.module.components[g]
        rows = []
        for k in range(comp.ngens):
            ek = (g, _unit_vec(comp.ngens, k))
            outer_mats = {}
            for a in sorted(l.components):
                ca = l.components[a]
                inner_deg = grp.add(g, a)
                inner_cols = inner.module.component(inner_deg).ngens
                if not inner_cols:
                    continue
                rows_a = []
                for i in range(ca.ngens):
                    xi = (a, _unit_vec(ca.ngens, i))
                    mats = {}
                    for b in sorted(m.components):
                        cb = m.components[b]
                        cols = n.component(grp.add(inner_deg, b)).ngens
                        if not cols:
                            continue
                        mats[b] = tuple(
                            src.evaluate(ek, tlm.pure(
                                xi, (b, _unit_vec(cb.ngens, j))))[1]
                            for j in range(cb.ngens))
                    rows_a.append(_coords_or_fail(inner, inner_deg, mats,
                                                  "alpha"))
                outer_mats[a] = tuple(rows_a)
            rows.append(_coords_or_fail(target, g, outer_mats, "alpha"))
        maps[g] = rows
    forward = GradedMorphism(src.module, target.module, maps)
    inv_maps = {}
    for g in sorted(target.module.components):
        comp = target.module.components[g]
        rows = []
        for k in range(comp.ngens):
            phi_mats = target.matrices(g, _unit_vec(comp.ngens, k))
            mats = {}
            for d in sorted(tlm.module.components):
                cols = n.component(grp.add(g, d)).ngens
                if not cols:
                    continue
                rows_d = []
                for (a, i, b, j) in tlm.index[d]:
                    pa = phi_mats.get(a)
                    if pa is None:
                        rows_d.append((0,) * cols)
                        continue
                    inner_elem = (grp.add(g, a), pa[i])
                    rows_d.append(inner.evaluate(
                        inner_elem, (b, _unit_vec(m.components[b].ngens, j)))[1])
                mats[d] = tuple(rows_d)
            rows.append(_coords_or_fail(src, g, mats, "alpha inverse"))
        inv_maps[g] = rows
    backward = GradedMorphism(target.module, src.module, inv_maps)
    return CanonicalMap("alpha", forward,
                        {"h": h, "l": l, "m": m, "n": n}, backward)
