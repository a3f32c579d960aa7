"""Canonical morphisms between composite change-of-ring functors.

Each constructor materializes one of the canonical natural transformations
(units and counits of the adjunctions, the comparison maps between tensor
and Hom composites, the coarsening comparison maps) as an explicit graded
morphism built on generators by its element-level formula.  Construction
validates well-definedness and linearity, so a successful return is itself
a check of the defining formula.

Every map whose target is a graded Hom module (rho_tilde, eta, epsilon,
theta, pi, nu, mu, tau, tau3, lambda, beta and both directions of alpha)
sends each generator of its source to a Hom element given by its element
formula: the formula's value on each generator of the Hom module's
source, handed to the one helper `_hom_coords`, which solves for the
element's coordinates.  `CanonicalMapError`, which names the map, means
those values are not a graded homomorphism: the formula is not well
defined on the relations of the Hom source, or not linear over the ring.
The formulas of pi and epsilon need h to be a ring epimorphism, that is
onto; when their build fails and h is not onto, the error says so and
names the first degree that h misses.

A map into a tensor product gives each image as a pure tensor
(`TensorWitness.pure`).  The coarsening maps beta and tensor_coarsen put
each fine generator in its coarse component at the offset of
`graded.coarse_layout`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from .abelian import GroupEpi
from .graded import (GradedModule, GradedMorphism, GradedRingHom,
                     GradedError, RingMismatch, _unit_vec, coarse_layout,
                     coarsen_module, coarsen_ring_hom, direct_sum,
                     ring_as_module)
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


def _gen(obj, a, i):
    """Generator i of the degree-a component of a module or ring."""
    return a, _unit_vec(obj.component(a).ngens, i)


def _sum_mod(vectors, n):
    """The sum of equal-length vectors, reduced mod n."""
    return tuple(sum(col) % n for col in zip(*vectors))


@contextmanager
def _needs_onto(h: GradedRingHom, what: str):
    """Build the map `what`, whose formula is well defined only when h is a
    ring epimorphism, that is onto.  h is tested only when the build fails:
    if h misses a degree, the CanonicalMapError says so and names the first
    missed degree; otherwise the failure stands as raised."""
    try:
        yield
    except GradedError as exc:
        missed = h.first_missed()
        if missed is None:
            raise
        raise CanonicalMapError(
            f"{what}: the formula needs h to be a ring epimorphism (onto), "
            f"and h misses degree {missed[0]}") from exc


def _hom_coords(witness: HomWitness, g, image, what: str):
    """Coordinates of the degree-g element of `witness` = Hom(L, N) that
    sends generator i of L_a to the vector `image(a, i)` of N_{g+a}.

    `image` is called only where N_{g+a} has generators.  Raises
    CanonicalMapError naming the map `what` when the images are not those
    of a graded homomorphism.
    """
    grp = witness.source.ring.group
    mats = {a: tuple(image(a, i) for i in range(comp.ngens))
            for a, comp in sorted(witness.source.components.items())
            if witness.target.component(grp.add(g, a)).ngens}
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
    maps = {d: [h.target.multiply(_gen(h.target, c, p),
                                  h.apply(_gen(h.source, a, i)))[1]
                for (c, p, a, i) in pairs]
            for d, pairs in tw.index.items()}
    return CanonicalMap("hstar_ring", GradedMorphism(tw.module, target, maps),
                        {"h": h})


# ---------------------------------------------------------------------------
# units and counits (adjunctions of restriction with extension/coextension)


def rho(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The unit M -> h_*(h^*(M)), x -> 1_S (x) x."""
    tw = extend(h, module)
    target = restrict(h, tw.module)
    one = (h.target.group.zero(), h.target.one)
    maps = {a: [tw.pure(one, _gen(module, a, i))[1]
                for i in range(comp.ngens)]
            for a, comp in module.components.items()}
    return CanonicalMap("rho", GradedMorphism(module, target, maps),
                        {"h": h, "module": module})


def sigma(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The counit h^*(h_*(N)) -> N, s (x) x -> sx."""
    return _sigma(h, module, extend(h, restrict(h, module)))


def _sigma(h, module, tw) -> CanonicalMap:
    """`sigma` on N = `module`, given h^*(h_*(N)) as the witness `tw`."""
    maps = {d: [module.act(_gen(h.target, c, p), _gen(module, a, j))[1]
                for (c, p, a, j) in pairs]
            for d, pairs in tw.index.items()}
    return CanonicalMap("sigma", GradedMorphism(tw.module, module, maps),
                        {"h": h, "module": module})


def rho_tilde(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The unit N -> coextend(h, h_*(N)), x -> (s -> sx)."""
    return _rho_tilde(h, module, coextend(h, restrict(h, module)))


def _rho_tilde(h, module, hw) -> CanonicalMap:
    """`rho_tilde` on N = `module`, given coextend(h, h_*(N)) as the
    witness `hw`."""
    maps = {}
    for a, comp in module.components.items():
        rows = []
        for j in range(comp.ngens):
            xj = _gen(module, a, j)
            rows.append(_hom_coords(
                hw, a, lambda c, p: module.act(_gen(h.target, c, p), xj)[1],
                "rho_tilde"))
        maps[a] = rows
    return CanonicalMap("rho_tilde", GradedMorphism(module, hw.module, maps),
                        {"h": h, "module": module})


def sigma_tilde(h: GradedRingHom, module: GradedModule) -> CanonicalMap:
    """The counit h_*(coextend(h, M)) -> M, u -> u(1_S)."""
    hw = coextend(h, module)
    source = restrict(h, hw.module)
    one = (h.target.group.zero(), h.target.one)
    maps = {g: [hw.evaluate(_gen(hw.module, g, k), one)[1]
                for k in range(comp.ngens)]
            for g, comp in hw.module.components.items()}
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
            ss = ring_s.multiply(_gen(ring_s, c1, p), _gen(ring_s, c2, q))
            xy = tmn.pure(_gen(m, a, i), _gen(n, b, j))
            rows.append(etmn.pure(ss, xy)[1])
        maps[d] = rows
    forward = GradedMorphism(src.module, etmn.module, maps)
    one = (ring_s.group.zero(), ring_s.one)
    inv_maps = {}
    for d, pairs in etmn.index.items():
        rows = []
        for (c, p, dd, t) in pairs:
            a, i, b, j = tmn.index[dd][t]
            u1 = em.pure(_gen(ring_s, c, p), _gen(m, a, i))
            u2 = en.pure(one, _gen(n, b, j))
            rows.append(src.pure(u1, u2)[1])
        inv_maps[d] = rows
    backward = GradedMorphism(etmn.module, src.module, inv_maps)
    return CanonicalMap("delta", forward, {"h": h, "m": m, "n": n}, backward)


def gamma(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """h_*(M) (x)_R h_*(N) -> h_*(M (x)_S N), x (x) y -> x (x) y."""
    return _gamma(h, m, n, tensor(restrict(h, m), restrict(h, n)))


def _gamma(h, m, n, src) -> CanonicalMap:
    """`gamma` on M = `m` and N = `n`, given h_*(M) (x)_R h_*(N) as the
    witness `src`."""
    ttw = tensor(m, n)
    target = restrict(h, ttw.module)
    maps = {d: [ttw.pure(_gen(m, a, i), _gen(n, b, j))[1]
                for (a, i, b, j) in pairs]
            for d, pairs in src.index.items()}
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
    one = (ring_s.group.zero(), ring_s.one)
    lifted = _lift_generators(hm, hm.module.components)
    maps = {}
    with _needs_onto(h, "epsilon"):
        for d, pairs in src.index.items():
            rows = []
            for (g1, k1, g2, k2) in pairs:
                u = lifted[g1][k1]
                v1 = hn.evaluate(_gen(hn.module, g2, k2), one)
                rows.append(_hom_coords(
                    target, ring_s.group.add(g1, g2),
                    lambda c, p: tmn.pure(hm.apply(g1, u, _gen(ring_s, c, p)),
                                          v1)[1], "epsilon"))
            maps[d] = rows
        morphism = GradedMorphism(src.module, target.module, maps)
    return CanonicalMap("epsilon", morphism, {"h": h, "m": m, "n": n})


# ---------------------------------------------------------------------------
# Hom comparison maps


def eta(h: GradedRingHom, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """h_*(Hom^G_S(M, N)) -> Hom^G_R(h_*(M), h_*(N)), u -> h_*(u)."""
    if m.ring != n.ring:
        # the error of Hom^G_S(M, N), which comes before the restrictions
        raise RingMismatch("Hom endpoints live over different rings")
    return _eta(h, m, n, hom_graded(restrict(h, m), restrict(h, n)))


def _eta(h, m, n, target) -> CanonicalMap:
    """`eta` on M = `m` and N = `n`, given Hom^G_R(h_*(M), h_*(N)) as the
    witness `target`."""
    hw_s = hom_graded(m, n)
    src = restrict(h, hw_s.module)
    maps = {g: [_hom_coords(target, g,
                            lambda a, i: hw_s.apply(g, u, _gen(m, a, i))[1],
                            "eta") for u in family]
            for g, family in _lift_generators(
                hw_s, hw_s.module.components).items()}
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
    lifted = _lift_generators(hw_r, hw_r.module.components)
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (c, p, g, k) in pairs:
            sp, u = _gen(ring_s, c, p), lifted[g][k]

            def image(d1, k1):
                c1, q, a, i = em.index[d1][k1]
                rs = ring_s.multiply(_gen(ring_s, c1, q), sp)
                return en.pure(rs, hw_r.apply(g, u, _gen(m, a, i)))[1]
            rows.append(_hom_coords(target, ring_s.group.add(c, g), image,
                                    "theta"))
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
    lifted = _lift_generators(homlm, homlm.module.components)
    maps = {}
    with _needs_onto(h, "pi"):
        for d, pairs in src.index.items():
            rows = []
            for (g, k, b, j) in pairs:
                u, xj = lifted[g][k], _gen(n, b, j)
                rows.append(_hom_coords(
                    target, grp.add(g, b),
                    lambda a, i: tmn.pure(
                        xj, homlm.apply(g, u, _gen(l, a, i)))[1], "pi"))
            maps[d] = rows
        morphism = GradedMorphism(src.module, target.module, maps)
    return CanonicalMap("pi", morphism, {"h": h, "l": l, "m": m, "n": n})


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
    lifted = _lift_generators(homlm, homlm.module.components)
    maps = {}
    for d, pairs in src.index.items():
        rows = []
        for (g, k, b, j) in pairs:
            u, xj = lifted[g][k], _gen(n, b, j)
            rows.append(_hom_coords(
                target, grp.add(g, b),
                lambda a, i: tmn.pure(homlm.apply(g, u, _gen(l, a, i)), xj)[1],
                "nu"))
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
            xi, yj = _gen(m, a, i), _gen(n, b, j)
            rows.append(_hom_coords(
                target, grp.add(a, b),
                lambda g, k: n.act(inner.apply(g, lifted[g][k], xi), yj)[1],
                "mu"))
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
            xi, u = _gen(l, a, i), lifted_mn[g][k]
            rows.append(_hom_coords(
                target, grp.add(a, g),
                lambda g1, k1: hommn.apply(
                    g, u, homlm.apply(g1, lifted_lm[g1][k1], xi))[1],
                "tau3"))
        maps[d] = rows
    return CanonicalMap("tau3", GradedMorphism(src.module, target.module,
                                               maps),
                        {"l": l, "m": m, "n": n})


def tau(l: GradedModule) -> CanonicalMap:
    """The bidual map L -> Hom(Hom(L, R), R), x -> (u -> u(x))."""
    rm = ring_as_module(l.ring)
    homlr = hom_graded(l, rm)
    target = hom_graded(homlr.module, rm)
    lifted = _lift_generators(homlr, homlr.module.components)
    maps = {}
    for a, comp in l.components.items():
        rows = []
        for i in range(comp.ngens):
            xi = _gen(l, a, i)
            rows.append(_hom_coords(
                target, a, lambda g, k: homlr.apply(g, lifted[g][k], xi)[1],
                "tau"))
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
    maps = {d: [_sum_mod([inj.apply(part.pure(proj.apply(_gen(total, a, i)),
                                              _gen(m, b, j)))[1]
                          for part, proj, inj in zip(parts, projs, tinjs)],
                         n_mod)
                for (a, i, b, j) in pairs]
            for d, pairs in src.index.items()}
    return CanonicalMap("kappa", GradedMorphism(src.module, tgt_total, maps),
                        {"m": m, "family": tuple(family)})


def lambda_big(m: GradedModule, family) -> CanonicalMap:
    """(+)_j Hom(M, N_j) -> Hom(M, (+)_j N_j), (u_j) -> (x -> (u_j(x)))."""
    family = list(family)
    ring = m.ring
    n_mod = ring.n
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
            # each summand's matrix family u_j, with its injection
            parts = [(hw, hw.matrices(*proj.apply(_gen(src_total, g, k))), inj)
                     for hw, proj, inj in zip(homs, sprojs, ninjs)]
            rows.append(_hom_coords(
                target, g,
                lambda a, i: _sum_mod(
                    [inj.apply(hw.apply(g, u, _gen(m, a, i)))[1]
                     for hw, u, inj in parts], n_mod),
                "lambda"))
        maps[g] = rows
    return CanonicalMap("lambda", GradedMorphism(src_total, target.module,
                                                 maps),
                        {"m": m, "family": tuple(family)})


# ---------------------------------------------------------------------------
# coarsening comparison maps


def beta_h(psi: GroupEpi, h: GradedRingHom, m: GradedModule,
           n: GradedModule) -> CanonicalMap:
    """Hom^G_R(M, N)_[psi] -> Hom^H(M_[psi], N_[psi]) for h: R -> S.

    On generators: u -> (x -> u(x)), with each fine generator x of M and
    each value u(x) of N put in its block of the coarsened component.
    """
    hw = mixed_hom(h, m, n)
    hpsi = coarsen_ring_hom(h, psi)
    src = coarsen_module(hw.module, psi, hpsi.target)
    mpsi = coarsen_module(m, psi, hpsi.target)
    npsi = coarsen_module(n, psi, hpsi.source)
    target = mixed_hom(hpsi, mpsi, npsi)
    sgens, _ = coarse_layout(hw.module.components, psi)
    mgens, _ = coarse_layout(m.components, psi)
    _, noff = coarse_layout(n.components, psi)
    lifted = _lift_generators(hw, hw.module.components)

    def image(u, g, ac, i):
        """u(x) in N_[psi], for generator i of M_[psi] in degree ac."""
        e, v = hw.apply(g, u, _gen(m, *mgens[ac][i]))
        vec = [0] * npsi.component(psi.apply(e)).ngens
        if v:
            vec[noff[e]:noff[e] + len(v)] = v
        return tuple(vec)
    maps = {gc: [_hom_coords(target, gc,
                             lambda ac, i: image(lifted[g][k], g, ac, i),
                             "beta") for g, k in gens]
            for gc, gens in sgens.items()}
    return CanonicalMap("beta", GradedMorphism(src, target.module, maps),
                        {"psi": psi, "h": h, "m": m, "n": n})


def beta(psi: GroupEpi, m: GradedModule, n: GradedModule) -> CanonicalMap:
    """Hom^G_R(M, N)_[psi] -> Hom^H_{R[psi]}(M_[psi], N_[psi])."""
    cm = beta_h(psi, GradedRingHom.identity(m.ring), m, n)
    return CanonicalMap("beta", cm.morphism,
                        {"psi": psi, "m": m, "n": n})


def tensor_coarsen_iso(psi: GroupEpi, tw: TensorWitness) -> CanonicalMap:
    """(M (x) N)_[psi] -> M_[psi] (x) N_[psi], an isomorphism.

    On generators: x (x) y -> x (x) y, with each fine generator put in its
    block of the coarsened component.
    """
    hpsi = coarsen_ring_hom(tw.h, psi)
    src = coarsen_module(tw.module, psi, hpsi.target)
    lpsi = coarsen_module(tw.left, psi, hpsi.target)
    rpsi = coarsen_module(tw.right, psi, hpsi.source)
    target = mixed_tensor(hpsi, lpsi, rpsi)
    sgens, _ = coarse_layout(tw.module.components, psi)
    _, loff = coarse_layout(tw.left.components, psi)
    _, roff = coarse_layout(tw.right.components, psi)
    maps = {dc: [target.pure(_gen(lpsi, psi.apply(a), loff[a] + i),
                             _gen(rpsi, psi.apply(b), roff[b] + j))[1]
                 for a, i, b, j in (tw.index[d][k] for d, k in gens)]
            for dc, gens in sgens.items()}
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

    def curried(g, w, x):
        """The element y -> w(x (x) y) of Hom(M, N), for w of degree g."""
        return _hom_coords(
            inner, grp.add(g, x[0]),
            lambda b, j: src.apply(g, w, tlm.pure(x, _gen(m, b, j)))[1],
            "alpha")
    maps = {g: [_hom_coords(target, g,
                            lambda a, i: curried(g, w, _gen(l, a, i)),
                            "alpha") for w in family]
            for g, family in sorted(_lift_generators(
                src, src.module.components).items())}
    forward = GradedMorphism(src.module, target.module, maps)

    def uncurried(g, phi, d, t):
        """w(x (x) y) = phi(x)(y) for the pair t of (L (x) M)_d."""
        a, i, b, j = tlm.index[d][t]
        if a not in phi:
            return n.component(grp.add(g, d)).zero()
        return inner.evaluate((grp.add(g, a), phi[a][i]), _gen(m, b, j))[1]
    inv_maps = {g: [_hom_coords(src, g,
                                lambda d, t: uncurried(g, phi, d, t),
                                "alpha inverse") for phi in family]
                for g, family in sorted(_lift_generators(
                    target, target.module.components).items())}
    backward = GradedMorphism(target.module, src.module, inv_maps)
    return CanonicalMap("alpha", forward,
                        {"h": h, "l": l, "m": m, "n": n}, backward)
