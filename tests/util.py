"""Shared helpers for the test suite."""

import itertools

from gradedmod import analyze
from gradedmod.graded import (GradedError, GradedModule, GradedMorphism,
                              _unit_vec, apply_tensor, graded_kernel)
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
