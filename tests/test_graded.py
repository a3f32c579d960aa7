"""Graded rings, modules and morphisms: validation, constructions, coarsening."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmod import corpus
from gradedmod.abelian import make_epi, make_group
from gradedmod.analyze import is_mono, is_ring_epimorphism
from gradedmod.graded import (GradedError, GradedModule, GradedMorphism,
                              GradedRing, GradedRingHom, RingMismatch,
                              coarsen_module, coarsen_morphism, coarsen_ring,
                              coarsen_ring_hom, direct_sum, free_module,
                              graded_cokernel, graded_image, graded_kernel,
                              graded_submodule, monomial_quotient,
                              monomial_ring, ring_as_module, shift,
                              shift_morphism)
from gradedmod.znlinalg import FpZnModule, mat_mul
from util import (reference_module_failure, reference_morphism_failure,
                  reference_ring_failure, reference_ring_hom_failure,
                  reference_validate_module, reference_validate_morphism,
                  reference_validate_ring, reference_validate_ring_hom)

G0 = make_group([])
D0 = ()


def _ungraded_ring(n, extra_rels=None):
    comp = FpZnModule(n, 1, extra_rels or [])
    return GradedRing(G0, n, {D0: comp}, {(D0, D0): (((1,),),)}, (1,))


# F_2[t]/(t^2) graded by Z with deg t = 1, and F_2[a]/(a^2) ungraded, on
# the basis 1, a
TRUNCATED = monomial_ring(make_group([0]), 2, [(1,)], [(2,)])
DUAL = monomial_ring(G0, 2, [()], [(2,)])


def test_ring_validation_messages():
    # unit must be nonzero
    with pytest.raises(GradedError, match="unit"):
        GradedRing(G0, 4, {D0: FpZnModule(4, 1, [(1,)])},
                   {(D0, D0): (((1,),),)}, (1,))
    # unitality: 1 * x = 0 instead of x
    with pytest.raises(GradedError, match="unitality"):
        GradedRing(G0, 4, {D0: FpZnModule(4, 2, [])},
                   {(D0, D0): (((1, 0), (0, 0)), ((0, 0), (0, 0)))}, (1, 0))
    # multiplication landing outside the declared support: t * t nonzero
    # while no degree-2 component is declared
    gz = make_group([0])
    c1 = FpZnModule(2, 1, [])
    with pytest.raises(GradedError, match="support"):
        GradedRing(gz, 2, {(0,): c1, (1,): c1},
                   {((0,), (0,)): (((1,),),),
                    ((0,), (1,)): (((1,),),),
                    ((1,), (0,)): (((1,),),),
                    ((1,), (1,)): (((1,),),)},
                   (1,))
    # a unit too short and too long for the two generators of F_2[a]/(a^2)
    for one in ((1,), (1, 0, 0)):
        with pytest.raises(GradedError, match=rf"^one: coefficient count "
                                              rf"{len(one)}, expected 2 "):
            GradedRing(G0, 2, DUAL.components, DUAL.mult, one)
    # a Z/2 component in a ring over Z/4
    with pytest.raises(GradedError, match="modulus"):
        GradedRing(G0, 4, {D0: FpZnModule(2, 1)}, {(D0, D0): (((1,),),)},
                   (1,))
    # basis 1, a, b with a * b = a but b * a = 0
    with pytest.raises(GradedError, match="commutativity fails"):
        GradedRing(G0, 2, {D0: FpZnModule(2, 3)},
                   {(D0, D0): (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                               ((0, 1, 0), (0, 0, 0), (0, 1, 0)),
                               ((0, 0, 1), (0, 0, 0), (0, 0, 0)))},
                   (1, 0, 0))
    # basis 1, a, b with a * a = b and 1 * b = b but b * 1 = 0: b is not
    # a generator, and a failing right unit still reads as non-commutativity
    with pytest.raises(GradedError, match="^commutativity fails"):
        GradedRing(G0, 2, {D0: FpZnModule(2, 3)},
                   {(D0, D0): (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                               ((0, 1, 0), (0, 0, 1), (0, 0, 0)),
                               ((0, 0, 0), (0, 0, 0), (0, 0, 0)))},
                   (1, 0, 0))
    # commutative and unital, but a * a = b and a * b = a, so that
    # (a * a) * b = 0 while a * (a * b) = b
    with pytest.raises(GradedError, match="^associativity fails"):
        GradedRing(G0, 2, {D0: FpZnModule(2, 3)},
                   {(D0, D0): (((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                               ((0, 1, 0), (0, 0, 1), (0, 1, 0)),
                               ((0, 0, 1), (0, 1, 0), (0, 0, 0)))},
                   (1, 0, 0))
    # Z/4 + Z/2 e with e * e = 1: 2e = 0 but (2e) * e = 2
    with pytest.raises(GradedError, match="multiplication not well defined"):
        GradedRing(G0, 4, {D0: FpZnModule(4, 2, [(0, 2)])},
                   {(D0, D0): (((1, 0), (0, 1)), ((0, 1), (1, 0)))}, (1, 0))


def test_module_validation_messages():
    r = _ungraded_ring(4)
    with pytest.raises(GradedError, match="modulus"):
        GradedModule(r, {D0: FpZnModule(2, 1, [])}, {(D0, D0): (((1,),),)})
    with pytest.raises(GradedError, match="unit action"):
        GradedModule(r, {D0: FpZnModule(4, 1, [])}, {(D0, D0): (((0,),),)})
    # Z/2 acting on Z/4: 2 = 0 in the ring but 2 * m != 0
    with pytest.raises(GradedError, match="action not well defined"):
        GradedModule(_ungraded_ring(4, [(2,)]), {D0: FpZnModule(4, 1)},
                     {(D0, D0): (((1,),),)})
    # a acting as the identity on F_2: (a * a) m = 0 but a (a m) = m
    with pytest.raises(GradedError, match="associativity of the action"):
        GradedModule(DUAL, {D0: FpZnModule(2, 1)},
                     {(D0, D0): (((1,),), ((1,),))})
    # t * m lands in degree 1, where the module has no component
    s = TRUNCATED
    with pytest.raises(GradedError,
                       match="action leaves the declared support"):
        GradedModule(s, {(0,): FpZnModule(2, 1)},
                     {((0,), (0,)): (((1,),),), ((1,), (0,)): (((1,),),)})


def test_morphism_validation():
    r = _ungraded_ring(4)
    m = ring_as_module(r)
    s2 = GradedModule(r, {D0: FpZnModule(4, 1, [(2,)])},
                      {(D0, D0): (((1,),),)})
    with pytest.raises(GradedError, match="well defined"):
        # Z/2 -> Z/4 sending the generator to 1 is not additive
        GradedMorphism(s2, m, {D0: ((1,),)})
    with pytest.raises(GradedError, match="row count"):
        GradedMorphism(m, m, {D0: ((1,), (0,))})
    with pytest.raises(RingMismatch):
        other = ring_as_module(_ungraded_ring(4, [(2,)]))
        GradedMorphism(m, other, {D0: ((1,),)}).compose  # construction raises
    # 1 -> 1, a -> 0 on F_2[a]/(a^2): u(a * 1) = 0 but a * u(1) = a
    d = ring_as_module(DUAL)
    with pytest.raises(GradedError, match="not linear"):
        GradedMorphism(d, d, {D0: ((1, 0), (0, 0))})


def test_ring_hom_validation():
    r4 = _ungraded_ring(4)
    s2 = _ungraded_ring(4, [(2,)])
    with pytest.raises(GradedError, match="unit"):
        GradedRingHom(r4, s2, {D0: ((0,),)})
    # Z/2 -> Z/4 sending 1 to 1 sends the relation 2 to 2
    with pytest.raises(GradedError, match="ring morphism not well defined"):
        GradedRingHom(s2, r4, {D0: ((1,),)})
    # 1 -> 1, a -> 1 on F_2[a]/(a^2): h(a * a) = 0 but h(a) * h(a) = 1
    d = DUAL
    with pytest.raises(GradedError, match="not multiplicative"):
        GradedRingHom(d, d, {D0: ((1, 0), (1, 0))})
    h = GradedRingHom(r4, s2, {D0: ((1,),)})
    assert h.compose(GradedRingHom.identity(r4)) == h
    assert GradedRingHom.identity(s2).compose(h) == h


def test_shift_and_shift_morphism():
    s = TRUNCATED
    m = ring_as_module(s)
    m1 = shift(m, (1,))
    assert sorted(m1.components) == [(-1,), (0,)]
    assert m1.cardinality() == m.cardinality() == 4
    u = shift_morphism(GradedMorphism.identity(m), (1,))
    assert u == GradedMorphism.identity(m1)
    # shifting by zero is the identity on objects
    assert shift(m, (0,)) == m


def test_direct_sum_and_free_module():
    s = TRUNCATED
    m = ring_as_module(s)
    total, injs, projs = direct_sum([m, shift(m, (1,))])
    assert total.cardinality() == 16
    for inj, proj in zip(injs, projs):
        assert proj.compose(inj) == GradedMorphism.identity(inj.source)
    f = free_module(s, [(0,), (1,)])
    assert f.cardinality() == 16
    assert sorted(f.components) == [(-1,), (0,), (1,)]


def test_kernel_image_cokernel_exactness():
    r = _ungraded_ring(4)
    m = ring_as_module(r)
    times2 = GradedMorphism(m, m, {D0: ((2,),)})
    ker, incl = graded_kernel(times2)
    img, _ = graded_image(times2)
    coker, proj = graded_cokernel(times2)
    assert ker.cardinality() == 2 and img.cardinality() == 2
    assert coker.cardinality() == 2
    assert ker.cardinality() * img.cardinality() == m.cardinality()
    # the inclusion followed by the map is zero, as is the map then proj
    assert times2.compose(incl).is_zero
    assert proj.compose(times2).is_zero


def test_graded_submodule_action_stability():
    s = TRUNCATED
    m = ring_as_module(s)
    # (t) = span of t in degree 1 is a submodule
    sub, incl = graded_submodule(m, {(1,): [(1,)]})
    assert sub.cardinality() == 2
    assert sorted(sub.components) == [(1,)]
    # degree-0 span of 1 is not stable: t * 1 leaves it
    with pytest.raises(GradedError, match="stable"):
        graded_submodule(m, {(0,): [(1,)]})


def test_graded_submodule_canonicalizes_its_degree_keys(instances):
    # Z/3-graded F_2[X]/(X^3), deg X = 1: the keys 4 and 5 name the
    # degrees 1 and 2, and the action between them is kept
    m = ring_as_module(instances["d25e_z3"]["ring_r"])
    sub, incl = graded_submodule(m, {(4,): [(1,)], (5,): [(1,)]})
    canonical, _ = graded_submodule(m, {(1,): [(1,)], (2,): [(1,)]})
    assert sub == canonical and len(sub.action) == 3
    sub._validate()
    incl._validate()
    # two keys naming degree 1 pool their generators in R + R
    mm, _, _ = direct_sum([m, m])
    sub, incl = graded_submodule(mm, {(1,): [(1, 0)], (4,): [(0, 1)],
                                      (2,): [(1, 0), (0, 1)]})
    assert sub.component((1,)).ngens == 2 and sub.cardinality() == 16
    sub._validate()
    incl._validate()


def _images(u):
    """Per degree of the source, the set of images of its elements,
    by enumerating them."""
    return {d: {u.apply((d, x))[1] for x in c.elements()}
            for d, c in u.source.components.items()}


def _check_inclusion(incl, expected, ambient):
    """`incl` is a validated mono whose image in each degree of `ambient`
    is the set `expected[d]` (only zero where absent)."""
    incl.source._validate()
    incl._validate()
    assert is_mono(incl) == (True, None)
    got = _images(incl)
    for d, c in ambient.components.items():
        assert got.get(d, {c.zero()}) == expected.get(d, {c.zero()}), d
    order = 1
    for elements in expected.values():
        order *= len(elements)
    assert incl.source.cardinality() == order


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kernel_image_and_submodule_match_the_enumeration(instances, seed):
    # an oracle independent of the linear algebra: the elements that u
    # kills and the elements it reaches, enumerated degree by degree
    rng = random.Random(seed)
    for name in sorted(instances):
        h = instances[name]["h"]
        for ring in (h.source, h.target):
            m = corpus.random_module(ring, rng)
            n_mod = corpus.random_module(ring, rng)
            u = corpus.random_morphism(m, n_mod, rng)
            killed = {d: {x for x in c.elements()
                          if not any(u.apply((d, x))[1])}
                      for d, c in m.components.items()}
            image = _images(u)
            _check_inclusion(graded_kernel(u)[1], killed, m)
            _check_inclusion(graded_image(u)[1], image, n_mod)
            gens = {d: sorted(elements) for d, elements in image.items()}
            _check_inclusion(graded_submodule(n_mod, gens)[1], image, n_mod)
            # is_mono's witness is a nonzero element that u kills
            mono, witness = is_mono(u)
            assert mono == all(len(k) == 1 for k in killed.values())
            if not mono:
                d, x = witness
                assert any(x) and x in killed[d]


def test_coarsening_basics():
    s = TRUNCATED
    psi = make_epi(s.group, make_group([]), [[]])
    cs = coarsen_ring(s, psi)
    assert cs.group.moduli == ()
    assert cs.component(()).ngens == 2
    m = ring_as_module(s)
    cm = coarsen_module(m, psi, cs)
    assert cm.cardinality() == m.cardinality()
    # coarsening is functorial on morphisms
    u = GradedMorphism.identity(m)
    assert coarsen_morphism(u, psi, cs) == GradedMorphism.identity(cm)
    # and on ring maps
    r = monomial_ring(s.group, 2, [], [])
    h = GradedRingHom(r, s, {(0,): ((1,),)})
    ch = coarsen_ring_hom(h, psi)
    assert ch.target == cs
    assert ch.source == coarsen_ring(r, psi)


def test_coarsen_preserves_composition(instances):
    inst = instances["zgraded"]
    h, psi = inst["h"], inst["psi"]
    m = ring_as_module(inst["ring_s"])
    u = GradedMorphism.identity(m)
    cu = coarsen_morphism(u, psi)
    assert cu.compose(cu) == cu
    chh = coarsen_ring_hom(h, psi)
    assert chh.source.n == h.source.n


# ---------------------------------------------------------------------------
# exact validation on algebra generators, against the brute-force reference


def _full_tables(ring):
    """The ring's (components, mult, one), mutable and with every tensor
    written out in full, zero ones included, for `_random_ring_data` to
    perturb."""
    comps, mult = ring.components, {}
    for da, db in itertools.product(comps, repeat=2):
        t = ring.mult.get((da, db))
        width = ring.component(ring.group.add(da, db)).ngens
        mult[(da, db)] = [[list(t[i][j]) if t else [0] * width
                           for j in range(comps[db].ngens)]
                          for i in range(comps[da].ngens)]
    return dict(comps), mult, ring.one


def _identity_rows(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def _change_basis(group, comps, mult, one, n, rng):
    """The same ring, with free components, on a random basis of each.

    Row i of p is the new i-th basis vector in old coordinates and q is
    the inverse of p, so old coordinates v become v q.
    """
    change = {}
    for d, c in comps.items():
        p = [list(r) for r in _identity_rows(c.ngens)]
        q = [list(r) for r in _identity_rows(c.ngens)]
        for _ in range(2 * c.ngens):
            i, j = rng.randrange(c.ngens), rng.randrange(c.ngens)
            f = rng.randrange(n)
            if i != j and f:
                # row_i(p) += f row_j(p), so column_j(q) -= f column_i(q)
                p[i] = [(a + f * b) % n for a, b in zip(p[i], p[j])]
                for row in q:
                    row[j] = (row[j] - f * row[i]) % n
        change[d] = (p, q)
    new = {}
    for (da, db), t in mult.items():
        out = group.add(da, db)
        if out not in comps:
            continue
        (pa, _), (pb, _), (_, q) = change[da], change[db], change[out]
        new[(da, db)] = [[mat_mul((tuple(
            sum(pa[i][a] * pb[j][b] * t[a][b][c]
                for a in range(len(pa)) for b in range(len(pb)))
            for c in range(len(q))),), q, n)[0]
            for j in range(len(pb))] for i in range(len(pa))]
    return new, mat_mul((one,), change[group.zero()][1], n)[0]


_GRADINGS = [(make_group([]), ()), (make_group([0]), (1,)),
             (make_group([2]), (1,)), (make_group([3]), (1,))]


def _random_ring_data(rng):
    """A small commutative unital table on a random basis: a truncated
    polynomial ring, or one whose products of basis vectors other than 1
    are random and symmetric."""
    group, degx = rng.choice(_GRADINGS)
    n = rng.choice([2, 3, 4, 6])
    comps, mult, one = _full_tables(
        monomial_ring(group, n, [degx], [(rng.randrange(2, 6),)]))
    if rng.random() < 0.2:
        zero = group.zero()
        for (da, db), t in sorted(mult.items()):
            for i in range(len(t)):
                for j in range(len(t[i])):
                    if (da, i) == (zero, 0) or (db, j) == (zero, 0) \
                            or (db, j) < (da, i):
                        continue
                    row = [rng.randrange(n) if rng.random() < 0.4 else 0
                           for _ in t[i][j]]
                    t[i][j] = row
                    mult[(db, da)][j][i] = list(row)
    mult, one = _change_basis(group, comps, mult, one, n, rng)
    return group, n, comps, mult, one


def _perturb(tensors, rng, n, symmetric=False):
    """Add a random value to one entry of one tensor, or to its mirror
    image too when `symmetric`; a copy, as nested lists."""
    out = {key: [[list(row) for row in block] for block in t]
           for key, t in tensors.items()}
    keys = [key for key, t in out.items() if t and t[0] and t[0][0]]
    if not keys:
        return out
    key = rng.choice(sorted(keys))
    t = out[key]
    i, j = rng.randrange(len(t)), rng.randrange(len(t[0]))
    c = rng.randrange(len(t[0][0]))
    f = rng.randrange(1, n)
    t[i][j][c] = (t[i][j][c] + f) % n
    mirror = out.get((key[1], key[0]))
    if symmetric and key[0] != key[1] and mirror is not None:
        mirror[j][i][c] = (mirror[j][i][c] + f) % n
    elif symmetric and key[0] == key[1] and i != j:
        t[j][i][c] = (t[j][i][c] + f) % n
    return out


def _accepts(build):
    try:
        build(True)
    except GradedError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_check_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    group, n, comps, mult, one = _random_ring_data(rng)
    if rng.random() < 0.6:
        mult = _perturb(mult, rng, n, symmetric=rng.random() < 0.8)

    def build(validate):
        return GradedRing(group, n, comps, mult, one, validate=validate)
    ring = build(False)
    assert _accepts(build) == (reference_ring_failure(ring) is None)


def _valid_ring(rng):
    while True:
        group, n, comps, mult, one = _random_ring_data(rng)
        ring = GradedRing(group, n, comps, mult, one, validate=False)
        if reference_ring_failure(ring) is None:
            return ring


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_module_check_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    ring = _valid_ring(rng)
    m = corpus.random_module(ring, rng)
    action = m.action
    if rng.random() < 0.7:
        # every pair of degrees with a target, so that zero tensors too
        # can be perturbed
        full = {}
        for dc, rc in ring.components.items():
            for dh, mc in m.components.items():
                out = m.components.get(ring.group.add(dc, dh))
                if out is not None:
                    full[(dc, dh)] = action.get((dc, dh)) or [
                        [[0] * out.ngens for _ in range(mc.ngens)]
                        for _ in range(rc.ngens)]
        action = _perturb(full, rng, ring.n)

    def build(validate):
        return GradedModule(ring, m.components, action, validate=validate)
    assert _accepts(build) == (reference_module_failure(build(False)) is None)


def _perturb_maps(maps, source, target, rng, n):
    degs = sorted(d for d in source.components if target.component(d).ngens)
    maps = {d: [list(r) for r in mat] for d, mat in maps.items()}
    if degs:
        d = rng.choice(degs)
        mat = maps.setdefault(d, [[0] * target.component(d).ngens
                                  for _ in range(source.component(d).ngens)])
        i, j = rng.randrange(len(mat)), rng.randrange(len(mat[0]))
        mat[i][j] = (mat[i][j] + rng.randrange(1, n)) % n
    return maps


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_morphism_check_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    ring = _valid_ring(rng)
    m1, m2, u = corpus.random_endo_pair(ring, rng)
    maps = u.maps
    if rng.random() < 0.7:
        maps = _perturb_maps(maps, m1, m2, rng, ring.n)

    def build(validate):
        return GradedMorphism(m1, m2, maps, validate=validate)
    assert _accepts(build) == (reference_morphism_failure(build(False))
                               is None)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_hom_check_agrees_with_the_reference(seed):
    rng = random.Random(seed)
    group, degx = rng.choice(_GRADINGS)
    n = rng.choice([2, 3, 4, 6])
    k = rng.randrange(2, 6)
    j = rng.randrange(1, k + 1)
    i = rng.randrange(j, k + 1)
    # R/(X^i) ->> R/(X^j) for R = (Z/n)[X]/(X^k), both presented on R's
    # basis: the identity matrices
    r, s = (monomial_quotient(group, n, [degx], [(k,)], [(e,)]).target
            for e in (i, j))
    maps = {d: _identity_rows(c.ngens) for d, c in r.components.items()}
    if rng.random() < 0.8:
        maps = _perturb_maps(maps, r, s, rng, n)

    def build(validate):
        return GradedRingHom(r, s, maps, validate=validate)
    assert _accepts(build) == (reference_ring_hom_failure(build(False))
                               is None)


# ---------------------------------------------------------------------------
# the validation kernel against the loops it replaced: the same first
# failing check, with the same message


def _raised(check):
    """(type, message) of the GradedError that `check()` raises, or None."""
    try:
        check()
    except GradedError as exc:
        return type(exc), str(exc)
    return None


def _perturb_relation(comps, rng, n):
    """`comps` with one component given one more random relation, or one
    fewer."""
    comps = dict(comps)
    d = rng.choice(sorted(comps))
    c = comps[d]
    rels = list(c.rels)
    if rels and rng.random() < 0.3:
        rels.pop(rng.randrange(len(rels)))
    else:
        rels.append(tuple(rng.randrange(n) for _ in range(c.ngens)))
    comps[d] = FpZnModule(n, c.ngens, rels)
    return comps


def _some_ring(rng, instances):
    """A valid ring: a random table, or R or S of a named instance."""
    if rng.random() < 0.5:
        return _valid_ring(rng)
    inst = instances[rng.choice(sorted(instances))]
    return inst[rng.choice(["ring_r", "ring_s"])]


def _full_tensors(ring, comps, tensors):
    """`tensors` at every pair of degrees with a target, zero ones too, so
    that absent tensors can be perturbed."""
    full = {}
    for dc, rc in ring.components.items():
        for dh, mc in comps.items():
            out = comps.get(ring.group.add(dc, dh))
            if out is not None:
                full[(dc, dh)] = tensors.get((dc, dh)) or [
                    [[0] * out.ngens for _ in range(mc.ngens)]
                    for _ in range(rc.ngens)]
    return full


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_check_raises_the_reference_message(instances, seed):
    rng = random.Random(seed)
    if rng.random() < 0.5:
        group, n, comps, mult, one = _random_ring_data(rng)
    else:
        ring = _some_ring(rng, instances)
        group, n, one = ring.group, ring.n, ring.one
        comps, mult = ring.components, _full_tensors(ring, ring.components,
                                                     ring.mult)
    kind = rng.randrange(4)
    if kind == 0:
        mult = _perturb(mult, rng, n, symmetric=rng.random() < 0.5)
    elif kind == 1:
        comps = _perturb_relation(comps, rng, n)
    elif kind == 2:
        one = tuple(rng.randrange(n) for _ in one)
    try:
        ring = GradedRing(group, n, comps, mult, one, validate=False)
    except GradedError:
        return  # a zero unit is refused before any axiom is checked
    assert _raised(ring._validate) == _raised(
        lambda: reference_validate_ring(ring))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_module_check_raises_the_reference_message(instances, seed):
    rng = random.Random(seed)
    ring = _some_ring(rng, instances)
    m = corpus.random_module(ring, rng)
    comps, action = m.components, m.action
    kind = rng.randrange(3)
    if kind == 0:
        action = _perturb(_full_tensors(ring, comps, action), rng, ring.n)
    elif kind == 1:
        comps = _perturb_relation(comps, rng, ring.n)
    module = GradedModule(ring, comps, action, validate=False)
    assert _raised(module._validate) == _raised(
        lambda: reference_validate_module(module))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_morphism_check_raises_the_reference_message(instances, seed):
    rng = random.Random(seed)
    ring = _some_ring(rng, instances)
    m1, m2, u = corpus.random_endo_pair(ring, rng)
    maps = u.maps
    if rng.random() < 0.7:
        maps = _perturb_maps(maps, m1, m2, rng, ring.n)
    u = GradedMorphism(m1, m2, maps, validate=False)
    assert _raised(u._validate) == _raised(
        lambda: reference_validate_morphism(u))


# ring morphisms beyond the named instances: R -> R/(X^2 Y) for
# R = (Z/4)[X, Y]/(X^3, Y^2) over Z^2, whose S has two algebra generators,
# and (Z/6)[X]/(X^4) -> (Z/6)[X]/(X^3) over Z/3, whose rings are not *local
MORE_HOMS = (
    monomial_quotient(make_group([0, 0]), 4, [(1, 0), (0, 1)],
                      [(3, 0), (0, 2)], [(2, 1)]),
    monomial_quotient(make_group([3]), 6, [(1,)], [(4,)], [(3,)]))


def test_more_ring_homs_are_as_described():
    two, non_local = MORE_HOMS
    assert len(two.target.algebra_generators) == 2
    assert not non_local.source.is_local and not non_local.target.is_local


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ring_hom_check_raises_the_reference_message(instances, seed):
    rng = random.Random(seed)
    h = rng.choice([instances[name]["h"] for name in sorted(instances)]
                   + list(MORE_HOMS))
    maps = h.maps
    if rng.random() < 0.8:
        maps = _perturb_maps(maps, h.source, h.target, rng, h.source.n)
    h = GradedRingHom(h.source, h.target, maps, validate=False)
    assert _raised(h._validate) == _raised(
        lambda: reference_validate_ring_hom(h))


def test_module_check_names_the_first_failure_in_loop_order():
    """R = F_2 e1 + F_2 e2 + F_2 e3 with orthogonal idempotents, in degree
    0 of Z, and M = F_2^2 in degrees 0 and 1, on which e1, e2 act by A1,
    A2 and e3 by 1 - A1 - A2.  With y = e1, associativity fails at x = e2
    and e3 in degree 0 and at x = e1 in degree 1; the generators x are the
    outer loop, so degree 1 is named."""
    z0, z1 = (0,), (1,)
    e = _identity_rows(3)
    table = tuple(tuple(e[i] if i == j else (0, 0, 0) for j in range(3))
                  for i in range(3))
    ring = GradedRing(make_group([0]), 2, {z0: FpZnModule(2, 3)},
                      {(z0, z0): table}, (1, 1, 1))
    assert ring.algebra_generators[0] == (z0, e[0])

    def acting(a1, a2):
        a3 = tuple(tuple((int(r == c) + x + y) % 2
                         for c, (x, y) in enumerate(zip(r1, r2)))
                   for r, (r1, r2) in enumerate(zip(a1, a2)))
        return a1, a2, a3
    action = {(z0, z0): acting(((0, 0), (0, 1)), ((0, 0), (0, 1))),
              (z0, z1): acting(((0, 0), (1, 0)), ((0, 0), (0, 0)))}
    m = GradedModule(ring, {z0: FpZnModule(2, 2), z1: FpZnModule(2, 2)},
                     action, validate=False)
    expected = "associativity of the action fails at (0,),(0,),(1,)"
    assert _raised(m._validate) == (GradedError, expected)
    assert _raised(lambda: reference_validate_module(m)) == (GradedError,
                                                             expected)


def test_light_test_catches_failures_off_the_generators():
    # basis 1, a, b, c over F_2 with a*a = b, a*b = c, c*c = b and every
    # other product of a, b, c zero: commutative and unital, generated by
    # a, and the brute-force loop first fails at (a*b)*c = b != 0 = a*(b*c),
    # whose middle factor b is not a generator
    e = _identity_rows(4)
    z = (0, 0, 0, 0)
    table = (e, (e[1], e[2], e[3], z), (e[2], e[3], z, z), (e[3], z, z, e[2]))
    ring = GradedRing(G0, 2, {D0: FpZnModule(2, 4)}, {(D0, D0): table},
                      e[0], validate=False)
    assert ring.algebra_generators == ((D0, e[1]),)
    axiom, (_, y, _) = reference_ring_failure(ring)
    assert axiom == "associativity" and y == (D0, e[2])
    with pytest.raises(GradedError,
                       match=r"^associativity fails at \(\),\(\),\(\)$"):
        GradedRing(G0, 2, {D0: FpZnModule(2, 4)}, {(D0, D0): table}, e[0])
    # F_2 over F_2[a]/(a^3) with a and a^2 both acting as 1: (a*a)m = a(am)
    # holds, and the brute-force loop first fails at (a*a^2)m = 0 != m =
    # a(a^2 m), whose middle factor a^2 is not a generator
    r = monomial_ring(G0, 2, [()], [(3,)])
    assert r.algebra_generators == ((D0, (0, 1, 0)),)
    action = {(D0, D0): (((1,),), ((1,),), ((1,),))}
    m = GradedModule(r, {D0: FpZnModule(2, 1)}, action, validate=False)
    axiom, (_, y, _) = reference_module_failure(m)
    assert axiom == "associativity" and y == (D0, (0, 0, 1))
    with pytest.raises(GradedError, match=r"^associativity of the action "
                                          r"fails at \(\),\(\),\(\)$"):
        GradedModule(r, {D0: FpZnModule(2, 1)}, action)


@pytest.mark.parametrize("group,degx,x", [
    (G0, (), (D0, _identity_rows(16)[1])),
    (make_group([0]), (1,), ((1,), (1,)))], ids=["ungraded", "Z-graded"])
def test_algebra_generators_of_truncated_polynomial_ring(group, degx, x):
    """(Z/2)[X]/(X^16) is generated by X alone, the unit being a basis
    vector, and 1 with the left-normed powers of X reaches every basis
    vector."""
    ring = monomial_ring(group, 2, [degx], [(16,)])
    assert ring.algebra_generators == (x,)
    power, reached = ring.one_element(), {ring.one_element()}
    for _ in range(15):
        power = ring.multiply(power, x)
        reached.add(power)
    basis = {(d, row) for d, c in ring.components.items()
             for row in _identity_rows(c.ngens)}
    assert reached == basis


# ---------------------------------------------------------------------------
# monomial rings against an independent enumeration of exponent vectors


@st.composite
def monomial_ring_data(draw):
    """(group, n, degrees, pure powers, ideal, killed): 1-3 variables, a
    trivial, Z, Z/m or Z^2 grading, an ideal of the pure powers and up to
    two more monomials, and one or two generators of an ideal J."""
    moduli = draw(st.sampled_from([[], [0], [2], [3], [0, 0]]))
    r = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.tuples(*[st.integers(-1, 2)] * len(moduli)),
                            min_size=r, max_size=r))
    powers = draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))
    # nonconstant: the unit would generate the whole ring
    monomial = st.tuples(*[st.integers(0, 3)] * r).filter(any)
    ideal = [tuple(p * (q == i) for q in range(r))
             for i, p in enumerate(powers)]
    return (make_group(moduli), draw(st.sampled_from([2, 3, 4, 6, 9])),
            degrees, powers, ideal + draw(st.lists(monomial, max_size=2)),
            draw(st.lists(monomial, min_size=1, max_size=2)))


@settings(max_examples=100, deadline=None)
@given(monomial_ring_data())
def test_monomial_ring_matches_the_enumeration(data):
    group, n, degrees, powers, ideal, killed = data

    def outside(e, gens):
        return not any(all(a <= b for a, b in zip(g, e)) for g in gens)

    def degree(e):
        return group.canon([sum(x * d[c] for x, d in zip(e, degrees))
                            for c in range(len(group.moduli))])
    # the standard monomials in the documented order: by total degree, then
    # larger powers of earlier variables first
    standard = sorted((e for e in itertools.product(*map(range, powers))
                       if outside(e, ideal)),
                      key=lambda e: (sum(e), [-x for x in e]))
    basis = {}
    for e in standard:
        basis.setdefault(degree(e), []).append(e)

    def element(e):
        return degree(e), tuple(int(f == e) for f in basis[degree(e)])
    ring = monomial_ring(group, n, degrees, ideal)
    assert ring.components == {d: FpZnModule(n, len(es))
                               for d, es in basis.items()}
    assert ring.one_element() == element(standard[0])
    for a, b in itertools.product(standard, repeat=2):
        c = tuple(x + y for x, y in zip(a, b))
        assert ring.multiply(element(a), element(b)) == (
            element(c) if c in standard
            else (degree(c), ring.component(degree(c)).zero()))
    assert ring_as_module(ring).cardinality() == n ** len(standard)
    h = monomial_quotient(group, n, degrees, ideal, killed)
    assert h.source == ring and is_ring_epimorphism(h)
    kept = [e for e in standard if outside(e, killed)]
    assert ring_as_module(h.target).cardinality() == n ** len(kept)
    # without the pure powers of the last variable the ring is not finite
    with pytest.raises(GradedError, match="not finite"):
        monomial_ring(group, n, degrees, [g for g in ideal if any(g[:-1])])
