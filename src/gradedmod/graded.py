"""Graded rings, modules and morphisms with finite support.

A G-graded ring holds one finitely presented Z/nZ-module per supported
degree plus bilinear structure tensors for multiplication; modules carry
action tensors R_g x M_h -> M_{g+h}.  Morphisms are degree-zero and stored
as one matrix per degree.  Objects are immutable after construction; any
degree outside the stored support denotes the zero component.

One rule says which objects are checked against their axioms: validate
at the trust boundary and trust derivations.
- The boundary: every constructor a caller uses defaults to
  `validate=True`, and `textio` builds every object it parses that way.
- Derivations are built with `validate=False` from objects that passed:
  here `shift`, `direct_sum`, submodules, kernels, images, cokernels and
  coarsening, and in `functors` every output of restriction, extension,
  coextension, tensor and Hom, modules and morphisms alike, and the
  one-sided inverses that `analyze` solves from a Hom presentation.
  Each is a graded object by the construction that builds it, so a
  second axiom pass repeats checks that correct code cannot fail.
  Construction still canonicalizes every object (`_canon_structure`,
  `_init_maps`), so only the axiom checks are skipped.
- The maps of `canonical` stay validated.  Each is built from an element
  formula, and its validation is the check of that formula; a formula
  that needs h onto fails there, and `canonical` names the degree h
  misses.
The test suite validates every functor output and every solved inverse
in full all the same, through `tests/conftest.py`.

One axiom checker serves rings and modules: a ring is checked as a
commutative module over itself, so the support, unit, well-definedness
and associativity checks of a module also check a ring's multiplication.
Module morphisms and ring morphisms share one core for their degreewise
matrix families: canonicalization, evaluation, composition, equality,
well-definedness, surjectivity and linearity.  A ring morphism h: R -> S
is checked multiplicative as an R-linear map R -> h_*(S), by the loop
that checks a module morphism.

Every axiom is checked exactly, by matrix equality, but each multilinear
axiom runs one of its arguments over a set of homogeneous generators of
R as a Z/n-algebra (`GradedRing.algebra_generators`) instead of over a
Z/n-basis.  This is Light's associativity test (Clifford-Preston, *The
Algebraic Theory of Semigroups*, vol. I): the elements y with
(xy)m = x(ym) for all x and m form a Z/n-submodule that holds 1 and is
closed under products, so it is all of R once it holds the generators.
The same argument covers commutativity (the centre is a subalgebra of an
associative ring), R-linearity of a module morphism and multiplicativity
of a ring morphism.  The order of the checks, and what each one trusts,
is spelled out at `_check_module_axioms` and at the `_validate` methods.
"""

from __future__ import annotations

import itertools

from .abelian import FgAbelianGroup, GroupEpi
from .znlinalg import (FpZnModule, Subquotient, howell, identity_matrix,
                       mat_mul, preimage_gens, reduce_mod_span, row_kernel,
                       span_contains, vec_mat, zero_matrix)


class GradedError(Exception):
    """Raised when a graded object fails one of its axioms."""


class RingMismatch(GradedError):
    pass


class GroupMismatch(GradedError):
    pass


def apply_tensor(tensor, x, y, out: FpZnModule) -> tuple[int, ...]:
    """Bilinear evaluation sum_i sum_j x_i y_j t[i][j]."""
    acc = [0] * out.ngens
    if tensor is not None:
        for xi, block in zip(x, tensor):
            if xi:
                for yj, row in zip(y, block):
                    if yj:
                        for k, v in enumerate(row):
                            acc[k] += xi * yj * v
    return out.reduce(acc)


def _degree_key(group: FgAbelianGroup, table, deg):
    """`deg` as a key of `table`: as given if found there, else canonical.

    Every stored degree is canonical, so a degree found as given needs no
    canonicalization; any other is canonicalized, which also rejects a
    wrong coordinate length.
    """
    if type(deg) is tuple and deg in table:
        return deg
    return group.canon(deg)


_ZERO_CACHE: dict[int, FpZnModule] = {}


def zero_component(n: int) -> FpZnModule:
    if n not in _ZERO_CACHE:
        _ZERO_CACHE[n] = FpZnModule(n, 0)
    return _ZERO_CACHE[n]


def _unit_vec(k: int, i: int) -> tuple[int, ...]:
    return (0,) * i + (1,) + (0,) * (k - i - 1)


def _key_eq(self, other):
    return self is other or (type(other) is type(self)
                             and self._key() == other._key())


def _key_hash(self):
    return hash(self._key())


# ---------------------------------------------------------------------------
# rings and modules: one canonicalizer, one axiom checker

# How the error messages name the action, its unit axiom and its
# associativity axiom, for a ring acting on itself and for a module.
_RING_WORDS = ("multiplication", "unitality", "associativity")
_MODULE_WORDS = ("action", "unit action", "associativity of the action")


def _canon_structure(group, n, components, tensors, what, left=None):
    """Canonical components and structure tensors of a ring or a module.

    Degrees are canonicalized, every component must be a Z/n-module, and
    components without generators are dropped.  The tensor at (g, h) maps
    left_g x M_h to M_{g+h}, where `left` holds the ring's components
    (None: the components themselves, for a ring).  Tensors whose factors
    are not in the support are dropped, zero tensors too; a nonzero tensor
    landing outside the support is rejected.  Every entry is reduced in its
    target component.  The functor and submodule builders rely on this and
    pass their tensors unreduced, zero ones included.
    """
    comps = {}
    for deg, comp in components.items():
        deg = group.canon(deg)
        if comp.n != n:
            raise GradedError("component modulus differs from the ring modulus")
        if comp.ngens:
            comps[deg] = comp
    if left is None:
        left = comps
    canon = {}
    for (dg, dh), t in tensors.items():
        dg, dh = _degree_key(group, left, dg), _degree_key(group, comps, dh)
        if dg not in left or dh not in comps:
            continue
        out_deg = group.add(dg, dh)
        out = comps.get(out_deg)
        if out is None:
            if any(v % n for block in t for row in block for v in row):
                raise GradedError(f"{what} leaves the declared support")
            continue
        rows = tuple(tuple(out.reduce(t[i][j]) for j in range(comps[dh].ngens))
                     for i in range(left[dg].ngens))
        if any(any(v) for block in rows for v in block):
            canon[(dg, dh)] = rows
    return comps, canon


def _product(group, comps, tensors, da, a, db, b):
    """(deg, coords) of a*b for a in degree da and b in degree db, both
    canonical: `tensors` maps left_da x M_db into `comps` at da + db, and a
    product outside the support is the empty vector of the zero component.
    """
    out_deg = group.add(da, db)
    out = comps.get(out_deg)
    if out is None:
        return out_deg, ()
    return out_deg, apply_tensor(tensors.get((da, db)), a, b, out)


def _algebra_generators(ring):
    """Homogeneous unit vectors (deg, coords) that generate `ring` as a
    Z/n-algebra.

    Degree by degree in sorted order, a unit vector becomes a generator
    when the closure so far misses it.  The closure is the degreewise Z/n
    span, in Howell form with the relations, of 1, the generators and
    every left-normed product (..(g_1 g_2)..) g_k of generators: the least
    span that holds 1 and the generators and is closed under right
    multiplication by each generator.  When the loop ends every unit
    vector lies in the closure, so the closure is all of R.  No step
    assumes associativity, commutativity or a unit.
    """
    g, n, comps, mult = ring.group, ring.n, ring.components, ring.mult
    # per degree, the component modulo the closure so far: its relations
    # are the closure's Howell form, kept with their pivots
    spans = dict(comps)
    found, gens = [], []

    def close(queue):
        while queue:
            d, v = queue.pop()
            if d not in comps or _vanishes(spans[d], v):
                continue
            spans[d] = FpZnModule(n, comps[d].ngens, spans[d].rels + (v,))
            found.append((d, v))
            queue += [_product(g, comps, mult, d, v, dg, gv)
                      for dg, gv in gens]

    close([ring.one_element()])
    for d in sorted(comps):
        k = comps[d].ngens
        for j in range(k):
            e = _unit_vec(k, j)
            if _vanishes(spans[d], e):
                continue
            gens.append((d, e))
            close([(d, e)] + [_product(g, comps, mult, df, f, d, e)
                              for df, f in found])
    return tuple(gens)


# ---------------------------------------------------------------------------
# *local factors: graded Nakayama
#
# A graded ring is *local when its homogeneous non-units span a proper
# ideal m.  Over such a ring R/m is a graded field, and a homogeneous
# generating set of a module M is minimal iff it gives a basis of M/mM
# (graded Nakayama: Bruns-Herzog, *Cohen-Macaulay Rings*, section 1.5).
# Every finite graded ring is a product of *local rings eR, one for each
# primitive idempotent e of R_0 (homogeneous idempotents live in degree
# 0), and every module M splits as the sum of the eM.  The factors stay
# inside the presentation of R: each is an idempotent e with its prime p,
# and the ideal J_e of the r with er nilpotent stands in for m, since
# R/J_e is the graded field of eR.  A *local ring has the one factor 1.
#
# eR is *local when eR_0 is local: a homogeneous x of eR that is not
# nilpotent has a degree of finite order o, since R is finite, so x^o lies
# in eR_0 and is not nilpotent; it is a unit there, and so is x.  Hence
# the homogeneous non-units of eR are its homogeneous nilpotents, and they
# span an ideal.


def _primes(n: int):
    """The prime factors of n, in increasing order."""
    primes, q = [], 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return primes + [n] if n > 1 else primes


def _power(ring, deg, x, e: int):
    """(deg, coords) of x^e for x homogeneous of canonical degree `deg`,
    e >= 1, by repeated squaring; a power outside the support is zero."""
    g, comps, mult = ring.group, ring.components, ring.mult
    result = None
    while True:
        if e & 1:
            result = (deg, x) if result is None else _product(
                g, comps, mult, result[0], result[1], deg, x)
        e >>= 1
        if not e:
            return result
        deg, x = _product(g, comps, mult, deg, x, deg, x)


def _factors(ring):
    """The *local factors (e, p) of R: orthogonal idempotents e of R_0,
    each with its prime p, that sum to 1 and each make eR *local.

    First the Chinese remainder theorem: for each prime power q of n, the
    integer c = 1 mod q, 0 mod n/q gives an idempotent c*1, which is
    nonzero iff p divides the additive order of 1.  Then each nonzero c*1
    splits by `_split`.  A *local ring has the one factor (1, p).
    """
    n = ring.n
    comp = ring.components[ring.group.zero()]
    factors = []
    for p in _primes(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        c = n // q * pow(n // q, -1, q)
        e = comp.reduce([c * x for x in ring.one])
        if any(e):
            factors += [(f, p) for f in _split(ring, e, p)]
    return tuple(factors)


def _split(ring, e, p: int):
    """The primitive idempotents of R_0 below e, the idempotent of the
    Chinese remainder theorem for p: pR_0 holds (1 - e)R_0 and is
    nilpotent on eR_0.

    A = R_0/pR_0 = eR_0/peR_0 is a commutative F_p-algebra, on which the
    Frobenius x -> x^p is F_p-linear.  Its fixed space B is the Berlekamp
    subalgebra, isomorphic to F_p^c with one coordinate per local factor
    of A (Berlekamp, "Factoring polynomials over finite fields", 1967),
    so eR_0 is local iff c = 1.  Otherwise, for b in a basis of B, the
    e_l = 1 - (b - l)^(p-1), l in F_p, are the idempotents on which b is
    l; multiplying them out over the basis leaves the c primitive
    idempotents of A.  Each lifts to R_0 by e -> 3e^2 - 2e^3, which
    squares its error x^2 - x, a multiple of p and so nilpotent; the
    lifts stay orthogonal and sum to e.
    """
    g, comps, mult = ring.group, ring.components, ring.mult
    zero = g.zero()
    comp = comps[zero]
    k = comp.ngens
    hp = howell([[x % p for x in r] for r in comp.rels], k, p)
    # over F_p the Howell form is reduced echelon, so the unit vectors off
    # its pivot columns are a basis of A, and a reduced vector is zero on
    # the pivot columns
    pivots = {row.index(1) for row in hp}
    basis = [j for j in range(k) if j not in pivots]

    def mod_p(v):
        return reduce_mod_span([x % p for x in v], hp, p)

    rows = []  # the matrix of x -> x^p - x on that basis
    for j in basis:
        v = list(mod_p(_power(ring, zero, _unit_vec(k, j), p)[1]))
        v[j] -= 1
        rows.append([v[c] for c in basis])
    fixed = row_kernel(rows, len(basis), p)
    if len(fixed) == 1:
        return (e,)

    def times(x, y):
        return _product(g, comps, mult, zero, x, zero, y)[1]

    one = mod_p(ring.one)
    idempotents = [one]
    for b in fixed:
        at = dict(zip(basis, b))
        x = [at.get(j, 0) for j in range(k)]
        parts = []
        for l in range(p):
            _, y = _power(ring, zero, [a - l * u for a, u in zip(x, one)],
                          p - 1)
            parts.append([a - u for a, u in zip(one, mod_p(y))])
        idempotents = [z for f in idempotents for part in parts
                       for z in [mod_p(times(f, part))] if any(z)]
    lifts = []
    for f in idempotents:
        x, y = None, times(e, f)
        while y != x:
            x, sq = y, times(y, y)
            y = comp.reduce([3 * a - 2 * b for a, b in zip(sq, times(sq, x))])
        lifts.append(x)
    return tuple(lifts)


def _nilpotent_ideal(ring, factor):
    """Per degree d, the Howell form over Z/n of (J_e)_d together with the
    relations of R_d, for the factor (e, p): J_e holds the r with er
    nilpotent, so it holds (1 - e)R, and R/J_e is the graded field of eR.
    For e = 1, J_e is the ideal m of homogeneous nilpotents.

    pR is nilpotent on eR, so er is nilpotent iff it is nilpotent mod p.
    The Frobenius power F^N: x -> x^(p^N) is F_p-linear on R/pR, and a
    nilpotent x of the F_p-algebra R/pR has x^D = 0 for D = dim R/pR,
    since the ideals x^i R/pR strictly decrease until they vanish.  So
    with q = p^N > D, (J_e)_d is the preimage in R_d of the kernel of
    x -> e x^q on (R/pR)_d: the lifts of that kernel plus pR_d.  The
    kernel is one linear solve per degree.
    """
    e, p = factor
    g, n, comps = ring.group, ring.n, ring.components
    zero = g.zero()
    hp = {d: howell([[x % p for x in r] for r in c.rels], c.ngens, p)
          for d, c in comps.items()}
    dim = sum(c.ngens - len(hp[d]) for d, c in comps.items())
    q = p
    while q <= dim:
        q *= p
    ideal = {}
    for d, c in comps.items():
        k = c.ngens
        images = [_power(ring, d, _unit_vec(k, j), q) for j in range(k)]
        out = images[0][0]  # every power lands in degree q*d
        if out in comps:
            if e != ring.one:
                images = [_product(g, comps, ring.mult, zero, e, out, v)
                          for _, v in images]
            rows = [reduce_mod_span([x % p for x in v], hp[out], p)
                    for _, v in images]
            kernel = row_kernel(rows, comps[out].ngens, p)
        else:
            kernel = [_unit_vec(k, j) for j in range(k)]
        multiples = [[p if i == j else 0 for i in range(k)] for j in range(k)]
        ideal[d] = howell(list(kernel) + multiples + list(c.rels), k, n)
    return ideal


def _minimal_generators(module, ideal):
    """A homogeneous set (deg, unit vector) of a module M whose multiples
    by e minimally generate eM, for a factor e of the ring with the ideal
    J_e (`_nilpotent_ideal`); for a *local ring, a minimal generating set.

    Degree by degree in sorted order, a unit vector is picked when it lies
    outside the Z/n span of the relations, of J_e M and of the R-multiples
    of the earlier picks.  At the end every unit vector lies in that span,
    so the picks generate M/J_e M = eM/m eM, for m the homogeneous
    nilpotents of eR; their multiples by e then generate eM, as m is
    nilpotent.  R/J_e is a graded field, in which every nonzero
    homogeneous element is a unit, so a pick outside the span of the
    earlier ones is independent of them in M/J_e M: the picks are a basis
    of M/J_e M, and no generating set of eM is smaller.
    """
    ring = module.ring
    g, n, comps, action = ring.group, ring.n, module.components, module.action
    pending = {d: list(c.rels) for d, c in comps.items()}  # rows to span
    for dr, rows in ideal.items():
        for dh, ch in comps.items():
            t = action.get((dr, dh))
            if t is None:
                continue
            out = comps[g.add(dr, dh)]
            pending[g.add(dr, dh)] += [
                apply_tensor(t, r, _unit_vec(ch.ngens, j), out)
                for r in rows for j in range(ch.ngens)]
    zero = g.zero()
    picks = []
    for d in sorted(comps):
        k = comps[d].ngens
        span = howell(pending[d], k, n)
        for j in range(k):
            if span_contains(_unit_vec(k, j), span, n):
                continue
            picks.append((d, _unit_vec(k, j)))
            # the multiples r e_j for the unit vectors r of R_c are the
            # stored rows t[p][j] of the action tensor at (c, d)
            for c in ring.components:
                t = action.get((c, d))
                if t is None:
                    continue
                multiples = [block[j] for block in t]
                if c == zero:
                    span = howell(span + tuple(multiples), k, n)
                else:
                    pending[g.add(c, d)] += multiples
    return tuple(picks)


# The validation kernel.  Each axiom instance is an equation lhs = rhs in
# one output component.  The kernel adds up lhs - rhs unreduced and asks
# that component once whether the difference vanishes (`_vanishes`).
# That is exact: reduction against a Howell form is canonical, so
# reduce(a) == reduce(b) iff reduce(a - b) == 0.  Every instance
# multiplies at least one generator, a unit vector e_i, so each product
# reads one row or one column of a stored tensor: e_i times e_j is the
# entry t[i][j], e_i times s combines the row t[i], and r times e_j
# combines the column of entries t[.][j].  An absent tensor is zero.
#
# A product that feeds a second product, such as y m in x(y m), is also
# left unreduced, and taken once per algebra generator y.  Every
# representative of an element has the same image under a tensor or a
# matrix that is well defined, and well-definedness is checked before
# associativity and linearity.


def _terms(v):
    """The nonzero coefficients of v, as (index, coefficient) pairs."""
    return [(i, c) for i, c in enumerate(v) if c]


def _sum(terms, rows, size):
    """sum_b c_b rows[b] over the (b, c_b) of `terms`, unreduced, of length
    `size`: e_i times s is `_sum(_terms(s), t[i], size)`, and the image of
    v under a matrix is `_sum(_terms(v), matrix, size)`.  A lone term with
    coefficient 1 is its row."""
    if len(terms) == 1 and terms[0][1] == 1:
        return rows[terms[0][0]]
    acc = [0] * size
    for b, c in terms:
        acc = [a + c * v for a, v in zip(acc, rows[b])]
    return acc


def _column(terms, t, j, size):
    """r times the generator e_j through the tensor t, sum_i r_i t[i][j]
    over the (i, r_i) of `terms`, unreduced, of length `size`.  A lone
    term with coefficient 1 is its entry."""
    if len(terms) == 1 and terms[0][1] == 1:
        return t[terms[0][0]][j]
    acc = [0] * size
    for i, c in terms:
        acc = [a + c * v for a, v in zip(acc, t[i][j])]
    return acc


def _vanishes(out, lhs, rhs=None):
    """Whether lhs - rhs, or lhs alone when rhs is None, is zero in the
    component `out`, for unreduced vectors: one reduction, which two
    vectors equal as they stand do not need."""
    if rhs is None:
        return not any(out.reduce(lhs))
    return lhs == rhs or not any(out.reduce([a - b
                                             for a, b in zip(lhs, rhs)]))


def _check_module_axioms(ring, comps, tensors, words):
    """The module axioms of `ring` acting on `comps` through `tensors`.

    A ring checked as a module over itself passes its own components and
    multiplication.  The checks run in this order: support closure, the
    unit, well-definedness in the ring factor and in the module factor,
    and associativity (xy)m = x(ym).  All of them are linear in each
    argument, so they run on generators: the unit and well-definedness
    checks on the Z/n-generators of each component, associativity with x
    and m over Z/n-generators and y over the ring's algebra generators
    only (Light's test).  That suffices: given the unit action and a ring
    that is associative with 1 as a two-sided unit, the y that satisfy
    (xy)m = x(ym) for all x and m form a Z/n-submodule that holds 1 and
    is closed under products, since
    (x(y1 y2))m = ((x y1) y2)m = (x y1)(y2 m) = x(y1(y2 m)) = x((y1 y2)m).
    So a module check trusts its ring's associativity and two-sided unit.
    A ring checked as a module over itself needs only the two-sided unit,
    which `GradedRing._validate` settles first: its first step
    x(y1 y2) = (x y1)y2 is then the condition on y1 itself, with m = y2.
    `words` names the axioms in the error messages.

    Each instance sums lhs - rhs from one row or one column of a stored
    tensor per side, with no bilinear evaluation, and reduces it once in
    its output component.  The products x y and y m, whose images the
    associativity instances take again, are summed unreduced once per
    algebra generator y: well-definedness, checked before, makes every
    representative of them give the same image.  An absent tensor is
    zero: well-definedness skips it, and associativity skips a pair of
    degrees whose two sides are both absent.  Each degree sum is taken
    once per pair of degrees.  The loops run in the order above, degree
    by degree and generator by generator, so the first failing axiom and
    its message do not depend on these shortcuts.
    """
    what, unit, assoc = words
    g = ring.group
    # the component each tensor lands in
    target = {}
    for dg, dh in tensors:
        target[(dg, dh)] = comps.get(g.add(dg, dh))
        if target[(dg, dh)] is None:
            raise GradedError(f"{what} leaves the declared support")
    zero = g.zero()
    one = _terms(ring.one)
    for dh, ch in comps.items():
        t = tensors.get((zero, dh))
        for j in range(ch.ngens):
            got = ch.zero() if t is None else _column(one, t, j, ch.ngens)
            if not _vanishes(ch, got, _unit_vec(ch.ngens, j)):
                raise GradedError(f"{unit} fails at degree {dh}")
    # a pair of components without relations has nothing to check
    with_rels = [(dh, ch) for dh, ch in comps.items() if ch.rels]
    for dg, cg in ring.components.items():
        for dh, ch in comps.items() if cg.rels else with_rels:
            t = tensors.get((dg, dh))
            if t is None:
                continue
            out = target[(dg, dh)]
            size = out.ngens
            if (any(not _vanishes(out, _column(rt, t, j, size))
                    for rt in map(_terms, cg.rels) for j in range(ch.ngens))
                    or any(not _vanishes(out, _sum(st, t[i], size))
                           for st in map(_terms, ch.rels)
                           for i in range(cg.ngens))):
                raise GradedError(f"{what} not well defined at {dg},{dh}")
    rcomps, rmult = ring.components, ring.mult
    for dy, y in ring.algebra_generators:
        ys = _terms(y)
        # y m for every generator m of every component, unreduced, as
        # terms (None: all zero), with its degree
        ym = {}
        for dh, ch in comps.items():
            t = tensors.get((dy, dh))
            ym[dh] = g.add(dy, dh), None if t is None else [
                _terms(_column(ys, t, k, target[(dy, dh)].ngens))
                for k in range(ch.ngens)]
        for dx, cx in rcomps.items():
            # x y for every generator x of R_dx, unreduced, as terms
            # (None: all zero)
            dxy, t = g.add(dx, dy), rmult.get((dx, dy))
            xys = None if t is None else [
                _terms(_sum(ys, t[i], rcomps[dxy].ngens))
                for i in range(cx.ngens)]
            # per module degree dh, the tensors of (xy)m and x(ym) where
            # either is present, and the component both land in
            pairs = []
            for dh, ch in comps.items():
                dyh, yms = ym[dh]
                left = None if xys is None else tensors.get((dxy, dh))
                right = None if yms is None else tensors.get((dx, dyh))
                if left is not None:
                    out = target[(dxy, dh)]
                elif right is not None:
                    out = target[(dx, dyh)]
                else:
                    continue
                pairs.append((dh, ch.ngens, yms, left, right, out))
            for i in range(cx.ngens):
                for dh, k, yms, left, right, out in pairs:
                    size, zero_out = out.ngens, out.zero()
                    for m in range(k):
                        lhs = (zero_out if left is None
                               else _column(xys[i], left, m, size))
                        rhs = (zero_out if right is None
                               else _sum(yms[m], right[i], size))
                        if not _vanishes(out, lhs, rhs):
                            raise GradedError(
                                f"{assoc} fails at {dx},{dy},{dh}")


class GradedRing:
    """Finitely supported commutative G-graded ring over Z/nZ.

    Data derived from the ring alone sits in slots filled on first use:
    the algebra generators, the factors and the nilpotent ideals, and two
    objects built on the ring, the ring as a module over itself
    (`ring_as_module`) and its identity morphism
    (`GradedRingHom.identity`).  Each is built once per ring.
    """

    __slots__ = ("group", "n", "components", "mult", "one", "_algebra_gens",
                 "_factors", "_nilpotents", "_as_module", "_identity")

    def __init__(self, group: FgAbelianGroup, n: int, components, mult, one,
                 validate: bool = True):
        self.group = group
        self.n = n
        self.components, self.mult = _canon_structure(
            group, n, components, mult, _RING_WORDS[0])
        zero = group.zero()
        if zero not in self.components:
            raise GradedError("a nonzero graded ring needs a degree-zero component")
        unit = self.components[zero]
        if len(one) != unit.ngens:
            raise GradedError(f"one: coefficient count {len(one)}, expected "
                              f"{unit.ngens} (the generators of degree 0)")
        self.one = unit.reduce(one)
        if not any(self.one):
            raise GradedError("the unit of the ring must be nonzero")
        self._algebra_gens = self._factors = self._nilpotents = None
        self._as_module = self._identity = None
        if validate:
            self._validate()

    def component(self, deg) -> FpZnModule:
        return self.components.get(
            _degree_key(self.group, self.components, deg),
            zero_component(self.n))

    @property
    def support(self):
        return sorted(self.components)

    @property
    def algebra_generators(self):
        """Homogeneous elements (deg, coords) that generate the ring as a
        Z/n-algebra, computed once; see `_algebra_generators`."""
        if self._algebra_gens is None:
            self._algebra_gens = _algebra_generators(self)
        return self._algebra_gens

    @property
    def factors(self):
        """The *local factors (e, p) of the ring, found once; see
        `_factors`."""
        if self._factors is None:
            self._factors = _factors(self)
        return self._factors

    @property
    def is_local(self) -> bool:
        """Whether the ring is *local: whether it has one factor."""
        return len(self.factors) == 1

    @property
    def nilpotent_ideals(self):
        """Per factor (e, p), the ideal J_e of the r with er nilpotent,
        computed once: degree -> Howell rows spanning (J_e)_d with the
        relations of R_d.  On a *local ring it is the ideal m of
        homogeneous nilpotents, whose homogeneous elements are the
        homogeneous non-units; see `_nilpotent_ideal`."""
        if self._nilpotents is None:
            self._nilpotents = tuple(_nilpotent_ideal(self, f)
                                     for f in self.factors)
        return self._nilpotents

    def multiply(self, a, b):
        """Product of homogeneous elements (deg, coords)."""
        (dg, x), (dh, y) = a, b
        g, comps = self.group, self.components
        return _product(g, comps, self.mult, _degree_key(g, comps, dg), x,
                        _degree_key(g, comps, dh), y)

    def one_element(self):
        return self.group.zero(), self.one

    def _validate(self):
        """Commutativity, then the module axioms of R acting on itself.

        Commutativity runs y over 1 and the algebra generators and x over
        the Z/n-generators of every component.  So 1 is central, and a
        two-sided unit once `_check_module_axioms` passes the left unit;
        and the centre, a subalgebra once that check passes associativity,
        holds every generator and so is all of R.
        """
        g, comps, mult = self.group, self.components, self.mult
        for dy, y in (self.one_element(),) + self.algebra_generators:
            ys = _terms(y)
            for dx, cx in comps.items():
                # x y is a row of the tensor at (dx, dy), y x a column of
                # the one at (dy, dx); both absent means both zero
                right, left = mult.get((dx, dy)), mult.get((dy, dx))
                if right is None and left is None:
                    continue
                out = comps[g.add(dx, dy)]
                size, zero_out = out.ngens, out.zero()
                for i in range(cx.ngens):
                    xy = (zero_out if right is None
                          else _sum(ys, right[i], size))
                    yx = (zero_out if left is None
                          else _column(ys, left, i, size))
                    if not _vanishes(out, xy, yx):
                        lo, hi = sorted((dx, dy))
                        raise GradedError(
                            f"commutativity fails at degrees {lo},{hi}")
        _check_module_axioms(self, comps, mult, _RING_WORDS)

    def _key(self):
        return (self.group, self.n, tuple(sorted(self.components.items())),
                tuple(sorted(self.mult.items())), self.one)

    __eq__ = _key_eq
    __hash__ = _key_hash

    def __repr__(self):
        return f"GradedRing(n={self.n}, support={self.support})"


class GradedModule:
    """Finitely supported graded module over a GradedRing."""

    __slots__ = ("ring", "components", "action", "_min_gens")

    def __init__(self, ring: GradedRing, components, action, validate: bool = True):
        self.ring = ring
        self.components, self.action = _canon_structure(
            ring.group, ring.n, components, action, _MODULE_WORDS[0],
            ring.components)
        self._min_gens = None
        if validate:
            self._validate()

    def component(self, deg) -> FpZnModule:
        return self.components.get(
            _degree_key(self.ring.group, self.components, deg),
            zero_component(self.ring.n))

    @property
    def support(self):
        return sorted(self.components)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components.values())

    def cardinality(self) -> int:
        card = 1
        for c in self.components.values():
            card *= c.cardinality()
        return card

    @property
    def minimal_generators(self):
        """Per factor e of the ring, homogeneous elements (deg, unit
        vector) whose multiples by e minimally generate eM, in sorted
        degree order, computed once; on a *local ring, one minimal
        generating set.  See `_minimal_generators`."""
        if self._min_gens is None:
            self._min_gens = tuple(_minimal_generators(self, ideal)
                                   for ideal in self.ring.nilpotent_ideals)
        return self._min_gens

    def act(self, r, x):
        """Action of homogeneous ring element r = (deg, coords) on x."""
        (dg, rv), (dh, xv) = r, x
        g = self.ring.group
        return _product(g, self.components, self.action,
                        _degree_key(g, self.ring.components, dg), rv,
                        _degree_key(g, self.components, dh), xv)

    def _validate(self):
        """The module axioms; associativity trusts the ring's."""
        _check_module_axioms(self.ring, self.components, self.action,
                             _MODULE_WORDS)

    def _key(self):
        return (self.ring, tuple(sorted(self.components.items())),
                tuple(sorted(self.action.items())))

    __eq__ = _key_eq
    __hash__ = _key_hash

    def __repr__(self):
        return f"GradedModule(support={self.support})"


# ---------------------------------------------------------------------------
# morphisms: one core for degreewise matrix families
#
# A module morphism and a ring morphism both hold `source`, `target` and
# `maps`, one nonzero matrix per degree; a ring is a module over itself,
# so `_ring` finds the coefficients of either kind of end.  Each class
# words its own errors through `_MALFORMED`, `_ILL_DEFINED`, `_MISMATCH`
# and `_NOT_LINEAR`.


def _ring(end):
    """The ring a module is over; a ring is a module over itself."""
    return end if isinstance(end, GradedRing) else end.ring


def _init_maps(self, source, target, maps):
    """Store the ends and the canonical nonzero matrices of `maps`."""
    self.source = source
    self.target = target
    g = _ring(source).group
    canon = {}
    for deg, mat in maps.items():
        deg = g.canon(deg)
        sc, tc = source.component(deg), target.component(deg)
        if not sc.ngens:
            continue
        mat = tuple(tc.reduce(row) for row in mat)
        if len(mat) != sc.ngens:
            raise GradedError(self._MALFORMED.format(deg))
        if any(any(row) for row in mat):
            canon[deg] = mat
    self.maps = canon


def _maps_matrix(self, deg):
    ring = _ring(self.source)
    deg = _degree_key(ring.group, self.source.components, deg)
    if deg in self.maps:
        return self.maps[deg]
    none = zero_component(ring.n)
    return zero_matrix(self.source.components.get(deg, none).ngens,
                       self.target.components.get(deg, none).ngens)


def _image(self, deg, xv):
    """Image of the source element xv at the canonical degree `deg`,
    reduced in the target component there."""
    tc = self.target.components.get(deg)
    if tc is None:
        return ()
    mat = self.maps.get(deg)
    if mat is None:
        return tc.zero()
    return tc.reduce(vec_mat(xv, mat, tc.n))


def _maps_apply(self, x):
    """Image of a homogeneous element (deg, coords)."""
    deg, xv = x
    target = self.target
    return deg, _image(self, _degree_key(_ring(target).group,
                                         target.components, deg), xv)


def _maps_well_defined(self):
    """Every matrix sends the source relations into the target relations."""
    for deg, mat in self.maps.items():
        sc, tc = self.source.component(deg), self.target.component(deg)
        for r in sc.rels:
            if not _vanishes(tc, _sum(_terms(r), mat, tc.ngens)):
                raise GradedError(self._ILL_DEFINED.format(deg))


def _maps_first_missed(self):
    """The first target generator outside the image, as (deg, unit vector)
    in sorted degree order, or None when every degree is onto.

    In each degree the matrix rows with the target relations, in Howell
    form, span the image plus the relations; a generator outside that span
    is nonzero in the target and missed.  A span whose Howell form is the
    identity is everything, so no generator is tested there.
    """
    for deg in sorted(self.target.components):
        tc = self.target.components[deg]
        span = howell(list(self.maps.get(deg, ())) + list(tc.rels),
                      tc.ngens, tc.n)
        if span == identity_matrix(tc.ngens):
            continue
        for i in range(tc.ngens):
            e = _unit_vec(tc.ngens, i)
            if not span_contains(e, span, tc.n):
                return deg, e
    return None


def _maps_linear(self, s_tensors, t_tensors, acting):
    """u(r x) = r u(x) for x over the Z/n-generators of the source and
    (dr, r, r') over `acting`: r an algebra generator of the source's ring
    in degree dr, acting on the target as r'.  With x = e_j in degree dh,
    u(x) is row j of the matrix, r x column j of the source tensor at
    (dr, dh), and r u(x) = sum_b u(x)_b (r' f_b) for the columns r' f_b of
    the target's; absent tensors and matrices are zero.  Each instance
    reduces u(r x) - r u(x) once.  The products r x and r' f_b are taken
    unreduced, r' f_b once per r and dh: the matrices are well defined,
    which the callers check first, and so are the target's tensors.  The
    loops run over r, dh and j; `_NOT_LINEAR` words the first failure.
    """
    src, tgt, maps = self.source, self.target, self.maps
    g = _ring(src).group
    for dr, r, tr in acting:
        rs, trs = _terms(r), _terms(tr)
        for dh, sc in src.components.items():
            drx = g.add(dr, dh)
            out = tgt.components.get(drx)
            s_t, t_t = s_tensors.get((dr, dh)), t_tensors.get((dr, dh))
            u_h, u_rx = maps.get(dh), maps.get(drx)
            lhs_zero = s_t is None or u_rx is None
            rhs_zero = t_t is None or u_h is None
            if out is None or (lhs_zero and rhs_zero):
                continue
            size, zero_out = out.ngens, out.zero()
            if not rhs_zero:
                rf = [_column(trs, t_t, b, size)
                      for b in range(tgt.components[dh].ngens)]
            for j in range(sc.ngens):
                urx = zero_out if lhs_zero else _sum(
                    _terms(_column(rs, s_t, j, src.components[drx].ngens)),
                    u_rx, size)
                rux = zero_out if rhs_zero else _sum(_terms(u_h[j]), rf, size)
                if not _vanishes(out, urx, rux):
                    raise GradedError(self._NOT_LINEAR.format(r=dr, x=dh))


def _maps_compose(self, first):
    """self after first."""
    if first.target != self.source:
        raise GradedError(self._MISMATCH)
    n = _ring(self.source).n
    maps = {deg: mat_mul(first.matrix(deg), self.matrix(deg), n)
            for deg in set(first.maps) | set(self.maps)}
    return type(self)(first.source, self.target, maps, validate=False)


def _identity_maps(end):
    return {deg: identity_matrix(c.ngens) for deg, c in end.components.items()}


def _maps_key(self):
    return (self.source, self.target, tuple(sorted(self.maps.items())))


class GradedMorphism:
    """Degree-zero morphism of graded modules over a common ring."""

    __slots__ = ("source", "target", "maps")
    _MALFORMED = "matrix at degree {} has wrong row count"
    _ILL_DEFINED = "morphism not well defined at degree {}"
    _MISMATCH = "composition endpoints do not match"
    _NOT_LINEAR = "morphism is not linear at degrees {r},{x}"

    def __init__(self, source: GradedModule, target: GradedModule, maps,
                 validate: bool = True):
        if source.ring != target.ring:
            raise RingMismatch("morphism endpoints live over different rings")
        _init_maps(self, source, target, maps)
        if validate:
            self._validate()

    matrix = _maps_matrix
    apply = _maps_apply
    first_missed = _maps_first_missed

    def _validate(self):
        """Well-definedness, then R-linearity u(rx) = r u(x) by
        `_maps_linear`, with r over the ring's algebra generators only.
        Given the module axioms of both ends, the r that satisfy it form a
        Z/n-submodule that holds 1 and is closed under products, since
        u((r1 r2)x) = u(r1(r2 x)) = r1 u(r2 x) = r1(r2 u(x)) = (r1 r2)u(x);
        so it is all of R.
        """
        _maps_well_defined(self)
        gens = self.source.ring.algebra_generators
        _maps_linear(self, self.source.action, self.target.action,
                     ((dr, r, r) for dr, r in gens))

    @property
    def is_zero(self) -> bool:
        return not self.maps

    compose = _maps_compose

    def add(self, other: "GradedMorphism") -> "GradedMorphism":
        if other.source != self.source or other.target != self.target:
            raise GradedError("sum endpoints do not match")
        degs = set(self.maps) | set(other.maps)
        n = self.source.ring.n
        maps = {deg: tuple(tuple((a + b) % n for a, b in zip(r1, r2))
                           for r1, r2 in zip(self.matrix(deg), other.matrix(deg)))
                for deg in degs}
        return GradedMorphism(self.source, self.target, maps, validate=False)

    @staticmethod
    def identity(module: GradedModule) -> "GradedMorphism":
        return GradedMorphism(module, module, _identity_maps(module),
                              validate=False)

    @staticmethod
    def zero(source: GradedModule, target: GradedModule) -> "GradedMorphism":
        return GradedMorphism(source, target, {}, validate=False)

    _key = _maps_key
    __eq__ = _key_eq
    __hash__ = _key_hash

    def __repr__(self):
        return f"GradedMorphism(degrees={sorted(self.maps)})"


class GradedRingHom:
    """Degree-preserving unital ring morphism h: R -> S over one group."""

    __slots__ = ("source", "target", "maps")
    _MALFORMED = "ring morphism matrix at {} malformed"
    _ILL_DEFINED = "ring morphism not well defined at {}"
    _MISMATCH = "ring morphism composition mismatch"
    _NOT_LINEAR = "ring morphism not multiplicative at {x},{r}"

    def __init__(self, source: GradedRing, target: GradedRing, maps,
                 validate: bool = True):
        if source.group != target.group:
            raise GroupMismatch("ring morphism endpoints over different groups")
        if source.n != target.n:
            raise GradedError("ring morphism endpoints over different moduli")
        _init_maps(self, source, target, maps)
        if validate:
            self._validate()

    matrix = _maps_matrix
    apply = _maps_apply
    first_missed = _maps_first_missed

    def _validate(self):
        """Well-definedness, the unit, then h(xy) = h(x)h(y) for y over the
        algebra generators of R only: given that both ends are rings and
        h(1) = 1, the y that satisfy it form a Z/n-submodule that holds 1
        and is closed under products, since h(x(y1 y2)) = h((x y1)y2) =
        h(x y1)h(y2) = (h(x)h(y1))h(y2) = h(x)h(y1 y2).  That is R-linearity
        of h: R -> h_*(S), y acting on S as h(y); `_maps_linear` reads
        `mult` at (dy, dx) by columns, its rows at (dx, dy) since both
        rings passed commutativity when built.
        """
        _maps_well_defined(self)
        _, one_img = self.apply(self.source.one_element())
        if one_img != self.target.one:
            raise GradedError("ring morphism does not preserve the unit")
        _maps_linear(self, self.source.mult, self.target.mult,
                     ((dy, y, _image(self, dy, y))
                      for dy, y in self.source.algebra_generators))

    compose = _maps_compose

    @staticmethod
    def identity(ring: GradedRing) -> "GradedRingHom":
        """The identity of `ring`, built once per ring."""
        if ring._identity is None:
            ring._identity = GradedRingHom(ring, ring, _identity_maps(ring),
                                           validate=False)
        return ring._identity

    _key = _maps_key
    __eq__ = _key_eq
    __hash__ = _key_hash


# ---------------------------------------------------------------------------
# monomial rings


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _monomial_ring(group, n, degrees, ideal, killed=()):
    """`monomial_ring`, and each standard monomial's degree and index among
    the generators there; `killed` is only checked."""
    degrees = [group.canon(d) for d in degrees]
    if any(len(e) != len(degrees) or min(e, default=0) < 0
           for e in [*ideal, *killed]):
        raise GradedError(f"an exponent vector does not fit {len(degrees)} "
                          "variables")
    bounds = []
    for i in range(len(degrees)):
        powers = [e[i] for e in ideal if not any(e[:i] + e[i + 1:])]
        if not powers:
            raise GradedError(f"the ideal holds no power of X_{i + 1}, "
                              "so the ring is not finite")
        bounds.append(min(powers))
    standard = sorted((e for e in itertools.product(*map(range, bounds))
                       if not any(_divides(g, e) for g in ideal)),
                      key=lambda e: (sum(e), [-x for x in e]))
    where, sizes = {}, {}
    for e in standard:
        d = group.canon([sum(x * g[c] for x, g in zip(e, degrees))
                         for c in range(len(group.moduli))])
        where[e] = (d, sizes.get(d, 0))
        sizes[d] = sizes.get(d, 0) + 1
    mult = {}
    for a, (da, i) in where.items():
        for b, (db, j) in where.items():
            c = tuple(x + y for x, y in zip(a, b))
            if c in where:
                dc, k = where[c]
                t = mult.get((da, db))
                if t is None:
                    t = mult[(da, db)] = [[(0,) * sizes[dc]] * sizes[db]
                                          for _ in range(sizes[da])]
                t[i][j] = _unit_vec(sizes[dc], k)
    comps = {d: FpZnModule(n, k) for d, k in sizes.items()}
    one = _unit_vec(sizes.get(group.zero(), 1), 0)
    return GradedRing(group, n, comps, mult, one), where


def monomial_ring(group: FgAbelianGroup, n: int, degrees, ideal) -> GradedRing:
    """The ring (Z/n)[X_1..X_r]/I with deg X_i = degrees[i].

    I is given by monomial generators, as exponent tuples of length r.  It
    must hold a pure power of every variable, or the ring would not be
    finite and GradedError is raised.  Each component is free on its
    standard monomials (those no generator of I divides), by total degree
    and then with X_1 before X_2: X_1^2, X_1 X_2, X_2^2.  With one variable
    that is 1, X, X^2, ...; with none the ring is Z/n in degree 0.
    """
    return _monomial_ring(group, n, degrees, ideal)[0]


def monomial_quotient(group: FgAbelianGroup, n: int, degrees, ideal,
                      killed) -> GradedRingHom:
    """R -> R/J for R = monomial_ring(group, n, degrees, ideal) and the
    monomial ideal J generated by `killed`: R/J keeps R's generators and
    adds relations that kill the standard monomials in J, so h has identity
    matrices."""
    r, where = _monomial_ring(group, n, degrees, ideal, killed)
    rels = {}
    for e, (d, i) in where.items():
        if any(_divides(g, e) for g in killed):
            rels.setdefault(d, []).append(_unit_vec(r.components[d].ngens, i))
    s = GradedRing(group, n, {d: FpZnModule(n, c.ngens, rels.get(d, ()))
                              for d, c in r.components.items()}, r.mult, r.one)
    return GradedRingHom(r, s, _identity_maps(r))


# ---------------------------------------------------------------------------
# constructions


def ring_as_module(ring: GradedRing) -> GradedModule:
    """The ring viewed as a graded module over itself, built once per
    ring."""
    if ring._as_module is None:
        ring._as_module = GradedModule(ring, dict(ring.components),
                                       dict(ring.mult), validate=False)
    return ring._as_module


def shift(module: GradedModule, g) -> GradedModule:
    """The shifted module M(g) with M(g)_h = M_{g+h}."""
    grp = module.ring.group
    g = grp.canon(g)
    comps = {grp.sub(deg, g): comp for deg, comp in module.components.items()}
    action = {(dc, grp.sub(dh, g)): t for (dc, dh), t in module.action.items()}
    return GradedModule(module.ring, comps, action, validate=False)


def shift_morphism(u: GradedMorphism, g) -> GradedMorphism:
    grp = u.source.ring.group
    g = grp.canon(g)
    maps = {grp.sub(deg, g): mat for deg, mat in u.maps.items()}
    return GradedMorphism(shift(u.source, g), shift(u.target, g), maps,
                          validate=False)


def free_module(ring: GradedRing, shift_degrees) -> GradedModule:
    """The free module ⊕_i R(g_i) on the given shift degrees."""
    return _sum_module(ring, [shift(ring_as_module(ring), g)
                              for g in shift_degrees])[0]


def _stack(n, parts):
    """The direct sum of the Z/n-modules `parts`, with block-diagonal
    relations, and the offset of each part's first generator in it."""
    total = sum(c.ngens for c in parts)
    rels, offsets, off = [], [], 0
    for c in parts:
        offsets.append(off)
        for r in c.rels:
            vec = [0] * total
            vec[off:off + c.ngens] = r
            rels.append(tuple(vec))
        off += c.ngens
    return FpZnModule(n, total, rels), offsets


def _place(tensor, t, o1, o2, o3):
    """Copy the nonzero entries of the tensor t into `tensor` as the block
    at offsets (o1, o2, o3)."""
    for i, block in enumerate(t):
        for j, row in enumerate(block):
            for k, v in enumerate(row):
                if v:
                    tensor[o1 + i][o2 + j][o3 + k] = v


def _sum_module(ring, modules):
    """The componentwise direct sum of `modules` over `ring`, its sorted
    degrees and the offset of summand i at degree d, keyed (i, d)."""
    g = ring.group
    degs = sorted({d for m in modules for d in m.components})
    comps = {}
    offsets = {}  # (module index, degree) -> offset
    for deg in degs:
        comps[deg], offs = _stack(ring.n, [m.component(deg) for m in modules])
        for idx, off in enumerate(offs):
            offsets[(idx, deg)] = off
    action = {}
    for dc, rc in ring.components.items():
        for deg in degs:
            out_deg = g.add(dc, deg)
            out = comps.get(out_deg)
            if out is None:
                continue
            tensor = [[[0] * out.ngens for _ in range(comps[deg].ngens)]
                      for _ in range(rc.ngens)]
            for idx, m in enumerate(modules):
                t = m.action.get((dc, deg))
                if t is not None:
                    _place(tensor, t, 0, offsets[(idx, deg)],
                           offsets[(idx, out_deg)])
                    action[(dc, deg)] = tensor
    return GradedModule(ring, comps, action, validate=False), degs, offsets


def direct_sum(modules):
    """Componentwise direct sum with injections and projections."""
    modules = list(modules)
    if not modules:
        raise GradedError("direct sum of an empty family needs an explicit ring")
    ring = modules[0].ring
    if any(m.ring != ring for m in modules):
        raise RingMismatch("direct sum over different rings")
    total_mod, degs, offsets = _sum_module(ring, modules)
    comps = total_mod.components
    injections, projections = [], []
    for idx, m in enumerate(modules):
        inj, proj = {}, {}
        for deg in degs:
            k, off = m.component(deg).ngens, offsets[(idx, deg)]
            if k:
                inj[deg] = tuple(_unit_vec(comps[deg].ngens, off + i)
                                 for i in range(k))
            proj[deg] = tuple(_unit_vec(k, i - off) if off <= i < off + k
                              else (0,) * k for i in range(comps[deg].ngens))
        injections.append(GradedMorphism(m, total_mod, inj, validate=False))
        projections.append(GradedMorphism(total_mod, m, proj, validate=False))
    return total_mod, injections, projections


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def graded_submodule(module: GradedModule, gens_by_degree):
    """Submodule generated per degree (already R-stable), with inclusion.

    `gens_by_degree` maps a degree to ambient coordinate vectors; keys
    naming one degree pool their vectors, and the span must be stable
    under the ring action degreewise.  Each degree is the `Subquotient`
    of its vectors modulo the ambient relations, handed the Howell form
    of both as its contract asks: its reduced generators give the
    inclusion, and its coordinates the inherited action, with the ambient
    system factored once per degree.
    """
    g = module.ring.group
    gens = {}
    for deg, vecs in gens_by_degree.items():
        gens.setdefault(g.canon(deg), []).extend(vecs)
    subs = {}
    for deg, vecs in gens.items():
        amb = module.component(deg)
        sq = Subquotient(howell(vecs + list(amb.rels), amb.ngens, amb.n), amb)
        if sq.gens:
            subs[deg] = sq
    incl_mats = {deg: tuple(sq.ambient.reduce(row) for row in sq.gens)
                 for deg, sq in subs.items()}
    action = {}
    for dc, rc in module.ring.components.items():
        for dh, incl in incl_mats.items():
            t = module.action.get((dc, dh))
            if t is None:
                continue
            out_deg = g.add(dc, dh)
            amb_out = module.component(out_deg)
            out = subs.get(out_deg)
            tensor = []
            for i in range(rc.ngens):
                block = []
                for vec in incl:
                    img = apply_tensor(t, _unit_vec(rc.ngens, i), vec, amb_out)
                    # an output degree without generators takes zero only
                    coords = (out.coords(img) if out is not None
                              else None if any(img) else ())
                    if coords is None:
                        raise GradedError("submodule is not action-stable")
                    block.append(coords)
                tensor.append(block)
            action[(dc, dh)] = tensor
    sub = GradedModule(module.ring,
                       {deg: sq.module for deg, sq in subs.items()}, action,
                       validate=False)
    incl = GradedMorphism(sub, module, incl_mats, validate=False)
    return sub, incl


def graded_kernel(u: GradedMorphism):
    """Kernel of a graded morphism with its inclusion."""
    gens = {}
    for deg, sc in u.source.components.items():
        tc = u.target.component(deg)
        gens[deg] = preimage_gens(u.matrix(deg), tc.rels, tc.ngens, sc.n)
    return graded_submodule(u.source, gens)


def graded_image(u: GradedMorphism):
    """Image of a graded morphism with its inclusion into the target."""
    gens = {deg: u.matrix(deg) for deg in u.source.components}
    return graded_submodule(u.target, gens)


def graded_cokernel(u: GradedMorphism):
    """Cokernel of a graded morphism with the projection from the target."""
    comps = {}
    for deg, tc in u.target.components.items():
        comps[deg] = FpZnModule(tc.n, tc.ngens,
                                list(tc.rels) + list(u.matrix(deg)))
    coker = GradedModule(u.target.ring, comps, u.target.action,
                         validate=False)
    maps = {deg: identity_matrix(tc.ngens)
            for deg, tc in u.target.components.items()}
    proj = GradedMorphism(u.target, coker, maps, validate=False)
    return coker, proj


# ---------------------------------------------------------------------------
# coarsening


def coarse_layout(components, psi):
    """Where the generators of `components` sit once summed over the
    fibers of psi, each fiber in sorted order.

    Returns (gens, offsets): `gens[c]` lists the (fine degree, index) of
    each generator of the coarse component c, and `offsets[d]` is the
    offset of the fine component d in its coarse one.
    """
    return _fine_layout(components, psi)[1:]


def _fine_layout(components, psi):
    """(images, gens, offsets): the image under psi of every degree of
    `components`, each taken once, and `coarse_layout` read off them.
    Every step of one coarsening reads the images of its ends here."""
    images = {deg: psi.apply(deg) for deg in components}
    gens, offsets = {}, {}
    for deg in sorted(components):
        lst = gens.setdefault(images[deg], [])
        offsets[deg] = len(lst)
        lst.extend((deg, i) for i in range(components[deg].ngens))
    return images, gens, offsets


def _coarse_components(components, images, n):
    """The components summed over each fiber of psi, in the order of
    `coarse_layout`, given the image of every degree."""
    fibers = {}
    for deg in sorted(components):
        fibers.setdefault(images[deg], []).append(components[deg])
    return {c: _stack(n, parts)[0] for c, parts in fibers.items()}


def _coarse_tensors(tensors, left, comps, left_layout, layout, group):
    """Reassemble the structure tensors left_g x M_h -> M_{g+h} blockwise
    along psi, given the coarse components and the fine layouts of both
    (`_fine_layout`); `group` is the fine grading group.  A stored tensor
    lands in the support, so g+h has an image too."""
    (left_img, _, left_off), (img, _, off) = left_layout, layout
    coarse = {}
    for (d1, d2), t in tensors.items():
        i1, i2, d3 = left_img[d1], img[d2], group.add(d1, d2)
        out = comps[img[d3]]
        tensor = coarse.get((i1, i2))
        if tensor is None:
            tensor = coarse[(i1, i2)] = [
                [[0] * out.ngens for _ in range(comps[i2].ngens)]
                for _ in range(left[i1].ngens)]
        _place(tensor, t, left_off[d1], off[d2], off[d3])
    return coarse


def _coarsen_ring(ring, psi):
    """`coarsen_ring`, and the fine layout of the ring (`_fine_layout`)."""
    if psi.source != ring.group:
        raise GroupMismatch("psi does not start at the grading group of the ring")
    layout = images, _, offsets = _fine_layout(ring.components, psi)
    comps = _coarse_components(ring.components, images, ring.n)
    mult = _coarse_tensors(ring.mult, comps, comps, layout, layout, ring.group)
    one = [0] * comps[psi.target.zero()].ngens
    off = offsets[ring.group.zero()]
    for i, v in enumerate(ring.one):
        one[off + i] = v
    return GradedRing(psi.target, ring.n, comps, mult, one,
                      validate=False), layout


def coarsen_ring(ring: GradedRing, psi: GroupEpi) -> GradedRing:
    """Regrade a ring along a group epimorphism by summing over fibers."""
    return _coarsen_ring(ring, psi)[0]


def _coarsen_module(module, psi, coarse_ring, ring_layout):
    """`coarsen_module` over `coarse_ring`, given the fine layout of the
    ring, and the fine layout of the module."""
    layout = _fine_layout(module.components, psi)
    mcomps = _coarse_components(module.components, layout[0], module.ring.n)
    action = _coarse_tensors(module.action, coarse_ring.components, mcomps,
                             ring_layout, layout, psi.source)
    return GradedModule(coarse_ring, mcomps, action, validate=False), layout


def _coarse_ring_and_layout(ring, psi, coarse_ring):
    """`coarse_ring` (built here when None) and the fine layout of `ring`,
    for a module over `ring`."""
    if coarse_ring is None:
        return _coarsen_ring(ring, psi)
    if psi.source != ring.group:
        raise GroupMismatch("psi does not start at the grading group of the module")
    return coarse_ring, _fine_layout(ring.components, psi)


def coarsen_module(module: GradedModule, psi: GroupEpi,
                   coarse_ring: GradedRing | None = None) -> GradedModule:
    """Regrade a module along psi, over the coarsened ring."""
    if psi.source != module.ring.group:
        raise GroupMismatch("psi does not start at the grading group of the module")
    return _coarsen_module(module, psi, *_coarse_ring_and_layout(
        module.ring, psi, coarse_ring))[0]


def _coarse_maps(fine, src, tgt, src_layout, tgt_layout):
    """The matrices of a degreewise map `fine` (a morphism of modules or of
    rings) between its coarsened ends `src` and `tgt`, given the fine
    layouts of both ends: each matrix of `fine` is a block of the matrix
    at its degree's image under psi."""
    (images, _, soff), (_, _, toff) = src_layout, tgt_layout
    maps = {}
    for deg, mat in fine.maps.items():
        img = images[deg]
        smat = maps.get(img)
        if smat is None:
            smat = maps[img] = [[0] * tgt.component(img).ngens
                                for _ in range(src.component(img).ngens)]
        so, to = soff[deg], toff.get(deg)
        if to is None:
            continue
        for i, row in enumerate(mat):
            for j, v in enumerate(row):
                if v:
                    smat[so + i][to + j] = v
    return maps


def coarsen_morphism(u: GradedMorphism, psi: GroupEpi,
                     coarse_ring: GradedRing | None = None) -> GradedMorphism:
    """Blockwise coarsening of a graded morphism."""
    coarse_ring, ring_layout = _coarse_ring_and_layout(u.source.ring, psi,
                                                       coarse_ring)
    src, src_layout = _coarsen_module(u.source, psi, coarse_ring, ring_layout)
    tgt, tgt_layout = _coarsen_module(u.target, psi, coarse_ring, ring_layout)
    return GradedMorphism(src, tgt,
                          _coarse_maps(u, src, tgt, src_layout, tgt_layout),
                          validate=False)


def coarsen_ring_hom(h: GradedRingHom, psi: GroupEpi) -> GradedRingHom:
    """Coarsening of a graded ring morphism."""
    src, src_layout = _coarsen_ring(h.source, psi)
    tgt, tgt_layout = _coarsen_ring(h.target, psi)
    return GradedRingHom(src, tgt,
                         _coarse_maps(h, src, tgt, src_layout, tgt_layout),
                         validate=False)
