"""Exact linear algebra over Z/nZ: Howell forms, solving, and modules.

The exhaustive block checks, for every modulus n in {2, 3, 4, 6, 8} and
every matrix shape up to 4 x 4: Howell canonicity (span-equal matrices
get the same form), soundness and completeness of row-solving, and the
counting identity |kernel| * |image| = n^rows, all by enumerating the
full domain of the map.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedmod.znlinalg import (MAX_MODULUS, FpZnModule, LinAlgError,
                                Subquotient, howell, identity_matrix,
                                mat_mul, preimage_gens, prune,
                                reduce_mod_span, row_kernel, solve_row,
                                solve_rows, span_contains, vec_mat)
from util import reference_howell, reference_row_kernel

MODULI = (2, 3, 4, 6, 8)
SHAPES = [(r, c) for r in range(1, 5) for c in range(1, 5)]


def _all_vectors(k, n):
    return itertools.product(range(n), repeat=k)


def _random_matrix(rng, r, c, n):
    return tuple(tuple(rng.randrange(n) for _ in range(c)) for _ in range(r))


def _span_equal_variant(rng, mat, n):
    """A matrix with the same row span, produced by row operations."""
    rows = [list(row) for row in mat]
    rng.shuffle(rows)
    if len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        f = rng.randrange(n)
        rows[i] = [(a + f * b) % n for a, b in zip(rows[i], rows[j])]
    units = [u for u in range(1, n) if _coprime(u, n)]
    k = rng.randrange(len(rows))
    u = rng.choice(units)
    rows[k] = [(u * a) % n for a in rows[k]]
    combo = [0] * len(rows[0])
    for row in rows:
        f = rng.randrange(n)
        combo = [(a + f * b) % n for a, b in zip(combo, row)]
    rows.append(combo)
    return tuple(tuple(row) for row in rows)


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


@pytest.mark.parametrize("n", MODULI)
def test_exhaustive_kernel_image_and_solve(n):
    rng = random.Random(1000 + n)
    for r, c in SHAPES:
        if n ** r > 1500:
            continue
        for _ in range(2):
            mat = _random_matrix(rng, r, c, n)
            images = set()
            kernel_count = 0
            for x in _all_vectors(r, n):
                b = vec_mat(x, mat, n)
                images.add(b)
                if not any(b):
                    kernel_count += 1
                # soundness and completeness on elements of the image
                v = solve_row(mat, (), b, c, n)
                assert v is not None
                assert vec_mat(v, mat, n) == b
            assert kernel_count * len(images) == n ** r
            # the kernel module generates exactly the kernel
            ker = row_kernel(mat, c, n)
            for x in ker:
                assert not any(vec_mat(x, mat, n))
            hker = howell(ker, r, n)
            members = sum(1 for x in _all_vectors(r, n)
                          if span_contains(x, hker, n))
            assert members == kernel_count
            # completeness: solve_row answers None exactly off the image
            for _ in range(20):
                b = tuple(rng.randrange(n) for _ in range(c))
                v = solve_row(mat, (), b, c, n)
                assert (v is not None) == (b in images)


@pytest.mark.parametrize("n", MODULI)
def test_howell_canonical_under_row_operations(n):
    rng = random.Random(2000 + n)
    for r, c in SHAPES:
        for _ in range(3):
            mat = _random_matrix(rng, r, c, n)
            variant = _span_equal_variant(rng, mat, n)
            assert howell(mat, c, n) == howell(variant, c, n)


@pytest.mark.parametrize("n", (2, 3))
def test_howell_canonical_exhaustive_2x2(n):
    by_span = {}
    for entries in itertools.product(range(n), repeat=4):
        mat = (entries[:2], entries[2:])
        span = frozenset(vec_mat(x, mat, n)
                         for x in itertools.product(range(n), repeat=2))
        by_span.setdefault(span, set()).add(howell(mat, 2, n))
    for span, forms in by_span.items():
        assert len(forms) == 1, f"non-canonical forms for span {span}"


@st.composite
def _matrix_and_modulus(draw):
    n = draw(st.sampled_from((2, 3, 4, 6, 8)))
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    mat = tuple(tuple(draw(st.integers(0, n - 1)) for _ in range(c))
                for _ in range(r))
    return n, mat


@settings(max_examples=60, deadline=None)
@given(_matrix_and_modulus())
def test_howell_properties(data):
    n, mat = data
    c = len(mat[0])
    h = howell(mat, c, n)
    # idempotent, span-closed on the input rows, echelon with sorted pivots
    assert howell(h, c, n) == h
    for row in mat:
        assert span_contains(row, h, n)
    pivots = [next(j for j, v in enumerate(row) if v) for row in h]
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    # permuting the rows never changes the canonical form
    assert howell(tuple(reversed(mat)), c, n) == h


def test_howell_idempotent_and_membership():
    rng = random.Random(3)
    for n in MODULI:
        mat = _random_matrix(rng, 3, 3, n)
        h = howell(mat, 3, n)
        assert howell(h, 3, n) == h
        for row in mat:
            assert span_contains(row, h, n)
            assert not any(reduce_mod_span(row, h, n))


def test_solve_row_canonical_representative():
    # over Z/4 the equation x * (2) = (2) has solutions 1 and 3; the
    # returned representative is deterministic
    first = solve_row(((2,),), (), (2,), 1, 4)
    for _ in range(5):
        assert solve_row(((2,),), (), (2,), 1, 4) == first


def test_module_reduce_and_cardinality():
    m = FpZnModule(4, 2, [(2, 0)])
    assert m.cardinality() == 8
    elems = set(m.elements())
    assert len(elems) == 8
    for v in elems:
        assert m.reduce(v) == v
    assert m.reduce((3, 1)) == m.reduce((1, 1))


def test_a_target_of_the_wrong_length_is_rejected():
    # every solver checks b against the column count of A: neither a
    # short nor a long target is padded, cut or solved
    eye = ((1, 0), (0, 1))
    sq = Subquotient(eye, FpZnModule(5, 2))
    for b in ((1,), (1, 2, 3)):
        with pytest.raises(LinAlgError):
            solve_row(eye, (), b, 2, 5)
        with pytest.raises(LinAlgError):
            solve_rows(eye, ((1, 1),), [(1, 2), b], 2, 5)
        with pytest.raises(LinAlgError):
            sq.coords(b)


def test_modulus_validation():
    with pytest.raises(LinAlgError):
        FpZnModule(1, 1, [])
    with pytest.raises(LinAlgError):
        FpZnModule(2 ** 40, 1, [])


def test_mat_mul_associativity():
    rng = random.Random(7)
    n = 6
    a = _random_matrix(rng, 2, 3, n)
    b = _random_matrix(rng, 3, 4, n)
    c = _random_matrix(rng, 4, 2, n)
    assert mat_mul(mat_mul(a, b, n), c, n) == mat_mul(a, mat_mul(b, c, n), n)
    assert mat_mul(identity_matrix(2), a, n) == a


# ---------------------------------------------------------------------------
# stored pivots and the once-factored subquotient against plain references

# small, prime power, composite, composite with a larger prime, and the
# largest moduli below and at the bound
EQUIV_MODULI = (2, 4, 6, 6 * 7, MAX_MODULUS - 1, MAX_MODULUS)


def _scan_reduce(vec, hrows, n):
    """Reference reduction: find each row's pivot by scanning the row."""
    v = [x % n for x in vec]
    for row in hrows:
        j = next(i for i, x in enumerate(row) if x)
        q = v[j] // row[j]
        if q:
            v = [(a - q * b) % n for a, b in zip(v, row)]
    return tuple(v)


@st.composite
def _entries(draw, n, rows, cols):
    # small values, values near n and arbitrary ones, so that the large
    # moduli get zero divisors and wrap-around too
    value = st.one_of(st.integers(0, 3), st.integers(n - 3, n - 1),
                      st.integers(0, n - 1))
    return [tuple(draw(value) for _ in range(cols)) for _ in range(rows)]


@st.composite
def _module_and_vectors(draw):
    n = draw(st.sampled_from(EQUIV_MODULI))
    c = draw(st.integers(1, 4))
    rels = draw(_entries(n, draw(st.integers(0, 4)), c))
    vecs = draw(_entries(n, 3, c))
    # out-of-range and negative entries reduce like their residues
    vecs.append(tuple(x - n * k for x, k in zip(vecs[0], range(c))))
    return n, c, rels, vecs


@settings(max_examples=150, deadline=None)
@given(_module_and_vectors())
def test_module_reduce_matches_scan_reference(data):
    n, c, rels, vecs = data
    m = FpZnModule(n, c, rels)
    for v in vecs + list(m.rels):
        assert m.reduce(v) == _scan_reduce(v, m.rels, n)
        assert reduce_mod_span(v, m.rels, n) == _scan_reduce(v, m.rels, n)


@st.composite
def _subquotient_and_vectors(draw):
    n = draw(st.sampled_from(EQUIV_MODULI))
    dim = draw(st.integers(1, 4))
    wgens = draw(_entries(n, draw(st.integers(0, 3)), dim))
    dgens = draw(_entries(n, draw(st.integers(0, 3)), dim))
    coeffs = draw(_entries(n, 2, len(wgens) + len(dgens)))
    stacked = wgens + dgens
    # represented vectors: combinations of the generators, and arbitrary ones
    vecs = [vec_mat(x, stacked, n) if stacked else (0,) * dim
            for x in coeffs]
    vecs += draw(_entries(n, 2, dim))
    return n, dim, wgens, dgens, vecs


@settings(max_examples=150, deadline=None)
@given(_subquotient_and_vectors())
def test_subquotient_coords_match_solve_row(data):
    n, dim, wgens, dgens, vecs = data
    ambient = FpZnModule(n, dim, dgens)
    sq = Subquotient(howell(wgens + dgens, dim, n), ambient)
    for v in vecs:
        sol = solve_row(sq.gens, ambient.rels, v, dim, n)
        got = sq.coords(v)
        if sol is None:
            assert got is None
        else:
            assert got == sq.module.reduce(sol)
            # and the coordinates name v modulo the trivial vectors
            assert span_contains([a - b for a, b in zip(sq.lift(got), v)],
                                 ambient.rels, n)


# ---------------------------------------------------------------------------
# Howell canonicity and row kernels at large moduli

# 2^31 - 1 is prime, 2^31 a prime power, and 6 * (2^28 - 57) a product of
# two small primes and a large one (2^28 - 57 is prime)
LARGE_MODULI = (MAX_MODULUS - 1, MAX_MODULUS, 6 * (2 ** 28 - 57))


@st.composite
def _large_matrix(draw):
    n = draw(st.sampled_from(LARGE_MODULI))
    r = draw(st.integers(1, 4))
    c = draw(st.integers(1, 4))
    return n, draw(_entries(n, r, c))


@st.composite
def _span_equal_pair(draw):
    """(n, A, B) with B obtained from A by invertible row operations.

    The operations are a row permutation, adding a multiple of one row to
    another, scaling a row by a unit, and appending a combination of the
    rows, so both matrices span the same submodule.
    """
    n, mat = draw(_large_matrix())
    rows = [list(row) for row in draw(st.permutations(mat))]
    if len(rows) >= 2:
        i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2,
                             max_size=2, unique=True))
        f = draw(st.integers(0, n - 1))
        rows[i] = [(a + f * b) % n for a, b in zip(rows[i], rows[j])]
    k = draw(st.integers(0, len(rows) - 1))
    u = draw(st.integers(1, n - 1).filter(lambda x: _coprime(x, n)))
    rows[k] = [(u * a) % n for a in rows[k]]
    combo = [0] * len(rows[0])
    for row in rows:
        f = draw(st.integers(0, n - 1))
        combo = [(a + f * b) % n for a, b in zip(combo, row)]
    rows.append(combo)
    return n, mat, [tuple(row) for row in rows]


@settings(max_examples=150, deadline=None)
@given(_span_equal_pair())
def test_howell_canonical_at_large_moduli(data):
    n, mat, variant = data
    c = len(mat[0])
    h = howell(mat, c, n)
    assert howell(variant, c, n) == h
    assert howell(h, c, n) == h
    for row in variant:
        assert span_contains(row, h, n)


def _span_order(rows, ncols, n):
    """The number of elements of the row span, from its Howell form."""
    return n ** ncols // FpZnModule(n, ncols, rows).cardinality()


@settings(max_examples=150, deadline=None)
@given(_large_matrix())
def test_row_kernel_at_large_moduli(data):
    n, mat = data
    r, c = len(mat), len(mat[0])
    ker = row_kernel(mat, c, n)
    for x in ker:
        assert not any(vec_mat(x, mat, n))
    # |kernel| * |image| = n^rows for the map x -> x * A on (Z/n)^rows
    assert _span_order(ker, r, n) * _span_order(mat, c, n) == n ** r


# ---------------------------------------------------------------------------
# preimages of a span: {x : x*A in span(C)}


def _times(x, rows, ncols, n):
    """x*A for A = `rows` with `ncols` columns, also when A has no rows."""
    return vec_mat(x, rows, n) if rows else (0,) * ncols


def _span_elements(rows, ncols, n):
    """Every element of the row span, by enumerating the coefficients."""
    return {_times(x, rows, ncols, n) for x in _all_vectors(len(rows), n)}


@st.composite
def _preimage_problem(draw):
    """(n, A, C, ncols): A with k <= 3 rows and C with up to 3 rows over
    Z/n, n <= 12, small enough to enumerate (Z/n)^k and span(C)."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(0, 3))
    c = draw(st.integers(0, 3))
    entry = st.integers(0, n - 1)
    rows = [tuple(draw(entry) for _ in range(c)) for _ in range(k)]
    rels = [tuple(draw(entry) for _ in range(c))
            for _ in range(draw(st.integers(0, 3)))]
    return n, rows, rels, c


@settings(max_examples=150, deadline=None)
@given(_preimage_problem())
def test_preimage_gens_matches_the_enumeration(data):
    n, rows, rels, c = data
    k = len(rows)
    gens = preimage_gens(rows, rels, c, n)
    assert howell(gens, k, n) == gens
    allowed = _span_elements(rels, c, n)
    expected = {x for x in _all_vectors(k, n)
                if _times(x, rows, c, n) in allowed}
    assert _span_elements(gens, k, n) == expected


@settings(max_examples=150, deadline=None)
@given(_preimage_problem(), st.data())
def test_solve_rows_with_relations_matches_the_enumeration(data, more):
    # x*A == b modulo span(C): None exactly off span(A) + span(C), a
    # solution otherwise, reduced modulo the preimage of span(C)
    n, rows, rels, c = data
    k = len(rows)
    allowed = _span_elements(rels, c, n)
    reached = {tuple((a + y) % n for a, y in zip(_times(x, rows, c, n), r))
               for x in _all_vectors(k, n) for r in allowed}
    targets = [tuple(more.draw(st.integers(0, n - 1)) for _ in range(c))
               for _ in range(3)]
    targets += more.draw(st.lists(st.sampled_from(sorted(reached)),
                                  max_size=2))
    pre = preimage_gens(rows, rels, c, n)
    for b, x in zip(targets, solve_rows(rows, rels, targets, c, n)):
        assert (x is not None) == (b in reached)
        if x is not None:
            diff = tuple((a - y) % n for a, y in zip(_times(x, rows, c, n), b))
            assert diff in allowed
            assert x == reduce_mod_span(x, pre, n)


@settings(max_examples=100, deadline=None)
@given(_large_matrix(), st.data())
def test_solve_rows_with_relations_at_large_moduli(data, more):
    # against solving x*[A; C] == b with unknowns for the rows of C too,
    # reduced modulo the kernel of [A; C] and cut to A's rows, from the
    # references in tests/util
    n, mat = data
    c = len(mat[0])
    rels = more.draw(_entries(n, more.draw(st.integers(0, 3)), c))
    k = len(mat)
    stacked = list(mat) + rels
    coeffs = more.draw(_entries(n, 1, len(stacked)))[0]
    reached = vec_mat(coeffs, stacked, n)
    other = tuple(more.draw(_entries(n, 1, c))[0])
    kernel = reference_row_kernel(stacked, c, n)
    span = reference_howell(stacked, c, n)
    x, y = solve_rows(mat, rels, [reached, other], c, n)
    assert x == reduce_mod_span(coeffs, kernel, n)[:k]
    assert (y is None) == any(reduce_mod_span(other, span, n))


@settings(max_examples=100, deadline=None)
@given(_large_matrix(), st.data())
def test_preimage_gens_at_large_moduli(data, more):
    n, mat = data
    c = len(mat[0])
    rels = more.draw(_entries(n, more.draw(st.integers(0, 3)), c))
    k = len(mat)
    gens = preimage_gens(mat, rels, c, n)
    # the Howell form of the kernel of [A; C], cut to A's rows
    cut = [row[:k] for row in reference_row_kernel(list(mat) + rels, c, n)]
    assert gens == howell(cut, k, n) == reference_howell(cut, k, n)


# ---------------------------------------------------------------------------
# pruning unit-pivot generators

PRUNE_MODULI = (2, 4, 6, 42) + LARGE_MODULI


@st.composite
def _presentation(draw):
    n = draw(st.sampled_from(PRUNE_MODULI))
    c = draw(st.integers(1, 5))
    return n, c, draw(_entries(n, draw(st.integers(0, 5)), c))


@settings(max_examples=200, deadline=None)
@given(_presentation())
def test_prune_presents_the_same_module(data):
    n, c, rels = data
    ambient = FpZnModule(n, c, rels)
    pruned, kept, proj = prune(ambient)
    assert len(proj) == c and pruned.ngens == len(kept)
    # proj is well defined: every ambient relation goes to 0
    for r in list(ambient.rels) + rels:
        assert pruned.reduce(vec_mat(r, proj, n)) == pruned.zero()
    # onto: each kept generator goes to its own unit vector
    for k, g in enumerate(kept):
        assert proj[g] == tuple(int(i == k) for i in range(len(kept)))
    # with equal (finite) orders, a well-defined onto map is a bijection
    assert pruned.cardinality() == ambient.cardinality()
    assert all(row[j] != 1 for row, j in zip(pruned.rels, pruned.pivots))


# ---------------------------------------------------------------------------
# `howell` and `row_kernel` against the xgcd-only reference in tests/util


@st.composite
def _reference_matrix(draw):
    """A matrix over Z/n for n in {2, 4, 6, 8, 9, 12, 2^31 - 1}, wide or
    tall, with zero rows and repeated rows mixed in; n = 2^31 - 1 draws
    entries near both ends of the range."""
    n = draw(st.sampled_from((2, 4, 6, 8, 9, 12, 2**31 - 1)))
    r = draw(st.integers(0, 7))
    c = draw(st.integers(0, 7))
    entries = (st.integers(0, n - 1) if n < 100 else st.one_of(
        st.integers(0, 3), st.integers(n - 3, n - 1), st.integers(0, n - 1)))
    rows = [tuple(draw(entries) for _ in range(c)) for _ in range(r)]
    for _ in range(draw(st.integers(0, 2))):
        extra = ((0,) * c if not rows or draw(st.booleans())
                 else draw(st.sampled_from(rows)))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return n, c, rows


@settings(max_examples=200, deadline=None)
@given(_reference_matrix())
def test_howell_matches_the_reference(data):
    n, c, rows = data
    assert howell(rows, c, n) == reference_howell(rows, c, n)
    # with c = 0 the kernel is everything: the identity
    assert row_kernel(rows, c, n) == reference_row_kernel(rows, c, n)

