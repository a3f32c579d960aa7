"""Change-of-ring functors on graded modules.

Given a graded ring morphism h: R -> S this module provides scalar
restriction (an S-module seen over R through h), scalar extension
S (x)_R - , scalar coextension Hom_R(S, -), graded tensor products and
graded Hom modules (plain and mixed variants), and the composite functors
built from them.  Tensor and Hom results are returned as witness objects
that keep enough bookkeeping to locate pure tensors and to convert between
Hom elements and the matrix families they encode; every element-level
canonical map downstream is built on these witnesses.  Tensor components
are minimal in the sense of `znlinalg.prune`: no relation has pivot 1, so
no generator is a combination of the others by a unit-pivot relation.

Balance and linearity over R run r over the homogeneous algebra
generators of R (`GradedRing.algebra_generators`), not over a Z/n-basis,
by the argument of Light's test in `graded`.  For the tensor, the r with
x.h(r) (x) y = x (x) r.y for all x and y form a Z/n-submodule, since the
relation is linear in r; it holds 1, as the actions are unital and h is
a ring map; and it is closed under products, as the actions are
associative:
x.h(r1 r2) (x) y = (x.h(r1)).h(r2) (x) y = x.h(r1) (x) r2.y
= x (x) r1.(r2.y) = x (x) (r1 r2).y.
So the relations written for the generators span those for every r, and
the Howell forms, the pruned presentations and every report are those
of the relations over a basis.  Hom's R-linearity is the same argument
(`hom_degree`).

Hom degree g is a `HomDegree`, the one owner of its flat layout: each
matrix family U_a: source_a -> target_{g+a} flattened into one vector.
`hom_degree` solves it as a preimage: the families whose image under
every constraint block lies in the relations of the block's target
component.  The builders write raw action tensors, entries unreduced
and zero tensors included, and leave reduction and dropping to the
`GradedModule` constructor (`graded._canon_structure`); the linear
systems are solved by `znlinalg`.

Every output is a trusted derivation (the validation policy in
`graded`): the modules of `restrict`, `mixed_tensor` and `mixed_hom`,
and so of `extend`, `tensor`, `coextend` and `hom_graded`, and the
morphisms of `restrict_morphism`, `tensor_map` and `hom_map` are built
with `validate=False`.  Their inputs were validated, and the functors
take graded modules and morphisms to graded modules and morphisms, so
the constructors only canonicalize.
"""

from __future__ import annotations

from .graded import (GradedModule, GradedMorphism, GradedRingHom,
                     GradedError, RingMismatch, _unit_vec, apply_tensor,
                     ring_as_module)
from .znlinalg import (FpZnModule, Subquotient, mat_mul, preimage_gens, prune,
                       vec_mat)
# re-exported: perfbench's tracer test checks that it patches this binding
from .znlinalg import howell as howell


class FunctorError(GradedError):
    """Raised when a functor construction hits an internal inconsistency."""


# ---------------------------------------------------------------------------
# scalar restriction


def restrict(h: GradedRingHom, module: GradedModule) -> GradedModule:
    """View an S-module as an R-module through h (scalar restriction)."""
    if module.ring != h.target:
        raise RingMismatch("restriction expects a module over the target ring")
    ring = h.source
    grp = ring.group
    action = {}
    for c in sorted(ring.components):
        rc = ring.components[c]
        hrs = [h.apply((c, _unit_vec(rc.ngens, p)))[1]
               for p in range(rc.ngens)]
        for a in sorted(module.components):
            t = module.action.get((c, a))
            if t is None:
                continue
            ma = module.components[a]
            out = module.component(grp.add(c, a))
            action[(c, a)] = [[apply_tensor(t, hr, _unit_vec(ma.ngens, j), out)
                               for j in range(ma.ngens)] for hr in hrs]
    return GradedModule(ring, dict(module.components), action, validate=False)


def restrict_morphism(h: GradedRingHom, u: GradedMorphism) -> GradedMorphism:
    """Scalar restriction on morphisms: same underlying maps."""
    return GradedMorphism(restrict(h, u.source), restrict(h, u.target),
                          dict(u.maps), validate=False)


# ---------------------------------------------------------------------------
# tensor products


class TensorWitness:
    """A graded tensor product together with its pure-tensor locator.

    For a ring morphism h: R -> S, `module` is left (x)_R right where `left`
    is an S-module and `right` an R-module; the result carries the S-action
    on the left factor.  The component at degree d is built on all pairs
    (a, i, b, j) (generator i of left_a tensor generator j of right_b with
    a + b = d) and then pruned: generator k of the presentation is the
    kept pair `index[d][k]`.  `pos[d]` sends every pair, kept or dropped,
    to its image in the pruned component, which is how `pure` locates a
    pure tensor.
    """

    __slots__ = ("h", "left", "right", "module", "index", "pos")

    def __init__(self, h, left, right, module, index, pos):
        self.h = h
        self.left = left
        self.right = right
        self.module = module
        self.index = index
        self.pos = pos

    def pure(self, x, y):
        """Locate the pure tensor of homogeneous elements x and y."""
        (a, xv), (b, yv) = x, y
        grp = self.module.ring.group
        a, b = grp.canon(a), grp.canon(b)
        d = grp.add(a, b)
        comp = self.module.component(d)
        vec = [0] * comp.ngens
        posd = self.pos.get(d, {})
        for i, xi in enumerate(xv):
            if xi:
                for j, yj in enumerate(yv):
                    if yj:
                        _add_image(vec, xi * yj, posd.get((a, i, b, j)))
        return d, comp.reduce(vec)


def _add_image(vec, coeff, image):
    """vec += coeff * image, for an image row (None when there is none)."""
    if image is not None:
        for k, v in enumerate(image):
            if v:
                vec[k] += coeff * v


def mixed_tensor(h: GradedRingHom, left: GradedModule,
                 right: GradedModule) -> TensorWitness:
    """left (x)_R right for left over S and right over R, as an S-module.

    Each component is presented on all generator pairs, with the balance
    relations for r over the algebra generators of R (module docstring),
    and then pruned (`znlinalg.prune`), so no relation of the result has
    pivot 1.
    """
    ring_s, ring_r = h.target, h.source
    if left.ring != ring_s:
        raise RingMismatch("left tensor factor must live over the target ring")
    if right.ring != ring_r:
        raise RingMismatch("right tensor factor must live over the source ring")
    grp = ring_s.group
    n = ring_s.n
    pairs = {}
    at = {}  # d -> {pair: ambient position}
    for a in sorted(left.components):
        ca = left.components[a]
        for b in sorted(right.components):
            cb = right.components[b]
            d = grp.add(a, b)
            lst = pairs.setdefault(d, [])
            atd = at.setdefault(d, {})
            for i in range(ca.ngens):
                for j in range(cb.ngens):
                    atd[(a, i, b, j)] = len(lst)
                    lst.append((a, i, b, j))
    rels = {d: [] for d in pairs}
    for a in sorted(left.components):
        ca = left.components[a]
        for b in sorted(right.components):
            cb = right.components[b]
            d = grp.add(a, b)
            atd = at[d]
            dim = len(pairs[d])
            for r in ca.rels:
                for j in range(cb.ngens):
                    vec = [0] * dim
                    for i in range(ca.ngens):
                        vec[atd[(a, i, b, j)]] = r[i]
                    rels[d].append(vec)
            for s in cb.rels:
                for i in range(ca.ngens):
                    vec = [0] * dim
                    for j in range(cb.ngens):
                        vec[atd[(a, i, b, j)]] = s[j]
                    rels[d].append(vec)
    # balance relations (x . h(r)) (x) y = x (x) (r . y) on generators x
    # and y, for r over the algebra generators of R (module docstring)
    for c, r in ring_r.algebra_generators:
        p = r.index(1)
        _, hr = h.apply((c, r))
        for a in sorted(left.components):
            ca = left.components[a]
            ta = left.action.get((c, a))
            a2 = grp.add(c, a)
            ca2 = left.component(a2)
            lx = [apply_tensor(ta, hr, _unit_vec(ca.ngens, i), ca2)
                  for i in range(ca.ngens)]
            for b in sorted(right.components):
                cb = right.components[b]
                # r . y_j is the stored (reduced) entry tb[p][j]
                tb = right.action.get((c, b))
                b2 = grp.add(c, b)
                d = grp.add(grp.add(a, b), c)
                atd = at.get(d)
                if atd is None:
                    continue
                dim = len(pairs[d])
                for i in range(ca.ngens):
                    for j in range(cb.ngens):
                        vec = [0] * dim
                        any_entry = False
                        for k, v in enumerate(lx[i]):
                            if v:
                                vec[atd[(a2, k, b, j)]] += v
                                any_entry = True
                        if tb is not None:
                            for l, v in enumerate(tb[p][j]):
                                if v:
                                    vec[atd[(a, i, b2, l)]] -= v
                                    any_entry = True
                        if any_entry:
                            rels[d].append(vec)
    comps, index, pos = {}, {}, {}
    for d, lst in pairs.items():
        comps[d], kept, proj = prune(FpZnModule(n, len(lst), rels[d]))
        index[d] = [lst[k] for k in kept]
        pos[d] = dict(zip(lst, proj))
    # S-action on the left factor, on the kept generators
    action = {}
    for c in sorted(ring_s.components):
        sc = ring_s.components[c]
        moved = {a: grp.add(c, a) for a in left.components}
        for d in sorted(index):
            if not comps[d].ngens:
                continue
            out_deg = grp.add(c, d)
            out = comps.get(out_deg)
            if out is None:
                continue
            posd = pos[out_deg]
            tensor = []
            for p in range(sc.ngens):
                block = []
                for (a, i, b, j) in index[d]:
                    ta = left.action.get((c, a))
                    vec = [0] * out.ngens
                    if ta is not None:
                        # s_p . x_i is the stored entry ta[p][i]
                        a2 = moved[a]
                        for k, v in enumerate(ta[p][i]):
                            if v:
                                _add_image(vec, v, posd[(a2, k, b, j)])
                    block.append(vec)
                tensor.append(block)
            action[(c, d)] = tensor
    module = GradedModule(ring_s, comps, action, validate=False)
    return TensorWitness(h, left, right, module, index, pos)


def tensor(left: GradedModule, right: GradedModule) -> TensorWitness:
    """Plain graded tensor product over the common ring."""
    if left.ring != right.ring:
        raise RingMismatch("tensor factors live over different rings")
    return mixed_tensor(GradedRingHom.identity(left.ring), left, right)


def tensor_map(h: GradedRingHom, u: GradedMorphism, v: GradedMorphism,
               source: TensorWitness | None = None,
               target: TensorWitness | None = None) -> GradedMorphism:
    """The morphism u (x) v between (mixed) tensor products."""
    if source is None:
        source = mixed_tensor(h, u.source, v.source)
    if target is None:
        target = mixed_tensor(h, u.target, v.target)
    maps = {}
    for d, pairs in source.index.items():
        comp = source.module.component(d)
        tc = target.module.component(d)
        if not comp.ngens or not tc.ngens:
            continue
        rows = []
        for (a, i, b, j) in pairs:
            urow = u.matrix(a)[i] if u.matrix(a) else ()
            vrow = v.matrix(b)[j] if v.matrix(b) else ()
            _, img = target.pure((a, urow), (b, vrow))
            rows.append(img)
        maps[d] = rows
    return GradedMorphism(source.module, target.module, maps, validate=False)


# ---------------------------------------------------------------------------
# Hom modules


class HomDegree:
    """The degree-g component of Hom^G_R(h_*(source), target), for h: R -> S.

    An element is a family of matrices U_a: source_a -> target_{g+a},
    flattened row-major into a vector of length `dim`; `blocks` lists
    (a, rows, cols, offset) for every U_a with rows and columns.  `rels`
    span the families whose rows all lie in the relations of the target:
    row i of U_a may move by any relation of target_{g+a}.  `sq`, set by
    `hom_degree`, presents the families that are well defined and
    R-linear as a `Subquotient` whose `ambient` is (Z/n)^dim modulo
    `rels`; it is None until then.
    """

    __slots__ = ("blocks", "dim", "rels", "sq")

    def __init__(self, source: GradedModule, target: GradedModule, g):
        grp = source.ring.group
        self.blocks = []
        self.dim = 0
        for a in sorted(source.components):
            rows = source.components[a].ngens
            cols = target.component(grp.add(g, a)).ngens
            if rows and cols:
                self.blocks.append((a, rows, cols, self.dim))
                self.dim += rows * cols
        self.rels = []
        for (a, rows, cols, o) in self.blocks:
            rels = target.component(grp.add(g, a)).rels
            for i in range(rows):
                for s in rels:
                    vec = [0] * self.dim
                    vec[o + i * cols:o + (i + 1) * cols] = s
                    self.rels.append(vec)
        self.sq = None

    def flatten(self, mats):
        """The flat vector of a matrix family {a: U_a}; a block without a
        matrix in `mats` is zero."""
        flat = [0] * self.dim
        for (a, rows, cols, off) in self.blocks:
            mat = mats.get(a)
            if mat is not None:
                for i in range(rows):
                    flat[off + i * cols:off + (i + 1) * cols] = mat[i]
        return flat

    def unflatten(self, flat):
        """The matrix family {a: U_a} stored in a flat vector."""
        return {a: tuple(tuple(flat[off + i * cols:off + (i + 1) * cols])
                         for i in range(rows))
                for (a, rows, cols, off) in self.blocks}

    def matrices(self, coords):
        """The matrix family of the element of `sq` with these coordinates."""
        return self.unflatten(self.sq.lift(coords))


class HomWitness:
    """A graded Hom module with conversions between elements and matrices.

    For h: R -> S, `module` is Hom^G_R(h_*(source), target) with source an
    S-module, target an R-module, and the S-action (su)(x) = u(sx).  An
    element of degree g encodes a family of matrices U_a: source_a ->
    target_{g+a}, laid out by the solved `HomDegree` `degrees[g]`; a
    degree without one holds only zero.
    """

    __slots__ = ("h", "source", "target", "module", "degrees")

    def __init__(self, h, source, target, module, degrees):
        self.h = h
        self.source = source
        self.target = target
        self.module = module
        self.degrees = degrees

    def matrices(self, g, coords):
        """The matrix family {a: U_a} encoded by an element of degree g."""
        deg = self.degrees.get(self.source.ring.group.canon(g))
        return {} if deg is None else deg.matrices(coords)

    def coords_of(self, g, mats):
        """Coordinates of the Hom element given by a matrix family, or None."""
        deg = self.degrees.get(self.source.ring.group.canon(g))
        return () if deg is None else deg.sq.coords(deg.flatten(mats))

    def evaluate(self, u, x):
        """Apply the Hom element u = (g, coords) to x = (a, xv)."""
        g, coords = u
        return self.apply(g, self.matrices(g, coords), x)

    def apply(self, g, mats, x):
        """Apply the Hom element of degree g with the matrix family `mats`
        (from `matrices`) to x = (a, xv)."""
        a, xv = x
        grp = self.source.ring.group
        out_deg = grp.add(g, a)
        out = self.target.component(out_deg)
        mat = mats.get(grp.canon(a))
        if mat is None or not mat:
            return out_deg, out.zero()
        return out_deg, out.reduce(vec_mat(xv, mat, out.n))


def _lift_generators(witness: HomWitness, comps):
    """The matrix family of each generator of each component in `comps`
    (those of `witness.module`), lifted once: degree -> one family per
    generator."""
    return {g: [witness.matrices(g, _unit_vec(c.ngens, k))
                for k in range(c.ngens)]
            for g, c in comps.items()}


def hom_degree(h: GradedRingHom, source: GradedModule, target: GradedModule,
               g) -> HomDegree:
    """The degree-g component of Hom^G_R(h_*(source), target), for h: R -> S,
    as a solved `HomDegree`.  The rings are as for `mixed_hom`, which
    calls this for every degree.

    Hom degree g is a preimage.  Each condition on a family x is a block
    of columns B, one per generator of the target component T it lands
    in, and asks that x*B lie in the relations of T.  The blocks sit side
    by side in one matrix with a row per unknown; the relations of each
    block's T, in that block's columns, are rows without unknowns.  The
    families meeting every condition are the preimage of those relations,
    `preimage_gens` of the unknowns' rows, and `Subquotient` takes them
    modulo `deg.rels`.
    """
    ring_r = h.source
    grp = ring_r.group
    n = ring_r.n
    deg = HomDegree(source, target, g)
    dim = deg.dim
    block_at = {a: (rows, cols, o) for (a, rows, cols, o) in deg.blocks}
    columns = []  # one {unknown: coeff} per column of the stacked rows
    rel_rows = []  # (first column of a block, relation of its T)

    def constrain(block, out_mod):
        """Ask that x*block lie in the relations of out_mod, where
        block[m] holds the column of generator m of out_mod."""
        rel_rows.extend((len(columns), s) for s in out_mod.rels)
        columns.extend(block)

    # well-definedness on source relations
    for a in sorted(source.components):
        if a not in block_at:
            continue
        rows, cols, o = block_at[a]
        out_mod = target.component(grp.add(g, a))
        for r in source.components[a].rels:
            constrain([{o + i * cols + m: r[i] for i in range(rows) if r[i]}
                       for m in range(cols)], out_mod)
    # R-linearity: U(h(r) . x) = r . U(x), for r over the algebra
    # generators of R: U is Z/n-linear, and the actions on source and
    # target are unital and associative, so linearity in the generators
    # gives linearity in every product of them
    for c, r in ring_r.algebra_generators:
        p = r.index(1)
        _, hr = h.apply((c, r))
        for a in sorted(source.components):
            ca = source.components[a]
            a2 = grp.add(c, a)
            out_mod = target.component(grp.add(g, a2))
            if not out_mod.ngens:
                continue
            ta = source.action.get((c, a))
            ca2 = source.component(a2)
            tn = target.action.get((c, grp.add(g, a)))
            b_at = block_at.get(a)
            b2_at = block_at.get(a2)
            for i in range(ca.ngens):
                w = apply_tensor(ta, hr, _unit_vec(ca.ngens, i), ca2)
                block = [dict() for _ in range(out_mod.ngens)]
                if b2_at is not None:
                    _, cols2, o2 = b2_at
                    for k, wk in enumerate(w):
                        if wk:
                            for m in range(cols2):
                                idx = o2 + k * cols2 + m
                                block[m][idx] = block[m].get(idx, 0) + wk
                if b_at is not None and tn is not None:
                    _, cols1, o1 = b_at
                    for j in range(cols1):
                        idx = o1 + i * cols1 + j
                        for m, v in enumerate(tn[p][j]):
                            if v:
                                block[m][idx] = block[m].get(idx, 0) - v
                if any(block):
                    constrain(block, out_mod)

    ncols = len(columns)
    rows = [[0] * ncols for _ in range(dim)]
    for col, terms in enumerate(columns):
        for idx, coeff in terms.items():
            rows[idx][col] = coeff % n
    rels = [[0] * off + list(s) + [0] * (ncols - off - len(s))
            for off, s in rel_rows]
    deg.sq = Subquotient(preimage_gens(rows, rels, ncols, n),
                         FpZnModule(n, dim, deg.rels))
    return deg


def mixed_hom(h: GradedRingHom, source: GradedModule,
              target: GradedModule) -> HomWitness:
    """Hom^G_R(h_*(source), target) as an S-module, for h: R -> S."""
    ring_s, ring_r = h.target, h.source
    if source.ring != ring_s:
        raise RingMismatch("Hom source must live over the target ring")
    if target.ring != ring_r:
        raise RingMismatch("Hom target must live over the source ring")
    grp = ring_s.group
    n = ring_s.n
    degs = sorted({grp.sub(b, a) for a in source.components
                   for b in target.components})
    degrees = {g: hom_degree(h, source, target, g) for g in degs}
    comps = {g: deg.sq.module for g, deg in degrees.items()
             if deg.sq.module.ngens}
    witness = HomWitness(h, source, target, None, degrees)
    lifted = _lift_generators(witness, comps)
    # S-action: (su)(x) = u(sx)
    action = {}
    for c in sorted(ring_s.components):
        sc = ring_s.components[c]
        for g in sorted(comps):
            g2 = grp.add(c, g)
            if g2 not in comps:
                continue  # s.u lies in a zero component
            # per source degree a with a nonzero action tensor at (c, a)
            # and columns in target_{g2+a}: the degree of s.x and the tensor
            blocks = [(a, grp.add(c, a), source.action[(c, a)])
                      for a in sorted(source.components)
                      if (c, a) in source.action
                      and target.component(grp.add(g2, a)).ngens]
            tensor_rows = []
            for p in range(sc.ngens):
                block = []
                for mats in lifted[g]:
                    # s_p . x_i is the stored entry tm[p][i]
                    new = {a: mat_mul(tm[p], mats[a2], n)
                           for a, a2, tm in blocks}
                    coords = witness.coords_of(g2, new)
                    if coords is None:
                        raise FunctorError("Hom action failed to land in Hom")
                    block.append(coords)
                tensor_rows.append(block)
            action[(c, g)] = tensor_rows
    module = GradedModule(ring_s, comps, action, validate=False)
    witness.module = module
    return witness


def hom_graded(source: GradedModule, target: GradedModule) -> HomWitness:
    """Plain graded Hom module over the common ring."""
    if source.ring != target.ring:
        raise RingMismatch("Hom endpoints live over different rings")
    return mixed_hom(GradedRingHom.identity(source.ring), source, target)


def hom_map(h: GradedRingHom, u: GradedMorphism, v: GradedMorphism,
            source: HomWitness | None = None,
            target: HomWitness | None = None) -> GradedMorphism:
    """Hom(u, v): Hom(M, N) -> Hom(M', N') by w -> v o w o u.

    Here u: M' -> M (contravariant slot) and v: N -> N'.
    """
    if source is None:
        source = mixed_hom(h, u.target, v.source)
    if target is None:
        target = mixed_hom(h, u.source, v.target)
    grp = source.module.ring.group
    n = source.module.ring.n
    maps = {}
    for g, comp in source.module.components.items():
        rows = []
        for k in range(comp.ngens):
            mats = source.matrices(g, _unit_vec(comp.ngens, k))
            new = {}
            for a in sorted(u.source.components):
                umat = u.matrix(a)
                wmat = mats.get(a)
                vmat = v.matrix(grp.add(g, a))
                cols = v.target.component(grp.add(g, a)).ngens
                if not umat or not cols:
                    continue
                if wmat is None:
                    continue
                new[a] = mat_mul(mat_mul(umat, wmat, n), vmat, n)
            coords = target.coords_of(g, new)
            if coords is None:
                raise FunctorError("Hom functoriality failed to land in Hom")
            rows.append(coords)
        if rows:
            maps[g] = rows
    return GradedMorphism(source.module, target.module, maps, validate=False)


# ---------------------------------------------------------------------------
# restriction of Hom and tensor witnesses


def restrict_witness(witness, left: GradedModule):
    """The witness of a mixed Hom or tensor along h: R -> S, restricted to
    R: for an S-module L and an R-module N', given `left` = h_*(L),

        restrict(h, mixed_hom(h, L, N').module)
            == mixed_hom(id_R, h_*(L), N').module,
        restrict(h, mixed_tensor(h, L, N').module)
            == tensor(h_*(L), N').module.

    R acts on h_*(L) as h(r) on L, so for every algebra generator r of R
    the linearity rows of `hom_degree` and the balance rows of
    `mixed_tensor` are the same on both sides: each side solves the same
    linear systems, with the same `HomDegree`s, or the same pruned
    components with the same `index` and `pos`.  The R-action on the
    right is written at the basis of R_c, in canonical coordinates; so is
    the restricted S-action at h of that basis.  So the returned witness,
    over id_R with h_*(L) as its left end, is the right-hand side's, with
    the systems of `witness` and no linear algebra of its own.
    """
    h = witness.h
    identity = GradedRingHom.identity(h.source)
    module = restrict(h, witness.module)
    if isinstance(witness, HomWitness):
        return HomWitness(identity, left, witness.target, module,
                          witness.degrees)
    return TensorWitness(identity, left, witness.right, module,
                         witness.index, witness.pos)


# ---------------------------------------------------------------------------
# scalar extension and coextension


def extend(h: GradedRingHom, module: GradedModule) -> TensorWitness:
    """Scalar extension S (x)_R M along h, with its tensor witness."""
    if module.ring != h.source:
        raise RingMismatch("extension expects a module over the source ring")
    return mixed_tensor(h, ring_as_module(h.target), module)


def extend_morphism(h: GradedRingHom, u: GradedMorphism,
                    source: TensorWitness | None = None,
                    target: TensorWitness | None = None) -> GradedMorphism:
    ids = GradedMorphism.identity(ring_as_module(h.target))
    return tensor_map(h, ids, u, source, target)


def coextend(h: GradedRingHom, module: GradedModule) -> HomWitness:
    """Scalar coextension Hom^G_R(h_*(S), M) along h, with its Hom witness."""
    if module.ring != h.source:
        raise RingMismatch("coextension expects a module over the source ring")
    return mixed_hom(h, ring_as_module(h.target), module)


def coextend_morphism(h: GradedRingHom, u: GradedMorphism,
                      source: HomWitness | None = None,
                      target: HomWitness | None = None) -> GradedMorphism:
    ids = GradedMorphism.identity(ring_as_module(h.target))
    return hom_map(h, ids, u, source, target)


def h_plus(h: GradedRingHom, module: GradedModule) -> GradedModule:
    """The functor M -> h_*(M (x)_S coextend(h, R)) on S-modules."""
    if module.ring != h.target:
        raise RingMismatch("h_plus expects a module over the target ring")
    hr = coextend(h, ring_as_module(h.source))
    return restrict(h, tensor(module, hr.module).module)


def h_sharp(h: GradedRingHom, module: GradedModule) -> GradedModule:
    """The functor M -> h_*(Hom^G_S(coextend(h, R), M)) on S-modules."""
    if module.ring != h.target:
        raise RingMismatch("h_sharp expects a module over the target ring")
    hr = coextend(h, ring_as_module(h.source))
    return restrict(h, hom_graded(hr.module, module).module)
