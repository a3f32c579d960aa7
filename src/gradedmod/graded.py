"""Graded rings, modules and morphisms with finite support.

A G-graded ring holds one finitely presented Z/nZ-module per supported
degree plus bilinear structure tensors for multiplication; modules carry
action tensors R_g x M_h -> M_{g+h}.  Morphisms are degree-zero and stored
as one matrix per degree.  All objects are validated on construction and
immutable afterwards; any degree outside the stored support denotes the
zero component.
"""

from __future__ import annotations

from .abelian import FgAbelianGroup, GroupEpi
from .znlinalg import (FpZnModule, LinAlgError, howell,
                       identity_matrix, mat_mul, solve_row, vec_mat,
                       zero_matrix)


class GradedError(Exception):
    """Raised when a graded object fails one of its axioms."""


class RingMismatch(GradedError):
    pass


class GroupMismatch(GradedError):
    pass


def _tensor_canon(tensor, g1: int, g2: int, out: FpZnModule):
    """Canonicalize a bilinear structure tensor t[i][j] -> coords."""
    rows = tuple(tuple(out.reduce(tensor[i][j]) for j in range(g2))
                 for i in range(g1))
    if all(not any(v) for block in rows for v in block):
        return None
    return rows


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


class GradedRing:
    """Finitely supported commutative G-graded ring over Z/nZ."""

    __slots__ = ("group", "n", "components", "mult", "one")

    def __init__(self, group: FgAbelianGroup, n: int, components, mult, one,
                 validate: bool = True):
        self.group = group
        self.n = n
        comps = {}
        for deg, comp in components.items():
            deg = group.canon(deg)
            if comp.ngens:
                comps[deg] = comp
        self.components = comps
        tensors = {}
        for (dg, dh), t in mult.items():
            dg, dh = group.canon(dg), group.canon(dh)
            if dg not in comps or dh not in comps:
                continue
            out_deg = group.add(dg, dh)
            if out_deg not in comps:
                if any(v % n for block in t for row in block for v in row):
                    raise GradedError(
                        "multiplication leaves the declared support")
                continue
            tc = _tensor_canon(t, comps[dg].ngens, comps[dh].ngens,
                               comps[out_deg])
            if tc is not None:
                tensors[(dg, dh)] = tc
        self.mult = tensors
        zero = group.zero()
        if zero not in comps:
            raise GradedError("a nonzero graded ring needs a degree-zero component")
        self.one = comps[zero].reduce(one)
        if not any(self.one):
            raise GradedError("the unit of the ring must be nonzero")
        if validate:
            self._validate()

    def component(self, deg) -> FpZnModule:
        return self.components.get(
            _degree_key(self.group, self.components, deg),
            zero_component(self.n))

    @property
    def support(self):
        return sorted(self.components)

    def multiply(self, a, b):
        """Product of homogeneous elements (deg, coords)."""
        (dg, x), (dh, y) = a, b
        g, comps = self.group, self.components
        out_deg = g.add(dg, dh)  # canonical, so looked up as it is
        out = comps.get(out_deg)
        if out is None:
            out = zero_component(self.n)
        t = self.mult.get((_degree_key(g, comps, dg), _degree_key(g, comps, dh)))
        return out_deg, apply_tensor(t, x, y, out)

    def one_element(self):
        return self.group.zero(), self.one

    def _validate(self):
        g = self.group
        for (dg, dh), t in self.mult.items():
            if g.add(dg, dh) not in self.components:
                raise GradedError("multiplication leaves the declared support")
        for dg, cg in self.components.items():
            for dh, ch in self.components.items():
                out = self.component(g.add(dg, dh))
                t = self.mult.get((dg, dh))
                ts = self.mult.get((dh, dg))
                for i in range(cg.ngens):
                    ei = _unit_vec(cg.ngens, i)
                    for j in range(ch.ngens):
                        ej = _unit_vec(ch.ngens, j)
                        p = apply_tensor(t, ei, ej, out)
                        q = apply_tensor(ts, ej, ei, out)
                        if p != q:
                            raise GradedError(
                                f"commutativity fails at degrees {dg},{dh}")
                # well-definedness against relations
                for r in cg.rels:
                    for j in range(ch.ngens):
                        if any(apply_tensor(t, r, _unit_vec(ch.ngens, j), out)):
                            raise GradedError(
                                f"multiplication not well defined at {dg},{dh}")
        zero = g.zero()
        for dh, ch in self.components.items():
            t = self.mult.get((zero, dh))
            for j in range(ch.ngens):
                ej = _unit_vec(ch.ngens, j)
                if apply_tensor(t, self.one, ej, ch) != ch.reduce(ej):
                    raise GradedError(f"unitality fails at degree {dh}")
        degs = list(self.components)
        for d1 in degs:
            c1 = self.components[d1]
            for d2 in degs:
                c2 = self.components[d2]
                for d3 in degs:
                    c3 = self.components[d3]
                    # products come back reduced in their component, so
                    # they compare directly
                    for i in range(c1.ngens):
                        x = _unit_vec(c1.ngens, i)
                        for j in range(c2.ngens):
                            y = _unit_vec(c2.ngens, j)
                            dxy, xy = self.multiply((d1, x), (d2, y))
                            for k in range(c3.ngens):
                                z = _unit_vec(c3.ngens, k)
                                dyz, yz = self.multiply((d2, y), (d3, z))
                                _, left = self.multiply((dxy, xy), (d3, z))
                                _, right = self.multiply((d1, x), (dyz, yz))
                                if left != right:
                                    raise GradedError(
                                        f"associativity fails at {d1},{d2},{d3}")

    def _key(self):
        return (self.group, self.n, tuple(sorted(self.components.items(),
                                                 key=lambda kv: kv[0])),
                tuple(sorted(self.mult.items(), key=lambda kv: kv[0])), self.one)

    def __eq__(self, other):
        return isinstance(other, GradedRing) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GradedRing(n={self.n}, support={self.support})"


def _unit_vec(k: int, i: int) -> tuple[int, ...]:
    return (0,) * i + (1,) + (0,) * (k - i - 1)


class GradedModule:
    """Finitely supported graded module over a GradedRing."""

    __slots__ = ("ring", "components", "action")

    def __init__(self, ring: GradedRing, components, action, validate: bool = True):
        self.ring = ring
        g = ring.group
        comps = {}
        for deg, comp in components.items():
            deg = g.canon(deg)
            if comp.n != ring.n:
                raise GradedError("component modulus differs from the ring modulus")
            if comp.ngens:
                comps[deg] = comp
        self.components = comps
        tensors = {}
        for (dg, dh), t in action.items():
            dg, dh = g.canon(dg), g.canon(dh)
            if dg not in ring.components or dh not in comps:
                continue
            out_deg = g.add(dg, dh)
            if out_deg not in comps:
                if any(v % ring.n for block in t for row in block for v in row):
                    raise GradedError("action leaves the declared support")
                continue
            tc = _tensor_canon(t, ring.components[dg].ngens, comps[dh].ngens,
                               comps[out_deg])
            if tc is not None:
                tensors[(dg, dh)] = tc
        self.action = tensors
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

    def act(self, r, x):
        """Action of homogeneous ring element r = (deg, coords) on x."""
        (dg, rv), (dh, xv) = r, x
        g = self.ring.group
        out_deg = g.add(dg, dh)  # canonical, so looked up as it is
        out = self.components.get(out_deg)
        if out is None:
            out = zero_component(self.ring.n)
        t = self.action.get((_degree_key(g, self.ring.components, dg),
                             _degree_key(g, self.components, dh)))
        return out_deg, apply_tensor(t, rv, xv, out)

    def _validate(self):
        g = self.ring.group
        for (dg, dh) in self.action:
            if g.add(dg, dh) not in self.components:
                raise GradedError("action leaves the declared support")
        for dh, ch in self.components.items():
            t = self.action.get((g.zero(), dh))
            for j in range(ch.ngens):
                ej = _unit_vec(ch.ngens, j)
                if apply_tensor(t, self.ring.one, ej, ch) != ch.reduce(ej):
                    raise GradedError(f"unit action fails at degree {dh}")
        for dg, cg in self.ring.components.items():
            for dh, ch in self.components.items():
                out = self.component(g.add(dg, dh))
                t = self.action.get((dg, dh))
                for r in cg.rels:
                    for j in range(ch.ngens):
                        if any(apply_tensor(t, r, _unit_vec(ch.ngens, j), out)):
                            raise GradedError(
                                f"action not well defined at {dg},{dh}")
                for s in ch.rels:
                    for i in range(cg.ngens):
                        if any(apply_tensor(t, _unit_vec(cg.ngens, i), s, out)):
                            raise GradedError(
                                f"action not well defined at {dg},{dh}")
        for d1, c1 in self.ring.components.items():
            for d2, c2 in self.ring.components.items():
                for dh, ch in self.components.items():
                    # actions come back reduced in their component, so
                    # they compare directly
                    for i in range(c1.ngens):
                        x = _unit_vec(c1.ngens, i)
                        for j in range(c2.ngens):
                            y = _unit_vec(c2.ngens, j)
                            dxy, xy = self.ring.multiply((d1, x), (d2, y))
                            for k in range(ch.ngens):
                                z = _unit_vec(ch.ngens, k)
                                _, left = self.act((dxy, xy), (dh, z))
                                dyz, yz = self.act((d2, y), (dh, z))
                                _, right = self.act((d1, x), (dyz, yz))
                                if left != right:
                                    raise GradedError(
                                        f"associativity of the action fails at "
                                        f"{d1},{d2},{dh}")

    def _key(self):
        return (self.ring, tuple(sorted(self.components.items(),
                                        key=lambda kv: kv[0])),
                tuple(sorted(self.action.items(), key=lambda kv: kv[0])))

    def __eq__(self, other):
        return isinstance(other, GradedModule) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GradedModule(support={self.support})"


class GradedMorphism:
    """Degree-zero morphism of graded modules over a common ring."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: GradedModule, target: GradedModule, maps,
                 validate: bool = True):
        if source.ring != target.ring:
            raise RingMismatch("morphism endpoints live over different rings")
        self.source = source
        self.target = target
        g = source.ring.group
        canon = {}
        for deg, mat in maps.items():
            deg = g.canon(deg)
            sc, tc = source.component(deg), target.component(deg)
            if not sc.ngens:
                continue
            mat = tuple(tc.reduce(row) for row in mat)
            if len(mat) != sc.ngens:
                raise GradedError(f"matrix at degree {deg} has wrong row count")
            if any(any(row) for row in mat):
                canon[deg] = mat
        self.maps = canon
        if validate:
            self._validate()

    def matrix(self, deg):
        deg = _degree_key(self.source.ring.group, self.maps, deg)
        if deg in self.maps:
            return self.maps[deg]
        return zero_matrix(self.source.component(deg).ngens,
                           self.target.component(deg).ngens)

    def apply(self, x):
        """Image of a homogeneous element (deg, coords)."""
        deg, xv = x
        tc = self.target.component(deg)
        mat = self.matrix(deg)
        if not mat:
            return deg, tc.zero()
        return deg, tc.reduce(vec_mat(xv, mat, tc.n))

    def _validate(self):
        for deg, mat in self.maps.items():
            sc, tc = self.source.component(deg), self.target.component(deg)
            for r in sc.rels:
                if any(tc.reduce(vec_mat(r, mat, tc.n))):
                    raise GradedError(f"morphism not well defined at degree {deg}")
        degs = set(self.source.components) | set(self.target.components)
        for dc, rc in self.source.ring.components.items():
            for dh in degs:
                sc = self.source.component(dh)
                # both sides come back reduced in the target component
                for i in range(rc.ngens):
                    r = (dc, _unit_vec(rc.ngens, i))
                    for j in range(sc.ngens):
                        x = (dh, _unit_vec(sc.ngens, j))
                        _, lhs = self.apply(self.source.act(r, x))
                        _, rhs = self.target.act(r, self.apply(x))
                        if lhs != rhs:
                            raise GradedError(
                                f"morphism is not linear at degrees {dc},{dh}")

    @property
    def is_zero(self) -> bool:
        return not self.maps

    def compose(self, first: "GradedMorphism") -> "GradedMorphism":
        """self after first."""
        if first.target != self.source:
            raise GradedError("composition endpoints do not match")
        degs = set(first.maps) | set(self.maps)
        maps = {}
        for deg in degs:
            maps[deg] = mat_mul(first.matrix(deg), self.matrix(deg),
                                self.source.ring.n)
        return GradedMorphism(first.source, self.target, maps, validate=False)

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
        maps = {deg: identity_matrix(c.ngens)
                for deg, c in module.components.items()}
        return GradedMorphism(module, module, maps, validate=False)

    @staticmethod
    def zero(source: GradedModule, target: GradedModule) -> "GradedMorphism":
        return GradedMorphism(source, target, {}, validate=False)

    def _key(self):
        return (self.source, self.target,
                tuple(sorted(self.maps.items(), key=lambda kv: kv[0])))

    def __eq__(self, other):
        return isinstance(other, GradedMorphism) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"GradedMorphism(degrees={sorted(self.maps)})"


class GradedRingHom:
    """Degree-preserving unital ring morphism h: R -> S over one group."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: GradedRing, target: GradedRing, maps,
                 validate: bool = True):
        if source.group != target.group:
            raise GroupMismatch("ring morphism endpoints over different groups")
        if source.n != target.n:
            raise GradedError("ring morphism endpoints over different moduli")
        self.source = source
        self.target = target
        g = source.group
        canon = {}
        for deg, mat in maps.items():
            deg = g.canon(deg)
            sc, tc = source.component(deg), target.component(deg)
            if not sc.ngens:
                continue
            mat = tuple(tc.reduce(row) for row in mat)
            if len(mat) != sc.ngens:
                raise GradedError(f"ring morphism matrix at {deg} malformed")
            if any(any(row) for row in mat):
                canon[deg] = mat
        self.maps = canon
        if validate:
            self._validate()

    def matrix(self, deg):
        deg = _degree_key(self.source.group, self.maps, deg)
        if deg in self.maps:
            return self.maps[deg]
        return zero_matrix(self.source.component(deg).ngens,
                           self.target.component(deg).ngens)

    def apply(self, x):
        deg, xv = x
        tc = self.target.component(deg)
        mat = self.matrix(deg)
        if not mat:
            return deg, tc.zero()
        return deg, tc.reduce(vec_mat(xv, mat, tc.n))

    def _validate(self):
        for deg, mat in self.maps.items():
            sc, tc = self.source.component(deg), self.target.component(deg)
            for r in sc.rels:
                if any(tc.reduce(vec_mat(r, mat, tc.n))):
                    raise GradedError(f"ring morphism not well defined at {deg}")
        _, one_img = self.apply(self.source.one_element())
        if one_img != self.target.one:
            raise GradedError("ring morphism does not preserve the unit")
        for d1, c1 in self.source.components.items():
            for d2, c2 in self.source.components.items():
                # both sides come back reduced in the target component
                for i in range(c1.ngens):
                    x = (d1, _unit_vec(c1.ngens, i))
                    for j in range(c2.ngens):
                        y = (d2, _unit_vec(c2.ngens, j))
                        _, lhs = self.apply(self.source.multiply(x, y))
                        _, rhs = self.target.multiply(self.apply(x), self.apply(y))
                        if lhs != rhs:
                            raise GradedError(
                                f"ring morphism not multiplicative at {d1},{d2}")

    def compose(self, first: "GradedRingHom") -> "GradedRingHom":
        """self after first."""
        if first.target != self.source:
            raise GradedError("ring morphism composition mismatch")
        degs = set(first.maps) | set(self.maps)
        maps = {deg: mat_mul(first.matrix(deg), self.matrix(deg), self.source.n)
                for deg in degs}
        return GradedRingHom(first.source, self.target, maps, validate=False)

    @staticmethod
    def identity(ring: GradedRing) -> "GradedRingHom":
        maps = {deg: identity_matrix(c.ngens) for deg, c in ring.components.items()}
        return GradedRingHom(ring, ring, maps, validate=False)

    @property
    def is_identity(self) -> bool:
        return self == GradedRingHom.identity(self.source)

    def _key(self):
        return (self.source, self.target,
                tuple(sorted(self.maps.items(), key=lambda kv: kv[0])))

    def __eq__(self, other):
        return isinstance(other, GradedRingHom) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


# ---------------------------------------------------------------------------
# constructions


def ring_as_module(ring: GradedRing) -> GradedModule:
    """The ring viewed as a graded module over itself."""
    return GradedModule(ring, dict(ring.components), dict(ring.mult),
                        validate=False)


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
    summands = [shift(ring_as_module(ring), g) for g in shift_degrees]
    if not summands:
        return GradedModule(ring, {}, {}, validate=False)
    total, _, _ = direct_sum(summands)
    return total


def direct_sum(modules):
    """Componentwise direct sum with injections and projections."""
    modules = list(modules)
    if not modules:
        raise GradedError("direct sum of an empty family needs an explicit ring")
    ring = modules[0].ring
    if any(m.ring != ring for m in modules):
        raise RingMismatch("direct sum over different rings")
    g = ring.group
    degs = sorted({d for m in modules for d in m.components})
    comps = {}
    offsets = {}  # (module index, degree) -> offset
    for deg in degs:
        off = 0
        rels = []
        total = sum(m.component(deg).ngens for m in modules)
        for idx, m in enumerate(modules):
            c = m.component(deg)
            offsets[(idx, deg)] = off
            for r in c.rels:
                vec = [0] * total
                vec[off:off + c.ngens] = list(r)
                rels.append(tuple(vec))
            off += c.ngens
        comps[deg] = FpZnModule(ring.n, total, rels)
    action = {}
    for dc in ring.components:
        rc = ring.components[dc]
        for deg in degs:
            out_deg = g.add(dc, deg)
            out = comps.get(out_deg)
            if out is None or not comps[deg].ngens:
                continue
            tensor = [[[0] * out.ngens for _ in range(comps[deg].ngens)]
                      for _ in range(rc.ngens)]
            nonzero = False
            for idx, m in enumerate(modules):
                t = m.action.get((dc, deg))
                if t is None:
                    continue
                src_off = offsets[(idx, deg)]
                out_off = offsets.get((idx, out_deg))
                if out_off is None:
                    continue
                for i, block in enumerate(t):
                    for j, row in enumerate(block):
                        for k, v in enumerate(row):
                            if v:
                                tensor[i][src_off + j][out_off + k] = v
                                nonzero = True
            if nonzero:
                action[(dc, deg)] = tensor
    total_mod = GradedModule(ring, comps, action, validate=False)
    injections, projections = [], []
    for idx, m in enumerate(modules):
        inj = {}
        proj = {}
        for deg in m.components:
            c = m.component(deg)
            tot = comps[deg].ngens
            off = offsets[(idx, deg)]
            inj[deg] = tuple(tuple(1 if jj == off + i else 0 for jj in range(tot))
                             for i in range(c.ngens))
        for deg in degs:
            c = m.component(deg)
            tot = comps[deg].ngens
            off = offsets.get((idx, deg), 0)
            proj[deg] = tuple(tuple(1 if off <= i < off + c.ngens and jj == i - off
                                    else 0 for jj in range(c.ngens))
                              for i in range(tot))
        injections.append(GradedMorphism(m, total_mod, inj, validate=False))
        projections.append(GradedMorphism(total_mod, m, proj, validate=False))
    return total_mod, injections, projections


# ---------------------------------------------------------------------------
# kernels, images, cokernels


def _sub_action(module: GradedModule, sub_comps, incl_mats):
    """Inherited action tensors for a graded submodule given by inclusions."""
    g = module.ring.group
    n = module.ring.n
    action = {}
    for dc, rc in module.ring.components.items():
        for dh, sc in sub_comps.items():
            if not sc.ngens:
                continue
            out_deg = g.add(dc, dh)
            out_sub = sub_comps.get(out_deg)
            amb_out = module.component(out_deg)
            t = module.action.get((dc, dh))
            tensor = []
            nonzero = False
            for i in range(rc.ngens):
                block = []
                for j in range(sc.ngens):
                    amb = apply_tensor(t, _unit_vec(rc.ngens, i),
                                       incl_mats[dh][j], amb_out)
                    if out_sub is None or not out_sub.ngens:
                        if any(amb):
                            raise GradedError("submodule is not action-stable")
                        block.append(())
                        continue
                    sol = solve_row(list(incl_mats[out_deg]) + list(amb_out.rels),
                                    amb, amb_out.ngens, n)
                    if sol is None:
                        raise GradedError("submodule is not action-stable")
                    coords = out_sub.reduce(sol[:out_sub.ngens])
                    if any(coords):
                        nonzero = True
                    block.append(coords)
                tensor.append(block)
            if nonzero and out_sub is not None and out_sub.ngens:
                action[(dc, dh)] = tensor
    return action


def graded_submodule(module: GradedModule, gens_by_degree):
    """Submodule generated per degree (already R-stable), with inclusion.

    `gens_by_degree` maps a degree to ambient coordinate vectors; the span
    must be stable under the ring action degreewise.
    """
    from .znlinalg import submodule as zn_submodule
    comps = {}
    incl_mats = {}
    for deg, gens in gens_by_degree.items():
        amb = module.component(deg)
        sub, basis = zn_submodule(amb, gens)
        if sub.ngens:
            comps[deg] = sub
            incl_mats[deg] = basis
    action = _sub_action(module, comps, incl_mats)
    sub = GradedModule(module.ring, comps, action, validate=False)
    maps = {deg: incl_mats[deg] for deg in comps}
    incl = GradedMorphism(sub, module, maps, validate=False)
    return sub, incl


def graded_kernel(u: GradedMorphism):
    """Kernel of a graded morphism with its inclusion."""
    from .znlinalg import preimage_gens
    gens = {}
    for deg in u.source.components:
        sc = u.source.component(deg)
        tc = u.target.component(deg)
        pre = preimage_gens(u.matrix(deg), tc.rels, tc.ngens, sc.n)
        gens[deg] = pre
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
    action = {}
    for (dc, dh), t in u.target.action.items():
        if dh not in comps:
            continue
        out = comps.get(u.target.ring.group.add(dc, dh))
        if out is None:
            continue
        action[(dc, dh)] = t
    coker = GradedModule(u.target.ring, comps, action, validate=False)
    maps = {deg: identity_matrix(tc.ngens)
            for deg, tc in u.target.components.items() if deg in coker.components}
    proj = GradedMorphism(u.target, coker, maps, validate=False)
    return coker, proj


# ---------------------------------------------------------------------------
# coarsening


def _fiber_layout(degrees, psi: GroupEpi):
    """Group a set of G-degrees by their image under psi.

    Returns {h_degree: [(g_degree, offset, ngens placeholder)]} ordering the
    fiber by the canonical sort of G-degrees; offsets are filled by callers.
    """
    layout = {}
    for deg in sorted(degrees):
        img = psi.apply(deg)
        layout.setdefault(img, []).append(deg)
    return layout


def _coarse_components(components, psi, n):
    layout = _fiber_layout(components.keys(), psi)
    comps = {}
    offsets = {}
    for img, fiber in layout.items():
        off = 0
        rels = []
        total = sum(components[d].ngens for d in fiber)
        for d in fiber:
            c = components[d]
            offsets[d] = off
            for r in c.rels:
                vec = [0] * total
                vec[off:off + c.ngens] = list(r)
                rels.append(tuple(vec))
            off += c.ngens
        comps[img] = FpZnModule(n, total, rels)
    return comps, offsets


def _coarse_tensors(tensors, src1_comps, src2_comps, out_comps,
                    off1, off2, off_out, psi, n):
    """Reassemble bilinear tensors blockwise along psi."""
    coarse = {}
    for (d1, d2), t in tensors.items():
        i1, i2 = psi.apply(d1), psi.apply(d2)
        dout = psi.target.add(i1, i2)
        c1, c2 = src1_comps[i1], src2_comps[i2]
        out = out_comps[dout]
        key = (i1, i2)
        tensor = coarse.setdefault(
            key, [[[0] * out.ngens for _ in range(c2.ngens)]
                  for _ in range(c1.ngens)])
        o1, o2 = off1[d1], off2[d2]
        oo = off_out[psi.source.add(d1, d2)]
        for i, block in enumerate(t):
            for j, row in enumerate(block):
                for k, v in enumerate(row):
                    if v:
                        tensor[o1 + i][o2 + j][oo + k] = v
    return coarse


def coarsen_ring(ring: GradedRing, psi: GroupEpi) -> GradedRing:
    """Regrade a ring along a group epimorphism by summing over fibers."""
    if psi.source != ring.group:
        raise GroupMismatch("psi does not start at the grading group of the ring")
    comps, offsets = _coarse_components(ring.components, psi, ring.n)
    mult = _coarse_tensors(ring.mult, comps, comps, comps,
                           offsets, offsets, offsets, psi, ring.n)
    zero_img = psi.target.zero()
    one = [0] * comps[zero_img].ngens
    off = offsets[ring.group.zero()]
    for i, v in enumerate(ring.one):
        one[off + i] = v
    return GradedRing(psi.target, ring.n, comps, mult, one, validate=False)


def coarsen_module(module: GradedModule, psi: GroupEpi,
                   coarse_ring: GradedRing | None = None) -> GradedModule:
    """Regrade a module along psi, over the coarsened ring."""
    ring = module.ring
    if psi.source != ring.group:
        raise GroupMismatch("psi does not start at the grading group of the module")
    if coarse_ring is None:
        coarse_ring = coarsen_ring(ring, psi)
    rcomps, roff = _coarse_components(ring.components, psi, ring.n)
    mcomps, moff = _coarse_components(module.components, psi, ring.n)
    action = _coarse_tensors(module.action, rcomps, mcomps, mcomps,
                             roff, moff, moff, psi, ring.n)
    return GradedModule(coarse_ring, mcomps, action, validate=False)


def _coarse_maps(fine, src, tgt, psi, n):
    """The matrices of a degreewise map `fine` (a morphism of modules or of
    rings) between its coarsened ends `src` and `tgt`: each matrix of
    `fine` is a block of the matrix at its degree's image under psi."""
    _, soff = _coarse_components(fine.source.components, psi, n)
    _, toff = _coarse_components(fine.target.components, psi, n)
    maps = {}
    for deg, mat in fine.maps.items():
        img = psi.apply(deg)
        smat = maps.setdefault(
            img, [[0] * tgt.component(img).ngens
                  for _ in range(src.component(img).ngens)])
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
    if coarse_ring is None:
        coarse_ring = coarsen_ring(u.source.ring, psi)
    src = coarsen_module(u.source, psi, coarse_ring)
    tgt = coarsen_module(u.target, psi, coarse_ring)
    return GradedMorphism(src, tgt,
                          _coarse_maps(u, src, tgt, psi, u.source.ring.n),
                          validate=False)


def coarsen_ring_hom(h: GradedRingHom, psi: GroupEpi) -> GradedRingHom:
    """Coarsening of a graded ring morphism."""
    src = coarsen_ring(h.source, psi)
    tgt = coarsen_ring(h.target, psi)
    return GradedRingHom(src, tgt, _coarse_maps(h, src, tgt, psi, h.source.n),
                         validate=False)
