"""Finite abelian groups, their characters, and permutation models.

An abelian group H is a product of cyclic factors Z_m1 x ... x Z_mk; its
elements and characters are plain residue tuples handled by a
CyclicFactorization. Characters take exact values in Z[zeta_m], m the group
exponent.

Canonical element order: the first residue varies fastest, so for Z2xZ2 the
order is (0,0),(1,0),(0,1),(1,1). This is the order in which basis vectors,
character columns and polytope coordinates are laid out everywhere else, so
changing it would silently permute every vertex file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd, prod

from .cyclotomic import CyclotomicInt
from .errors import (CapExceededError, NotFreeError, NotNormalError,
                     NotTransitiveError, ParseError)


class CyclicFactorization:
    """Z_m1 x ... x Z_mk with residue-tuple elements. Empty = trivial group."""

    __slots__ = ("orders", "exponent", "size", "_strides")

    def __init__(self, orders):
        orders = tuple(int(m) for m in orders)
        if any(m < 2 for m in orders):
            raise ValueError("cyclic factor orders must be >= 2")
        self.orders = orders
        self.exponent = reduce(lambda a, b: a * b // gcd(a, b), orders, 1)
        self.size = prod(orders)
        strides = []
        s = 1
        for m in orders:
            strides.append(s)
            s *= m
        self._strides = tuple(strides)

    def elements(self):
        return [self.element(i) for i in range(self.size)]

    characters = elements  # the dual group has the same residue tuples

    def element(self, i: int) -> tuple:
        if not 0 <= i < self.size:
            raise IndexError(i)
        out = []
        for m in self.orders:
            out.append(i % m)
            i //= m
        return tuple(out)

    def index(self, t: tuple) -> int:
        return sum(r * s for r, s in zip(t, self._strides))

    def zero(self) -> tuple:
        return (0,) * len(self.orders)

    def unit(self, i: int) -> tuple:
        return tuple(1 if j == i else 0 for j in range(len(self.orders)))

    def add(self, a: tuple, b: tuple) -> tuple:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.orders))

    def neg(self, a: tuple) -> tuple:
        return tuple((-x) % m for x, m in zip(a, self.orders))

    def sub(self, a: tuple, b: tuple) -> tuple:
        return self.add(a, self.neg(b))

    def pairing_exponent(self, u: tuple, h: tuple) -> int:
        """Exponent e with chi_u(h) = zeta_m^e, m the group exponent."""
        m = self.exponent
        return sum(ui * hi * (m // mi) for ui, hi, mi in zip(u, h, self.orders)) % m

    def __eq__(self, other):
        return isinstance(other, CyclicFactorization) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"CyclicFactorization{self.orders}"


class Permutation:
    """A permutation of 0..n-1 stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        self.images = images

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """cycles: iterable of tuples of 0-based indices."""
        images = list(range(n))
        for cyc in cycles:
            for i, x in enumerate(cyc):
                y = cyc[(i + 1) % len(cyc)]
                if not 0 <= x < n:
                    raise ValueError(f"index {x} out of range for degree {n}")
                images[x] = y
        return cls(images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (p*q)(x) = p(q(x))
        return Permutation(self.images[j] for j in other.images)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    @property
    def degree(self) -> int:
        return len(self.images)

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = [False] * len(self.images)
        out = []
        for i in range(len(self.images)):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cycs = self.cycles()
        if not cycs:
            return "Permutation(id)"
        text = "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cycs)
        return f"Permutation{text}"


_CLOSURE_CAP = 10000


def close_group(generators):
    """Full element list of the generated group, sorted by image tuple;
    CapExceeded past _CLOSURE_CAP elements."""
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    n = generators[0].degree
    if any(g.degree != n for g in generators):
        raise ValueError("generators act on different state sets")
    elems = {Permutation.identity(n)}
    frontier = list(elems)
    while frontier:
        new = []
        for p in frontier:
            for g in generators:
                q = g * p
                if q not in elems:
                    elems.add(q)
                    new.append(q)
                    if len(elems) > _CLOSURE_CAP:
                        raise CapExceededError(
                            f"group closure exceeded cap {_CLOSURE_CAP}")
        frontier = new
    return sorted(elems)


@dataclass(frozen=True)
class GroupModel:
    """A state set A, an abelian H acting freely and transitively on A, and
    an overgroup G of symmetries, plus the derived orbit data."""

    name: str
    states: tuple
    group: CyclicFactorization
    h_perms: tuple          # Permutation per element, canonical element order
    g_elements: tuple       # full closed G, sorted
    elem_of_state: tuple    # h_a per state index (residue tuples)
    conj_orbits: tuple      # partition of element tuples
    dual_orbits: tuple      # partition of character tuples
    spec: str               # parseable description for output headers

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def is_abelian(self) -> bool:
        """True when G is just (the image of) H, so the dual action is trivial."""
        return len(self.g_elements) == self.group.size


def character_eval(model_or_group, chi: tuple, h: tuple) -> CyclotomicInt:
    """chi(h), exact, in Z[zeta_m] with m the exponent of H."""
    fac = model_or_group.group if isinstance(model_or_group, GroupModel) else model_or_group
    return CyclotomicInt.zeta(fac.exponent, fac.pairing_exponent(chi, h))


def unique_transporter(model: GroupModel, a: int, b: int) -> tuple:
    """The unique h in H with h(a) = b, for state indices a and b; equals
    h_b - h_a."""
    return model.group.sub(model.elem_of_state[b], model.elem_of_state[a])


def _char_pullback(group, model_perms, elem_lookup, chi, g):
    """The character h -> chi(g h g^-1), as a residue tuple."""
    m = group.exponent
    ginv = g.inverse()
    exps = []
    for i, mi in enumerate(group.orders):
        conj = g * model_perms[group.index(group.unit(i))] * ginv
        t = group.pairing_exponent(chi, elem_lookup[conj])
        step = m // mi
        assert t % step == 0, "pullback of a character must be a character"
        exps.append((t // step) % mi)
    return tuple(exps)


def build_model(states, orders, gen_images, extra_generators=(),
                base_state=0, name="custom", spec="") -> GroupModel:
    """Assemble and validate a GroupModel.

    states: ordered labels of A. orders: cyclic factor orders of H.
    gen_images: one Permutation per factor, the image of that factor's unit.
    extra_generators: further permutations; G = <H image, extras>.
    Raises NotTransitive / NotFree / NotNormal when the corresponding
    hypothesis fails, plain ValueError on malformed input.
    """
    states = tuple(states)
    group = CyclicFactorization(orders)
    gen_images = tuple(gen_images)
    extra_generators = tuple(extra_generators)
    if len(gen_images) != len(group.orders):
        raise ValueError("need one generator image per cyclic factor")
    n = len(states)
    for p in gen_images + extra_generators:
        if p.degree != n:
            raise ValueError("permutation degree does not match state count")
    ident = Permutation.identity(n)
    for p, m in zip(gen_images, group.orders):
        q = ident
        for _ in range(m):
            q = p * q
        if q != ident:
            raise ValueError(f"generator order does not divide {m}")
    for i, p in enumerate(gen_images):
        for q in gen_images[i + 1:]:
            if p * q != q * p:
                raise ValueError("generator images do not commute")

    h_perms = []
    for h in group.elements():
        p = ident
        for r, g in zip(h, gen_images):
            for _ in range(r):
                p = g * p
        h_perms.append(p)
    h_perms = tuple(h_perms)

    reached = {p(base_state) for p in h_perms}
    if len(reached) != n:
        raise NotTransitiveError(
            f"H reaches {len(reached)} of {n} states from the base")
    for h, p in zip(group.elements(), h_perms):
        if any(p(i) == i for i in range(n)) and h != group.zero():
            raise NotFreeError(f"element {h} fixes a state")

    g_elements = tuple(close_group(list(h_perms) + list(extra_generators)))
    h_set = set(h_perms)
    elem_lookup = {p: group.element(i) for i, p in enumerate(h_perms)}
    for g in g_elements:
        ginv = g.inverse()
        for p in h_perms:
            if g * p * ginv not in h_set:
                raise NotNormalError(f"conjugation by {g!r} leaves H")

    elem_of_state = [None] * n
    for h, p in zip(group.elements(), h_perms):
        elem_of_state[p(base_state)] = h

    # conjugation orbits of G on H, and the dual action on characters
    conj = []
    done = set()
    for h in group.elements():
        if h in done:
            continue
        orb = {elem_lookup[g * h_perms[group.index(h)] * g.inverse()]
               for g in g_elements}
        orb = tuple(sorted(orb, key=group.index))
        done.update(orb)
        conj.append(orb)
    dual = []
    done = set()
    for chi in group.characters():
        if chi in done:
            continue
        orb = {_char_pullback(group, h_perms, elem_lookup, chi, g)
               for g in g_elements}
        orb = tuple(sorted(orb, key=group.index))
        done.update(orb)
        dual.append(orb)
    conj = tuple(sorted(conj, key=lambda o: group.index(o[0])))
    dual = tuple(sorted(dual, key=lambda o: group.index(o[0])))
    if len(conj) != len(dual):
        raise NotNormalError("orbit counts disagree; model data inconsistent")

    return GroupModel(name=name, states=states, group=group, h_perms=h_perms,
                      g_elements=g_elements, elem_of_state=tuple(elem_of_state),
                      conj_orbits=conj, dual_orbits=dual,
                      spec=spec or name)


def abelian_model(orders, spec="") -> GroupModel:
    """The regular action of Z_m1 x ... x Z_mk on itself; G = H."""
    group = CyclicFactorization(orders)
    elems = group.elements()
    states = tuple("".join(str(r) for r in h) if h else "e" for h in elems)
    gens = []
    for i in range(len(group.orders)):
        u = group.unit(i)
        gens.append(Permutation(group.index(group.add(u, h)) for h in elems))
    name = "x".join(f"Z{m}" for m in group.orders) or "Z1"
    return build_model(states, group.orders, gens, name=name, spec=spec or name)


_DNA = ("A", "C", "G", "T")
# V4 inside S4: (1,0) -> (12)(34), (0,1) -> (13)(24), hence (1,1) -> (14)(23)
_V4_GENS = (Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1)))


def preset_model(name: str) -> GroupModel:
    key = name.upper()
    if key == "CFN":
        return build_model(("0", "1"), (2,), (Permutation((1, 0)),),
                           name="CFN", spec="CFN")
    if key == "K3P":
        return build_model(_DNA, (2, 2), _V4_GENS, name="K3P", spec="K3P")
    if key == "K2P":
        return build_model(_DNA, (2, 2), _V4_GENS,
                           extra_generators=(Permutation((0, 1, 3, 2)),),
                           name="K2P", spec="K2P")
    if key == "JC":
        return build_model(_DNA, (2, 2), _V4_GENS,
                           extra_generators=(Permutation((1, 0, 2, 3)),
                                             Permutation((1, 2, 3, 0))),
                           name="JC", spec="JC")
    raise ParseError(f"unknown preset {name!r}")


PRESETS = ("CFN", "JC", "K2P", "K3P")


def parse_group_spec(text: str) -> GroupModel:
    """"Z2", "Z3xZ4", ... for abelian groups, or a preset name. The spec
    kept for output headers has its whitespace removed, so a header splits
    on whitespace into its fields."""
    s = text.strip()
    if s.upper() in PRESETS:
        return preset_model(s)
    parts = s.split("x")
    orders = []
    for part in parts:
        p = part.strip()
        if not p or p[0] not in "Zz" or not p[1:].isdigit():
            raise ParseError(f"cannot parse group spec {text!r}")
        m = int(p[1:])
        if m < 1:
            raise ParseError(f"bad cyclic order in {text!r}")
        if m > 1:
            orders.append(m)
    return abelian_model(orders, spec="".join(s.split()))


def _parse_cycles(text: str, n: int) -> Permutation:
    """Cycle notation with 1-based entries, e.g. "(1 2)(3 4)" or "(1,2)(3,4)"."""
    s = text.strip()
    if s in ("id", "()", "e"):
        return Permutation.identity(n)
    cycles = []
    i = 0
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            raise ParseError(f"expected '(' in permutation {text!r}", offset=i)
        j = s.find(")", i)
        if j < 0:
            raise ParseError(f"unclosed cycle in {text!r}", offset=i)
        body = s[i + 1:j].replace(",", " ").split()
        try:
            cyc = tuple(int(x) - 1 for x in body)
        except ValueError:
            raise ParseError(f"non-integer entry in cycle {s[i:j+1]!r}",
                             offset=i) from None
        if any(not 0 <= x < n for x in cyc):
            raise ParseError(f"cycle entry out of range 1..{n} in {text!r}",
                             offset=i)
        if len(set(cyc)) != len(cyc):
            raise ParseError(f"repeated entry in cycle {s[i:j+1]!r}", offset=i)
        if cyc:
            cycles.append(cyc)
        i = j + 1
    return Permutation.from_cycles(n, cycles)


def parse_group_file(text: str) -> GroupModel:
    """Model description, one 'key: value' per line. Keys:

    states: whitespace-separated labels
    orders: cyclic factor orders of H
    h:      one permutation per factor, ';'-separated, cycle notation (1-based)
    g:      optional extra generators, same format
    base:   optional base state label (default: first state)
    name:   optional display name, nonempty and without whitespace
    Lines starting with '#' are comments.
    """
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"line {lineno}: expected 'key: value'")
        key, _, val = line.partition(":")
        key = key.strip().lower()
        if key in fields:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = val.strip()
    for req in ("states", "orders", "h"):
        if req not in fields:
            raise ParseError(f"missing required key {req!r}")
    states = tuple(fields["states"].split())
    if len(set(states)) != len(states):
        raise ParseError("duplicate state labels")
    try:
        orders = tuple(int(x) for x in fields["orders"].split())
    except ValueError:
        raise ParseError("orders must be integers") from None
    n = len(states)
    gens = tuple(_parse_cycles(p, n) for p in fields["h"].split(";"))
    extras = tuple(_parse_cycles(p, n) for p in fields.get("g", "").split(";")
                   if p.strip()) if fields.get("g") else ()
    base = fields.get("base", states[0])
    if base not in states:
        raise ParseError(f"base state {base!r} not in state list")
    name = fields.get("name", "custom")
    if len(name.split()) != 1:
        raise ParseError(f"name {name!r} is empty or contains whitespace")
    return build_model(states, orders, gens, extra_generators=extras,
                       base_state=states.index(base), name=name, spec=name)
