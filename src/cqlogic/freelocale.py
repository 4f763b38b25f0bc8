"""Free locale over a finite ground set, with symbolic elements.

An element is a down-closed family of subsets of the ground set R, stored
extensionally as a frozenset of frozensets. The lattice order is reverse
inclusion (p <= q iff p is a superset of q), so the full powerset family is
the bottom and the empty family the top; the monoid addition is family
intersection, which coincides with the lattice join.

The carrier itself grows like the Dedekind numbers (2, 3, 6, 20, 168, ...),
so it is only enumerated - and only then turned into ordinary co-quantale
tables - for ground sets of at most MATERIALIZE_MAX elements. All element
operations work symbolically for any ground size the powerset fits.

The powerset with its naming keys and subset closures, the enumerated
carrier with its family -> index map and the materialized co-quantale depend
only on the ground tuple (and the co-quantale's name), so all are shared by
every FreeLocale over the same ground set: each is built, and each
validated, once per process. `FreeLocale.principal` reads the principal
down-set ↓s of a subset s from those closures, so a family built once is
one shared object with its hash already cached.

A FreeLocale also answers the table lookups of a co-quantale (``add`` and
``lattice.leq``/``join``/``cwb``) elementwise over object arrays, charged as
one Python call per cell, so the space kernels read both universes one way.
"""

from __future__ import annotations

import operator
from functools import lru_cache, reduce
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from . import lattice as lat
from .coquantale import validate_coquantale
from .errors import SizeLimit, UnknownElement

MATERIALIZE_MAX = 4   # Dedekind(4) = 168; Dedekind(5) = 7581 is already too big
SYMBOLIC_MAX = 8      # powerset of the ground set must stay enumerable

_GROUNDS = {}         # ground tuple -> (powerset, naming keys, subset closures)
_CARRIERS = {}        # ground tuple -> sorted tuple of families
_CARRIER_INDEX = {}   # ground tuple -> {family: its index in the carrier}
_MATERIALIZED = {}    # (ground tuple, name) -> validated CoQuantale


def _ground_data(ground):
    """The powerset, its naming keys and every subset closure, once per
    ground tuple."""
    hit = _GROUNDS.get(ground)
    if hit is None:
        psets = [frozenset(c) for k in range(len(ground) + 1) for c in combinations(ground, k)]
        keys = {s: (len(s), tuple(sorted(s))) for s in psets}   # naming order
        subsets = {}      # s -> every subset of s, built up by size
        for s in psets:
            subsets[s] = frozenset([s]).union(*(subsets[s - {g}] for g in s))
        hit = _GROUNDS[ground] = (psets, keys, subsets)
    return hit


def downclose(sets):
    """The down-closure of a family of sets, as a frozenset of frozensets."""
    return frozenset(frozenset(c) for s in map(frozenset, sets)
                     for k in range(len(s) + 1) for c in combinations(s, k))


def _down_families(ground):
    """Every down-closed family of subsets of ``ground``.

    For the last element g, such a family is F0 ∪ {s ∪ {g} : s ∈ F1} for
    down-closed families F1 ⊆ F0 over the other elements.
    """
    if not ground:
        return [frozenset(), frozenset([frozenset()])]
    last = frozenset(ground[-1:])
    smaller = _down_families(ground[:-1])
    return [low | frozenset(s | last for s in high)
            for low in smaller for high in smaller if high <= low]


class _Elementwise:
    """A binary operation read like a numpy table: ``op[a, b]`` applies it to
    the broadcast object arrays a and b, once per distinct pair of operands,
    and gives a scalar for two elements; a relation gives bools (``~`` on
    Python bools negates integers)."""

    def __init__(self, op, dtype=object):
        self.op, self.dtype = op, dtype

    def __getitem__(self, pair):
        once = np.frompyfunc(lru_cache(maxsize=None)(self.op), 2, 1)
        return np.asarray(once(*pair), dtype=self.dtype)[()]


class FreeLocale:
    """Value universe over ground set R: down-closed families under ⊇."""

    dtype = object                   # distance tables hold the families
    add = _Elementwise(operator.and_)   # p + q = p ∨ q, the family intersection

    def __init__(self, ground):
        self.ground = tuple(str(g) for g in ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground names must be unique")
        if len(self.ground) > SYMBOLIC_MAX:
            raise SizeLimit("free locale ground set capped at %d" % SYMBOLIC_MAX)
        self.name = "freelocale(%s)" % ",".join(self.ground)
        self._psets, self._keys, self._subsets = _ground_data(self.ground)
        self.bottom = frozenset(self._psets)
        self.top = frozenset()
        self.lattice = SimpleNamespace(leq=_Elementwise(operator.ge, bool),   # p <= q iff p ⊇ q
                                       join=self.add,
                                       cwb=_Elementwise(self.cwb, bool))

    @property
    def cell_cost(self):
        from .spaces import loop_cost     # a Python call per cell; spaces imports this module
        return loop_cost(1)

    # -- value universe surface ------------------------------------------

    @property
    def size(self):
        return len(self.carrier()) if len(self.ground) <= MATERIALIZE_MAX else None

    def contains(self, p):
        return isinstance(p, frozenset) and all(
            s in self._subsets and self._subsets[s] <= p for s in p)

    def meet_of(self, elems):
        return reduce(operator.or_, elems, self.top)

    def join_of(self, elems):
        return reduce(operator.and_, elems, self.bottom)

    def sub(self, p, q):
        """p ∸ q = the largest down-closed r with r ∧_family q inside p."""
        return frozenset(s for s in self._psets
                         if all(t not in q or t in p for t in self._subsets[s]))

    def sym_dist(self, p, q):
        return self.sub(p, q) & self.sub(q, p)

    def cwb(self, p, q):
        """p ≺ q iff some member of p contains every member of q; p is
        down-closed, so iff the union of the members of q is in p."""
        return frozenset().union(*q) in p

    def principal(self, s):
        """↓s, every subset of the subset s of the ground set, as the shared
        family of the ground data."""
        return self._subsets[frozenset(s)]

    def is_positive(self, p):
        return self.cwb(self.bottom, p)

    def positives(self):
        return [p for p in self.carrier() if self.is_positive(p)]

    def carrier(self):
        families = _CARRIERS.get(self.ground)
        if families is None:
            if len(self.ground) > MATERIALIZE_MAX:
                raise SizeLimit("carrier of %s is not enumerable" % self.name)
            families = _CARRIERS[self.ground] = tuple(
                sorted(_down_families(self.ground), key=self._sort_key))
        return families

    def carrier_index(self):
        """{family: its index in `carrier`}, the element of `materialize`."""
        index = _CARRIER_INDEX.get(self.ground)
        if index is None:
            index = _CARRIER_INDEX[self.ground] = {p: i for i, p in enumerate(self.carrier())}
        return index

    def _sort_key(self, p):
        return (len(p), sorted(self._keys[s] for s in p))

    # -- naming ------------------------------------------------------------

    def maximal_members(self, p):
        """The members of p inside no other member, largest first."""
        maximal = []
        for s in sorted(p, key=len, reverse=True):
            if not any(s < t for t in maximal):
                maximal.append(s)
        return maximal

    def element_name(self, p):
        parts = sorted(self._keys[s] for s in self.maximal_members(p))
        return "{%s}" % ",".join("+".join(names) if names else "0"
                                 for _, names in parts)

    def parse_element(self, text):
        text = text.strip()
        if not (text.startswith("{") and text.endswith("}")):
            raise UnknownElement("%r is not a family literal" % text)
        body = text[1:-1]
        gens = []
        if body:
            for token in body.split(","):
                token = token.strip()
                if token == "0":
                    gens.append(frozenset())
                    continue
                names = token.split("+")
                for nm in names:
                    if nm not in self.ground:
                        raise UnknownElement("%r is not a ground element" % nm)
                gens.append(frozenset(names))
        return downclose(gens)

    # -- table form ---------------------------------------------------------

    def materialize(self, name=None):
        """Enumerate the carrier and run it through full table validation.

        The result is shared: one validated co-quantale per (ground, name).
        """
        key = (self.ground, name or self.name)
        cached = _MATERIALIZED.get(key)
        if cached is not None:
            return cached
        families = self.carrier()
        pos = {s: i for i, s in enumerate(self._psets)}
        masks = np.array([sum(1 << pos[s] for s in p) for p in families], dtype=np.int64)
        index = np.full(1 << len(self._psets), -1, dtype=np.int32)
        index[masks] = np.arange(len(families), dtype=np.int32)
        # p <= q iff q ⊆ p; p + q is the family intersection p & q
        order = (masks[None, :] & ~masks[:, None]) == 0
        add = index[masks[:, None] & masks[None, :]]
        lattice = lat.validate_lattice(order, [self.element_name(p) for p in families])
        _MATERIALIZED[key] = validate_coquantale(lattice, add, name=key[1])
        return _MATERIALIZED[key]

    def __repr__(self):
        return "FreeLocale(ground=%r)" % (self.ground,)
