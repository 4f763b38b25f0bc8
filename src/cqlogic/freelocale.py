"""Free locale over a finite ground set, and its principal down-sets as
bitmasks.

An element of the free locale is a down-closed family of subsets of the
ground set R, a frozenset of frozensets. The lattice order is reverse
inclusion (p <= q iff p is a superset of q), so the full powerset family is
the bottom and the empty family the top; the monoid addition is family
intersection, which coincides with the lattice join.

The carrier grows like the Dedekind numbers (2, 3, 6, 20, 168, ...), so it
is only enumerated - and only then turned into ordinary co-quantale tables -
for ground sets of at most MATERIALIZE_MAX elements. The enumerated carrier
and the materialized co-quantale depend only on the ground tuple, so both
are shared by every FreeLocale over the same ground set: each is built,
and each validated, once per process.

Every distance of the Flagg dictionary is a principal down-set ↓S, and the
principal down-sets are closed under + and ∨: ↓S ∩ ↓T = ↓(S ∩ T). On them
↓S ≤ ↓T iff S ⊇ T, and ≺ is ≤, since the union of the members of ↓T is T.
`PrincipalDownsets` is that carrier, each element the k-bit mask of S in a
uint64 (k <= MASK_MAX): + and ∨ are bitwise AND, ≤ and ≺ are mask inclusion,
the bottom ↓R is the full mask, every element is positive, and an element is
named as the free locale names ↓S. A meet of principal down-sets is not
principal, so it has no meets.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from types import SimpleNamespace

import numpy as np

from . import lattice as lat
from .coquantale import validate_coquantale
from .errors import NoMeets, SizeLimit

MATERIALIZE_MAX = 4   # Dedekind(4) = 168; Dedekind(5) = 7581 is already too big
MASK_MAX = 64         # a principal down-set is a k-bit mask in a uint64

_CARRIERS = {}        # ground tuple -> sorted tuple of families
_PRINCIPAL_INDEX = {}  # ground tuple -> [S]: the carrier index of ↓S
_PRINCIPALS = {}      # ground tuple -> PrincipalDownsets
_MATERIALIZED = {}    # ground tuple -> validated CoQuantale


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


def _members(ground, mask):
    """The names in the set S of ``ground`` given as a mask (bit i: name i)."""
    return [g for i, g in enumerate(ground) if mask >> i & 1]


def _family_name(members):
    """The name of the down-closure of the pairwise incomparable sets
    ``members``: each set's names joined by ``+`` (``0`` for the empty set),
    smallest sets first."""
    parts = sorted((len(s), sorted(s)) for s in members)
    return "{%s}" % ",".join("+".join(names) if names else "0" for _, names in parts)


class FreeLocale:
    """The free locale over ground set R: down-closed families under ⊇."""

    def __init__(self, ground):
        self.ground = tuple(str(g) for g in ground)
        if len(set(self.ground)) != len(self.ground):
            raise ValueError("ground names must be unique")
        self.name = "freelocale(%s)" % ",".join(self.ground)

    def carrier(self):
        families = _CARRIERS.get(self.ground)
        if families is None:
            if len(self.ground) > MATERIALIZE_MAX:
                raise SizeLimit("carrier of %s is not enumerable" % self.name)
            families = _CARRIERS[self.ground] = tuple(sorted(
                _down_families(self.ground),
                key=lambda p: (len(p), sorted((len(s), sorted(s)) for s in p))))
        return families

    def principal(self, s):
        """↓s, every subset of the subset s of the ground set."""
        s = sorted(s)
        return frozenset(frozenset(c) for k in range(len(s) + 1) for c in combinations(s, k))

    def principal_index(self):
        """[S]: the index in `carrier` of ↓S, for the set S of ground
        elements given as a mask (bit i for the i-th name): the elements of
        `principals` as elements of `materialize`."""
        index = _PRINCIPAL_INDEX.get(self.ground)
        if index is None:
            position = {p: i for i, p in enumerate(self.carrier())}
            index = np.array([position[self.principal(_members(self.ground, S))]
                              for S in range(1 << len(self.ground))], dtype=np.int32)
            index.setflags(write=False)
            _PRINCIPAL_INDEX[self.ground] = index
        return index

    def principals(self):
        """The principal down-sets as bitmasks, shared per ground set."""
        carrier = _PRINCIPALS.get(self.ground)
        if carrier is None:
            carrier = _PRINCIPALS[self.ground] = PrincipalDownsets(self)
        return carrier

    # -- naming ------------------------------------------------------------

    def maximal_members(self, p):
        """The members of p inside no other member, largest first."""
        maximal = []
        for s in sorted(p, key=len, reverse=True):
            if not any(s < t for t in maximal):
                maximal.append(s)
        return maximal

    def element_name(self, p):
        return _family_name(self.maximal_members(p))

    # -- table form ---------------------------------------------------------

    def materialize(self):
        """Enumerate the carrier and run it through full table validation.

        The result is shared: one validated co-quantale per ground set.
        """
        cached = _MATERIALIZED.get(self.ground)
        if cached is not None:
            return cached
        families = self.carrier()
        bit = {g: 1 << i for i, g in enumerate(self.ground)}
        # a family as a mask over the subsets, the subset s at bit (s as a mask)
        masks = np.array([sum(1 << sum(map(bit.get, s)) for s in p) for p in families],
                         dtype=np.int64)
        index = np.full(1 << (1 << len(self.ground)), -1, dtype=np.int32)
        index[masks] = np.arange(len(families), dtype=np.int32)
        # p <= q iff q ⊆ p; p + q is the family intersection p & q
        order = (masks[None, :] & ~masks[:, None]) == 0
        add = index[masks[:, None] & masks[None, :]]
        lattice = lat.validate_lattice(order, [self.element_name(p) for p in families])
        _MATERIALIZED[self.ground] = validate_coquantale(lattice, add, name=self.name)
        return _MATERIALIZED[self.ground]

    def __repr__(self):
        return "FreeLocale(ground=%r)" % (self.ground,)


class _Bitwise:
    """A binary operation on masks read like a numpy table: ``op[a, b]``
    applies it to the broadcast arrays (or scalars) a and b."""

    def __init__(self, op):
        self.op = op

    def __getitem__(self, pair):
        return self.op(*pair)


class PrincipalDownsets:
    """The principal down-sets ↓S of a free locale on k <= MASK_MAX names,
    each the uint64 mask of S; see the module docstring."""

    dtype = np.uint64

    def __init__(self, locale):
        k = len(locale.ground)
        if k > MASK_MAX:
            raise SizeLimit("the principal down-sets of %s need %d bits (at most %d)"
                            % (locale.name, k, MASK_MAX))
        self.ground = locale.ground
        self.name = "principal(%s)" % ",".join(locale.ground)
        self.size = 1 << k
        self.bottom = self.size - 1
        self.add = _Bitwise(np.bitwise_and)          # ↓S + ↓T = ↓(S ∩ T)
        within = _Bitwise(lambda a, b: (b & ~a) == 0)   # S_b ⊆ S_a: a ≤ b and a ≺ b
        self.lattice = SimpleNamespace(leq=within, join=self.add, cwb=within)

    def is_positive(self, e):
        return True

    def join_of(self, elems):
        return reduce(np.bitwise_and, elems, self.bottom)

    def meet_of(self, elems):
        raise NoMeets("%s has no meets: a meet of principal down-sets is not principal"
                      % self.name)

    def element_name(self, mask):
        return _family_name([_members(self.ground, mask)])
