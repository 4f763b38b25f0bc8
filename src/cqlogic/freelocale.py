"""Free locale over a finite ground set, and its principal down-sets as
bitmasks.

An element of the free locale is a down-closed family of subsets of the
ground set R. A subset s of R is the mask of its names (bit i for the i-th
name), and a family is one mask over the 2^k subsets, with bit s set when s
is a member. The lattice order is reverse inclusion (p <= q iff p is a
superset of q), so the full powerset family is the bottom and the empty
family the top; the monoid addition is family intersection p & q, which
coincides with the lattice join.

The carrier grows like the Dedekind numbers (2, 3, 6, 20, 168, ...), so it
is only enumerated - and only then turned into ordinary co-quantale tables -
for ground sets of at most MATERIALIZE_MAX elements. ``FreeLocale(ground)``
returns the one FreeLocale of that ground tuple, kept in ``_SHARED``, and
everything built from the ground alone (the family masks, the principal
index, the materialized co-quantale and the principal down-sets) is cached
on it: each is built, and each validated, once per process.

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

from functools import cached_property, reduce
from types import SimpleNamespace

import numpy as np

from . import lattice as lat
from .coquantale import validate_coquantale
from .errors import NoMeets, SizeLimit

MATERIALIZE_MAX = 4   # Dedekind(4) = 168; Dedekind(5) = 7581 is already too big
MASK_MAX = 64         # a principal down-set is a k-bit mask in a uint64

_SHARED = {}          # ground tuple -> its FreeLocale


def _members(ground, mask):
    """The names in the set S of ``ground`` given as a mask (bit i: name i)."""
    return [g for i, g in enumerate(ground) if mask >> i & 1]


def _family_name(members):
    """The name of the down-closure of the pairwise incomparable sets
    ``members``: each set's names joined by ``+`` (``0`` for the empty set),
    smallest sets first."""
    parts = sorted((len(s), sorted(s)) for s in members)
    return "{%s}" % ",".join("+".join(names) if names else "0" for _, names in parts)


def _maximal(family, k):
    """The members s of the down-closed ``family`` that no other member
    contains: by down-closure, those with no s ∪ {i} in the family."""
    return [s for s in range(1 << k) if family >> s & 1
            and not any(family >> (s | 1 << i) & 1 for i in range(k) if not s >> i & 1)]


class FreeLocale:
    """The free locale over ground set R: down-closed families under ⊇, one
    shared object per ground tuple."""

    _table = _index = _principals = None

    def __new__(cls, ground):
        ground = tuple(str(g) for g in ground)
        locale = _SHARED.get(ground)
        if locale is None:
            if len(set(ground)) != len(ground):
                raise ValueError("ground names must be unique")
            locale = _SHARED[ground] = super().__new__(cls)
            locale.ground = ground
            locale.name = "freelocale(%s)" % ",".join(ground)
        return locale

    @cached_property
    def families(self):
        """Every down-closed family as a mask over the subsets, read-only, by
        member count, then by the members' sizes and sorted names.

        With the i-th name, such a family is F0 | F1 << 2^i for down-closed
        families F1 ⊆ F0 over the names before it: F1 holds the members that
        gain the i-th name.
        """
        k = len(self.ground)
        if k > MATERIALIZE_MAX:
            raise SizeLimit("carrier of %s is not enumerable" % self.name)
        masks = np.array([0, 1], dtype=np.int64)          # no member, and ∅ alone
        for i in range(k):
            low, high = np.nonzero((masks[None, :] & ~masks[:, None]) == 0)
            masks = masks[low] | masks[high] << (1 << i)
        # a set ranks by its size and sorted names, a family by its member
        # count and the ranks of its members
        sets = sorted(range(1 << k), key=lambda s: (bin(s).count("1"),
                                                    sorted(_members(self.ground, s))))
        masks = np.array(sorted(masks.tolist(), key=lambda p: (
            bin(p).count("1"), [r for r, s in enumerate(sets) if p >> s & 1])), dtype=np.int64)
        masks.setflags(write=False)
        return masks

    @cached_property
    def _position(self):
        """[F]: the index in `families` of the family mask F, -1 off them."""
        masks = self.families
        position = np.full(1 << (1 << len(self.ground)), -1, dtype=np.int32)
        position[masks] = np.arange(len(masks), dtype=np.int32)
        return position

    def principal_index(self):
        """[S]: the index in `families` of ↓S, for the set S of ground
        elements given as a mask (bit i for the i-th name): the elements of
        `principals` as elements of `materialize`."""
        if self._index is None:
            sets = np.arange(1 << len(self.ground))
            down = ((sets[None, :] & ~sets[:, None]) == 0) @ (1 << sets)   # [S]: ↓S
            self._index = self._position[down]
            self._index.setflags(write=False)
        return self._index

    def principals(self):
        """The principal down-sets as bitmasks, shared per ground set."""
        if self._principals is None:
            self._principals = PrincipalDownsets(self)
        return self._principals

    def materialize(self):
        """Run the carrier through full table validation.

        The result is shared: one validated co-quantale per ground set.
        """
        if self._table is None:
            masks, k = self.families, len(self.ground)
            # p <= q iff q ⊆ p; p + q is the family intersection p & q
            order = (masks[None, :] & ~masks[:, None]) == 0
            add = self._position[masks[:, None] & masks[None, :]]
            names = [_family_name([_members(self.ground, s) for s in _maximal(p, k)])
                     for p in masks.tolist()]
            lattice = lat.validate_lattice(order, names)
            self._table = validate_coquantale(lattice, add, name=self.name)
        return self._table

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
