"""Square-free monomials over GF(2), the divisibility-style partial order,
and decreasing (downward closed) monomial codes.

A monomial on variables x_0..x_{n-1} is stored as an index bitmask: bit i set
means x_i divides the monomial.  The empty mask is the constant 1.  A code's
information set is also held as one membership integer, bit m set when mask m
is a member, so that set checks run as a few shifts and masks on that integer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

import numpy as np

MAX_VARS = 16

__all__ = [
    "MAX_VARS",
    "CapabilityError",
    "Monomial",
    "MonomialCode",
    "monomial_to_row",
    "row_to_monomial",
    "partial_order_leq",
    "decreasing_closure",
    "is_decreasing",
    "minimal_generators",
    "enumerate_decreasing_codes",
]


class CapabilityError(RuntimeError):
    """Raised when an exact computation is requested beyond its guarded size."""


@dataclass(frozen=True, order=True)
class Monomial:
    """A square-free monomial, identified by the bitmask of its variable indices."""

    mask: int

    def __post_init__(self) -> None:
        mask = _plain_int(self.mask)
        if mask is None:
            raise ValueError(f"monomial mask must be an int, got {self.mask!r}")
        if not 0 <= mask < 1 << MAX_VARS:
            raise ValueError(f"monomial mask out of range: {mask}")
        if mask is not self.mask:
            object.__setattr__(self, "mask", mask)

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "Monomial":
        mask = 0
        for i in indices:
            if not 0 <= i < MAX_VARS:
                raise ValueError(f"variable index out of range: {i}")
            mask |= 1 << i
        return cls(mask)

    @property
    def indices(self) -> tuple[int, ...]:
        """Variable indices in increasing order."""
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def divides(self, other: "Monomial") -> bool:
        return self.mask & other.mask == self.mask

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "".join(f"x{i}" for i in self.indices)


def monomial_to_row(f: Monomial, n: int) -> int:
    """Row index of f in the length-2**n polar transform.

    The row is the integer whose zero bits (below n) sit exactly at the
    variable indices of f.
    """
    n = _check_n(n)
    if f.mask >> n:
        raise ValueError(f"monomial {f} uses variables beyond x{n - 1}")
    return (1 << n) - 1 ^ f.mask


def row_to_monomial(row: int, n: int) -> Monomial:
    """Inverse of monomial_to_row."""
    n = _check_n(n)
    if not 0 <= row < 1 << n:
        raise ValueError(f"row index out of range for n={n}: {row}")
    return Monomial((1 << n) - 1 ^ row)


def _plain_int(value: object) -> int | None:
    """value as a plain int when it is an integer, a numpy one included
    (operator.index); None for anything else, a bool or np.bool_ too."""
    if isinstance(value, (bool, np.bool_)):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _positive_int(name: str, value: object) -> int:
    """value as a plain int (see _plain_int), ValueError unless one >= 1."""
    got = _plain_int(value)
    if got is None:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if got < 1:
        raise ValueError(f"{name} must be positive")
    return got


def _check_n(n: object) -> int:
    got = _plain_int(n)
    if got is None or not 1 <= got <= MAX_VARS:
        raise ValueError(f"variable count must be an int in 1..{MAX_VARS}, got {n!r}")
    return got


def partial_order_leq(f: Monomial, g: Monomial) -> bool:
    """Whether f precedes g in the monomial order.

    Same degree: the sorted index tuples compare elementwise.  Lower degree:
    f must precede some degree-deg(f) divisor of g; the elementwise-largest
    such divisor is the top deg(f) indices of g, so comparing against that
    block alone decides the relation.
    """
    if f.mask == g.mask:
        return True
    df, dg = f.degree, g.degree
    if df > dg:
        return False
    fi, gi = f.indices, g.indices
    off = dg - df
    return all(fi[j] <= gi[j + off] for j in range(df))


def decreasing_closure(generators: Iterable[Monomial], n: int) -> "MonomialCode":
    """Smallest decreasing code on n variables containing the generators."""
    members = MonomialCode(n, generators).members
    # The down moves generate the full order, so closing the set under them
    # reaches exactly the lower set.
    while (grown := members | _down_images(members, n)) != members:
        members = grown
    return MonomialCode.from_members(n, members)


@lru_cache(maxsize=None)
def _variable_members(n: int) -> tuple[int, ...]:
    """Per variable x_i, the membership integer of every mask on n variables
    that contains x_i: runs of 2**i clear and 2**i set bits, repeated."""
    full = (1 << (1 << n)) - 1
    out = []
    for i in range(n):
        run = 1 << i
        period = ((1 << run) - 1) << run
        out.append(period * (full // ((1 << 2 * run) - 1)))
    return tuple(out)


def _swap_variables(members: int, n: int, i: int, j: int) -> int:
    """Exchange x_i and x_j, i < j, in every member of a membership integer.

    Members holding x_i but not x_j move up by 2**j - 2**i, members holding
    x_j but not x_i move down by as much, and the others stay.
    """
    has = _variable_members(n)
    up = has[i] & ~has[j]
    d = (1 << j) - (1 << i)
    return members & ~(up | up << d) | (members & up) << d | members >> d & up


@lru_cache(maxsize=None)
def _adjacent_up(n: int) -> tuple[int, ...]:
    """Per i < n-1, the membership integer of the masks holding x_i but not
    x_{i+1}: the members that swapping x_i and x_{i+1} moves up by 2**i."""
    has = _variable_members(n)
    return tuple(has[i] & ~has[i + 1] for i in range(n - 1))


@lru_cache(maxsize=None)
def _down_moves(n: int) -> tuple[tuple[int, int], ...]:
    """The generating down moves as (mask, shift) pairs: the members inside
    mask move down by shift.  Dropping x_0 comes first, then x_i to x_{i-1}
    for i = 1..n-1 on the masks holding x_i but not x_{i-1}."""
    has = _variable_members(n)
    return ((has[0], 1),) + tuple((has[i] & ~has[i - 1], 1 << i - 1) for i in range(1, n))


def _down_images(members: int, n: int) -> int:
    """Union of the members' images under the generating down moves.

    The moves are dropping x_0, and moving x_i to x_{i-1} when x_{i-1} is
    absent: n masked shifts, each lowering the mask by a fixed amount.
    Dropping x_i, i > 0, is two of these moves through a monomial between
    the two (move x_i down then drop x_{i-1}, or drop x_{i-1} then move x_i
    down), so a set closed under these n moves is closed under all of them,
    and in a down-set a member one step below another member is also one of
    these moves below some member.
    """
    out = 0
    for mask, shift in _down_moves(n):
        out |= (members & mask) >> shift
    return out


def _member_masks(members: int) -> list[int]:
    """The masks whose bits are set in a membership integer, ascending."""
    return [m for m, bit in enumerate(bin(members)[:1:-1]) if bit == "1"]


def is_decreasing(code: "MonomialCode") -> bool:
    """Whether the information set is downward closed for the monomial order."""
    return not code.down_images & ~code.members


@lru_cache(maxsize=None)
def _monomial(mask: int) -> Monomial:
    """The Monomial of a mask, built once: a cache hit is cheaper than
    building the frozen dataclass once per generator."""
    return Monomial(mask)


def minimal_generators(code: "MonomialCode") -> frozenset[Monomial]:
    """Maximal monomials of a decreasing code; its unique minimal generator set.

    A member is maximal when no member reaches it by one down move.  The
    few maximal members are read off their set bits, highest first, which
    takes no negated copy of the integer per bit.
    """
    members = code.members
    below = code.down_images
    if below & ~members:
        raise ValueError("minimal generators are defined for decreasing codes only")
    top = members & ~below
    out = []
    while top:
        m = top.bit_length() - 1
        out.append(_monomial(m))
        top ^= 1 << m
    return frozenset(out)


class _derived:
    """A field computed from its instance on first read and stored in the
    instance's __dict__ under its own name, where later reads find it first
    (a non-data descriptor).  functools.cached_property does the same, but
    on Python 3.11 it takes a class-wide lock on every first read."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True, init=False, repr=False)
class MonomialCode:
    """A monomial code: n variables and the information set of monomials,
    held as `members` (bit m set exactly when Monomial(m) is a member), which
    is the code's identity; the set, rows and dimension are derived once."""

    n: int
    members: int

    def __init__(self, n: int, info_set: Iterable[Monomial]) -> None:
        n = _check_n(n)
        info_set = frozenset(info_set)
        if not info_set:
            raise ValueError("information set is empty")
        # The integer is read from a base-2 numeral whose digit ~m stands for
        # mask m: or-ing each bit into a growing integer would copy that
        # integer, up to 2**n bits, once per member.  A mask of 2**n or more
        # indexes past the numeral's first digit.
        digits = bytearray(b"0" * (1 << n))
        one = ord("1")
        try:
            for f in info_set:
                digits[~f.mask] = one
        except IndexError:
            raise ValueError(f"monomial {f} uses variables beyond x{n - 1}") from None
        self.__dict__.update(n=n, members=int(digits, 2), info_set=info_set)

    @classmethod
    def from_members(cls, n: int, members: int) -> "MonomialCode":
        """The code whose information set is the masks set in `members`."""
        n = _check_n(n)
        got = _plain_int(members)
        if got is None:
            raise ValueError(f"members must be an int, got {members!r}")
        if got <= 0 or got >> (1 << n):
            raise ValueError(f"members must be a nonzero subset of the {1 << n} masks")
        return cls._unchecked(n, got)

    @classmethod
    def _unchecked(cls, n: int, members: int) -> "MonomialCode":
        """The code of a plain int n in 1..MAX_VARS and a plain int nonzero
        subset `members` of its 2**n masks, taken as given: for callers that
        make both themselves, as the census search does."""
        code = cls.__new__(cls)
        code.__dict__.update(n=n, members=members)
        return code

    def __reduce__(self) -> tuple:  # a pickle carries the identity, not derived fields
        return MonomialCode.from_members, (self.n, self.members)

    def __repr__(self) -> str:  # hex: int's decimal str stops at 4,300 digits
        return f"MonomialCode(n={self.n}, members={self.members:#x})"

    @property
    def block_length(self) -> int:
        return 1 << self.n

    @_derived
    def info_set(self) -> frozenset[Monomial]:
        return frozenset(map(Monomial, _member_masks(self.members)))

    @_derived
    def dimension(self) -> int:
        return self.members.bit_count()

    @_derived
    def rows(self) -> tuple[int, ...]:
        """Information row indices, ascending (mask complements, descending)."""
        full = (1 << self.n) - 1
        return tuple(full ^ m for m in reversed(_member_masks(self.members)))

    @_derived
    def down_images(self) -> int:
        """Membership integer of the members' images under the generating
        down moves, which the decreasing check and the generators share."""
        return _down_images(self.members, self.n)

    @classmethod
    def from_rows(cls, n: int, rows: Iterable[int]) -> "MonomialCode":
        return cls(n, frozenset(row_to_monomial(r, n) for r in rows))

    def __contains__(self, f: Monomial) -> bool:
        return bool(self.members >> f.mask & 1)


@lru_cache(maxsize=None)
def _extension(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The masks in a linear extension of the order (by degree, then index
    tuple), and per mask the membership integer of its up-set."""
    total = 1 << n
    order = tuple(sorted(range(total), key=lambda m: (m.bit_count(), Monomial(m).indices)))
    # Complementing a mask turns each down move into an up move, so m's
    # up-set is the mirror image of the down-set of its complement.
    up = []
    for m in range(total):
        down = decreasing_closure([Monomial(total - 1 ^ m)], n).members
        up.append(int(f"{down:0{total}b}"[::-1], 2))
    return order, tuple(up)


def enumerate_decreasing_codes(n: int, dimension: int) -> Iterator[MonomialCode]:
    """All decreasing codes with the given dimension, in a deterministic order.

    Exhaustive search; guarded at n <= 7 where the census is tractable.
    """
    n = _check_n(n)
    if n > 7:
        raise CapabilityError(f"exhaustive census is supported for n <= 7, got n={n}")
    total = 1 << n
    dimension = _plain_int(dimension)
    if dimension is None or not 1 <= dimension <= total:
        raise ValueError(f"dimension must be an int in 1..{total}")
    order, up = _extension(n)
    full = (1 << total) - 1
    # Depth-first over the linear extension, including each position before
    # excluding it.  Excluding a mask blocks its up-set, and every position
    # before i is included or blocked, so the unblocked masks left are the
    # includable suffix.  It completes to a down-set of every size up to its
    # count, so the bound below is exact.
    # n and dimension are checked above, and every yielded set is a nonzero
    # subset of the 2**n masks, so the codes skip from_members' checks.
    code = MonomialCode._unchecked
    stack = [(0, 0, 0, 0)]
    while stack:
        i, included, blocked, count = stack.pop()
        if count == dimension:
            yield code(n, included)
            continue
        free = full ^ (included | blocked)
        room = count + free.bit_count()
        if room == dimension:
            yield code(n, included | free)
        if room <= dimension:
            continue
        while blocked >> order[i] & 1:
            i += 1
        m = order[i]
        stack.append((i + 1, included, blocked | up[m], count))
        stack.append((i + 1, included | 1 << m, blocked, count + 1))
