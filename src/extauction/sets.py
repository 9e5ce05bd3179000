"""Bitmask helpers for winner sets.

A winner set over agents ``0..n-1`` is canonically an int bitmask: bit ``i``
set means agent ``i`` is in the set.  Python ints are arbitrary precision, so
masks work for any ``n``; they are hashable, cheap to compare, and make
subset enumeration fast.
"""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(agents: Iterable[int]) -> int:
    """Build a mask from agent ids."""
    m = 0
    for i in agents:
        m |= 1 << i
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


#: masks below this share one precomputed member tuple each
MEMBER_TABLE_SIZE = 1 << 12


def _member_table(size: int) -> tuple[tuple[int, ...], ...]:
    """``table[m]`` is the ascending member tuple of ``m``, for ``m < size`` (a power of 2)."""
    table = [()]
    while len(table) < size:
        bit = len(table).bit_length() - 1  # the table doubles: masks with ``bit`` set come next
        table += [m + (bit,) for m in table]
    return tuple(table)


_MEMBERS = _member_table(MEMBER_TABLE_SIZE)


def _scan(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def members(mask: int) -> tuple[int, ...]:
    """Agent ids in the mask, ascending; a negative mask is a ``ValueError``."""
    if 0 <= mask < MEMBER_TABLE_SIZE:
        return _MEMBERS[mask]
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    return tuple(_scan(mask))


def iter_members(mask: int) -> Iterator[int]:
    """Agent ids in the mask, ascending: a shared tuple's iterator below
    ``MEMBER_TABLE_SIZE``, a bit scan (no tuple built) above; a negative
    mask is a ``ValueError``."""
    if 0 <= mask < MEMBER_TABLE_SIZE:
        return iter(_MEMBERS[mask])
    if mask < 0:
        raise ValueError(f"negative mask {mask}")
    return _scan(mask)


def ternary_codes(n: int) -> list[int]:
    """``codes[m] = sum(3**i for i in m)`` for every mask ``m`` of ``n`` agents.

    A disjoint pair ``(x, y)`` then has the base-3 code ``codes[x] + 2 * codes[y]``
    (digit 1 for ``x``, 2 for ``y``), one of ``0 .. 3^n - 1``.
    """
    codes = [0]
    for i in range(n):
        step = 3 ** i
        codes += [c + step for c in codes]
    return codes


def contains(mask: int, i: int) -> bool:
    return (mask >> i) & 1 == 1
