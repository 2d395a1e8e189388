"""Burrows–Wheeler transform: tie-only prefix doubling and a leaping inverse.

The paper's BZIP codec "compresses data using the Burrows-Wheeler
block-sorting compression algorithm and Huffman coding" [2].  This module
provides the block sorter.  Neither direction walks the block one byte at
a time in Python.

**Forward.**  The cyclic rotations are sorted by prefix doubling.  A
rotation's rank is the slot, in the sorted order, of the first rotation
of its group (the rotations that agree on their first ``k`` bytes).
Splitting a group never moves another group's head, so a rotation that is
alone in its group is final and keeps its slot and rank; each pass
re-sorts only the rotations that are still tied, by one packed int64 key
``(rank, rank k ahead)``, and writes them back into the slots they
already occupy.  The doubling is seeded with each rotation's first eight
bytes packed big-endian into a uint64, so ``k`` starts at 8.  On the
RLE1 output of a dense 512² frame (409 k rotations) the passes re-sort
141 k, 67 k, 20 k, 4 k and then a few thousand rotations.  Only a
periodic block still has ties at ``k >= n``: those rotations are
identical, and their start index breaks the tie, as a stable sort of all
rotations would.

**Inverse.**  Read backwards, the block is ``last[LF^t(primary)]`` for
``t = 0 .. n-1``, one strictly sequential chain through the last-first
mapping ``LF``.  The inverse builds ``LF^K`` (``K = 64``) with ``log2 K``
squarings, walks the ``n / K`` leaps from ``primary`` in Python, and
fills the ``K`` bytes of every leap with ``K`` vectorized takes, each
over all leaps at once: ``O(n log K)`` work.  It follows the same chain
as a byte-by-byte walk, so any last column (a BWT output or not, ``LF``
with one cycle or several) gives the same bytes.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.compress.base import CodecError

__all__ = ["bwt_forward", "bwt_inverse"]

_SEED = 8  # bytes per seed window: one uint64 sort key
_LEAP = 64  # LF steps per leap of the inverse walk, a power of two


def bwt_forward(data: bytes) -> tuple[bytes, int]:
    """Return ``(last_column, primary_index)`` of the sorted rotations.

    ``primary_index`` is the row at which the original string appears in
    the sorted rotation matrix; the inverse needs it to anchor the walk.
    """
    n = len(data)
    if n == 0:
        return b"", 0
    if n == 1:
        return data, 0

    s = np.frombuffer(data, dtype=np.uint8)
    # Seed at k = 8: every rotation's first eight bytes (cyclic wrap, any
    # n >= 2), columns reversed so a little-endian uint64 read of the row
    # is the big-endian packing, whose numeric order is lexicographic.
    windows = np.empty((n, _SEED), dtype=np.uint8)
    windows[:, ::-1] = sliding_window_view(np.resize(s, n + _SEED - 1), _SEED)
    win = windows.view("<u8").ravel()
    order = np.argsort(win)
    rank = np.empty(n, dtype=np.int64)
    tied, heads = _regroup(win[order], np.arange(n), order, rank)
    # rank < n always, so (rank, rank-k-ahead) packs into one int64 key
    shift = n.bit_length()
    k = _SEED
    while tied.size and k < n:
        members = order[tied]
        key = rank.take(members + k, mode="wrap")
        key |= heads << shift
        by = np.argsort(key)
        members = members[by]
        order[tied] = members
        tied, heads = _regroup(key[by], tied, members, rank)
        k <<= 1
    if tied.size:
        # identical rotations of a periodic block: by start index
        members = order[tied]
        order[tied] = members[np.argsort((heads << shift) | members)]
    last = s.take(order - 1)  # order 0 reads s[-1], the cyclic wrap
    primary = int(np.flatnonzero(order == 0)[0])
    return last.tobytes(), primary


def _regroup(
    keys: np.ndarray, slots: np.ndarray, members: np.ndarray, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rank ``members``, sorted by ``keys`` into ``slots``, by their head.

    A member's head is the slot of the first member with its key.  Returns
    the slots and heads of the members whose key is shared: the tied set
    the next pass re-sorts.
    """
    m = keys.size
    first = np.empty(m, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=m)
    heads = np.repeat(slots[starts], sizes)
    rank[members] = heads
    shared = np.repeat(sizes > 1, sizes)
    return slots[shared], heads[shared]


def bwt_inverse(last_column: bytes, primary: int) -> bytes:
    """Invert :func:`bwt_forward`."""
    n = len(last_column)
    if n == 0:
        return b""
    if not 0 <= primary < n:
        raise CodecError("bwt: primary index out of range")
    last = np.frombuffer(last_column, dtype=np.uint8)
    # LF mapping: row i's byte sits in the sorted first column at row i's
    # place in a stable sort of the last column.
    lf = np.empty(n, dtype=np.intp)
    lf[np.argsort(last, kind="stable")] = np.arange(n)

    # leaps[j] = LF^(j*K)(primary)
    lf_k = lf
    for _ in range(_LEAP.bit_length() - 1):
        lf_k = lf_k.take(lf_k)
    step = lf_k.item
    rows = -(-n // _LEAP)
    leaps = [primary]
    for _ in range(rows - 1):
        leaps.append(step(leaps[-1]))
    # walk[r, j] = last[LF^(j*K + r)(primary)]: step j*K + r of the chain
    walk = np.empty((_LEAP, rows), dtype=np.uint8)
    at = np.array(leaps, dtype=np.intp)
    for r in range(_LEAP):
        last.take(at, out=walk[r])
        at = lf.take(at)
    # the chain visits the block from its last byte to its first
    return walk.T.reshape(-1)[n - 1 :: -1].tobytes()
