"""The block-sort, move-to-front and Huffman table builders the codecs
replaced, kept as test oracles.

The forward transform re-sorts every rotation on every doubling pass and
closes with a ``lexsort``; the inverse walks the last-first chain one byte
per Python iteration; both MTF directions look bytes up through NumPy
item access.  The Huffman builders merge Python lists on a ``heapq``,
assign canonical codes one symbol at a time and fill the decode table one
code span at a time.  Tests require the codec's stages to give exactly
these bytes, lengths, codes and tables.  Not collected by pytest (no ``test_`` prefix); import it as
``codec_reference`` (``tests/`` is on ``sys.path`` through conftest.py).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.compress.base import CodecError


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
    # Seed the doubling at k = 4: rank every rotation by its first four
    # bytes at once (big-endian packing makes numeric order lexicographic
    # order), skipping the two slowest refinement passes outright.
    ext = np.resize(s, n + 3).astype(np.uint32)  # cyclic wrap, any n >= 2
    win = (
        (ext[:n] << 24) | (ext[1 : n + 1] << 16)
        | (ext[2 : n + 2] << 8) | ext[3 : n + 3]
    )
    order = np.argsort(win)
    w_sorted = win[order]
    changed = np.empty(n, dtype=np.int64)
    changed[0] = 0
    np.not_equal(w_sorted[1:], w_sorted[:-1], out=changed[1:])
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.cumsum(changed)
    k = 4
    # rank < n always, so (rank, rank-k-ahead) packs into one int64 key
    # and each refinement pass is a single sort, not a two-key lexsort.
    shift = np.int64(n.bit_length())
    while k < n and rank[order[-1]] != n - 1:
        key2 = np.concatenate([rank[k:], rank[:k]])
        combined = (rank << shift) | key2
        order = np.argsort(combined)
        c_sorted = combined[order]
        changed[0] = 0
        np.not_equal(c_sorted[1:], c_sorted[:-1], out=changed[1:])
        rank[order] = np.cumsum(changed)
        k <<= 1

    # Periodic strings leave identical rotations tied; break ties by the
    # rotation's start index (stable, matching a stable full sort).
    sa = np.lexsort((np.arange(n), rank))
    last = s[(sa - 1) % n]
    primary = int(np.flatnonzero(sa == 0)[0])
    return last.tobytes(), primary


def bwt_inverse(last_column: bytes, primary: int) -> bytes:
    """Invert :func:`bwt_forward`."""
    n = len(last_column)
    if n == 0:
        return b""
    if not 0 <= primary < n:
        raise CodecError("bwt: primary index out of range")
    last = np.frombuffer(last_column, dtype=np.uint8)
    # LF mapping: row i of the last column corresponds to the occurrence of
    # byte last[i]; its position in the (sorted) first column is
    # starts[last[i]] + (occurrence index among equal bytes).
    counts = np.bincount(last, minlength=256).astype(np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    # occurrence index: stable ranking of each element among equals.
    order = np.argsort(last, kind="stable")
    occ = np.empty(n, dtype=np.int64)
    occ[order] = np.arange(n) - starts[last[order]]
    lf = starts[last] + occ

    # Walk the cycle. Python-level loop over plain lists: the chain is a
    # strictly sequential dependency, so this cannot be vectorized; lists
    # keep per-step cost to two C-level index operations.
    lf_list = lf.tolist()
    last_list = last.tolist()
    out = bytearray(n)
    p = primary
    for i in range(n - 1, -1, -1):
        out[i] = last_list[p]
        p = lf_list[p]
    return bytes(out)


def mtf_forward(data: bytes) -> bytes:
    """Replace each byte with its index in a move-to-front alphabet list."""
    n = len(data)
    if n == 0:
        return b""
    arr = np.frombuffer(data, dtype=np.uint8)
    # run starts: only these produce a nonzero index; the rest are zeros
    starts = np.concatenate(
        ([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1)
    )
    out = np.zeros(n, dtype=np.uint8)
    alphabet = bytearray(range(256))
    index = alphabet.index
    insert = alphabet.insert
    indices = np.empty(starts.size, dtype=np.uint8)
    for i, b in enumerate(arr[starts].tolist()):
        j = index(b)
        indices[i] = j
        if j:
            del alphabet[j]
            insert(0, b)
    out[starts] = indices
    return out.tobytes()


def mtf_inverse(data: bytes) -> bytes:
    """Invert :func:`mtf_forward`."""
    n = len(data)
    if n == 0:
        return b""
    arr = np.frombuffer(data, dtype=np.uint8)
    # zero indices repeat the current front byte; only nonzero indices
    # move the alphabet, so loop over those alone
    nz = np.flatnonzero(arr)
    alphabet = bytearray(range(256))
    insert = alphabet.insert
    vals = np.empty(nz.size, dtype=np.uint8)
    for i, j in enumerate(arr[nz].tolist()):
        if j >= len(alphabet):  # pragma: no cover - alphabet is always 256
            raise CodecError("mtf: index out of alphabet range")
        b = alphabet[j]
        vals[i] = b
        del alphabet[j]
        insert(0, b)
    # segment fill: [0, nz[0]) is the initial front byte 0; [nz[i], nz[i+1])
    # is vals[i]
    seg_starts = np.concatenate(([0], nz))
    seg_vals = np.concatenate(([0], vals))
    seg_lens = np.diff(np.concatenate((seg_starts, [n])))
    return np.repeat(seg_vals, seg_lens).astype(np.uint8).tobytes()


def huffman_lengths(freqs: np.ndarray) -> np.ndarray:
    """Code length per symbol for the given frequency table (0 = unused)."""
    nz = np.flatnonzero(freqs)
    lengths = np.zeros(freqs.size, dtype=np.uint8)
    if nz.size == 0:
        return lengths
    if nz.size == 1:
        lengths[nz[0]] = 1
        return lengths
    # Heap of (weight, tiebreak, leaf-symbols). Merging whole leaf lists is
    # fine at our alphabet sizes (<= ~64K symbols, typically <= 300).
    heap: list[tuple[int, int, list[int]]] = [
        (int(freqs[s]), int(s), [int(s)]) for s in nz
    ]
    heapq.heapify(heap)
    tie = int(freqs.size)
    while len(heap) > 1:
        w1, _, l1 = heapq.heappop(heap)
        w2, _, l2 = heapq.heappop(heap)
        for s in l1:
            lengths[s] += 1
        for s in l2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, tie, l1 + l2))
        tie += 1
    return lengths


def build_lengths(freqs: np.ndarray, max_bits: int = 16) -> np.ndarray:
    """``build_code``'s length-limiting retry over :func:`huffman_lengths`."""
    freqs = np.asarray(freqs, dtype=np.int64).copy()
    while True:
        lengths = huffman_lengths(freqs)
        if lengths.max(initial=0) <= max_bits:
            return lengths
        nz = freqs > 0
        freqs[nz] = (freqs[nz] + 1) >> 1


def canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes (shorter first, then symbol order)."""
    lengths = np.asarray(lengths, dtype=np.uint8)
    codes = np.zeros(lengths.size, dtype=np.uint32)
    code = 0
    prev_len = 0
    order = np.lexsort((np.arange(lengths.size), lengths))
    for s in order:
        ln = int(lengths[s])
        if ln == 0:
            continue
        code <<= ln - prev_len
        codes[s] = code
        code += 1
        prev_len = ln
    if prev_len and code > (1 << prev_len):
        raise CodecError("huffman: over-subscribed code lengths")
    return codes


def packed_decode_table(
    lengths: np.ndarray, codes: np.ndarray
) -> tuple[np.ndarray, int]:
    """``(symbol << 5 | length)`` per peeked window, plus the width."""
    width = max(int(lengths.max(initial=0)), 1)
    lut_sym = np.zeros(1 << width, dtype=np.uint32)
    lut_len = np.zeros(1 << width, dtype=np.uint32)
    for s in np.flatnonzero(lengths):
        ln = int(lengths[s])
        base = int(codes[s]) << (width - ln)
        span = 1 << (width - ln)
        lut_sym[base : base + span] = s
        lut_len[base : base + span] = ln
    return (lut_sym << np.uint32(5)) | lut_len, width
