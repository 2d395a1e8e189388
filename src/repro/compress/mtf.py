"""Move-to-front coding, the middle stage of the BZIP pipeline.

After the Burrows–Wheeler sort, equal context bytes cluster, so MTF turns
the block into a stream dominated by small values (mostly zeros), which the
zero-run + Huffman back end then squeezes.  The recurrence is inherently
sequential *per distinct value*, but not per byte: inside a run of equal
bytes every byte after the first maps to index 0 (forward) and every zero
index repeats the current front byte (inverse).  Both directions therefore
iterate only over run boundaries — on the BWT output of a dense 512² frame,
230 k of 409 k bytes — and fill the runs with NumPy batch operations.  The
loop touches no NumPy item: it iterates a ``bytes`` object, keeps the
alphabet as a ``bytearray`` (C-speed ``index``/``pop``/``insert``) and
collects its output in a ``bytearray``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mtf_forward", "mtf_inverse"]


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
    alphabet = bytearray(range(256))
    index = alphabet.index
    insert = alphabet.insert
    indices = bytearray()
    append = indices.append
    for b in arr[starts].tobytes():
        j = index(b)
        append(j)
        if j:
            del alphabet[j]
            insert(0, b)
    out = np.zeros(n, dtype=np.uint8)
    out[starts] = np.frombuffer(indices, dtype=np.uint8)
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
    pop = alphabet.pop
    insert = alphabet.insert
    vals = bytearray(1)  # the front byte before the first move: 0
    append = vals.append
    for j in arr[nz].tobytes():
        b = pop(j)
        insert(0, b)
        append(b)
    # segment fill: [0, nz[0]) is vals[0]; [nz[i], nz[i+1]) is vals[i + 1]
    lengths = np.diff(nz, prepend=0, append=n)
    return np.repeat(np.frombuffer(vals, dtype=np.uint8), lengths).tobytes()
