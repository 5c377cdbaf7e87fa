"""Row canonicalization over Z_{p^k}.

Over a prime field this is plain reduced row echelon form.  Over Z_4, Z_8,
Z_9 the right canonical object is the Howell form: row span is preserved,
equal spans give identical forms, and every span element reduces to zero.
Pivot entries are p^v; rows whose pivot is not a unit get an annihilator
completion row so the span enumerates uniquely over boxed coefficient ranges.
"""

from __future__ import annotations

import numpy as np


def gcdex(a: int, b: int):
    """(g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def prime_power(q: int):
    """(p, k) with q = p^k; raises on non prime powers."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    p = next(d for d in range(2, q + 1) if q % d == 0)
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, k


def _val(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def howell(mat, q: int):
    """Canonical Howell form of integer row span mod q.

    Returns (H, pivots): H a (r, m) int64 array with strictly increasing
    pivot columns, pivots a list of (col, v) where the pivot value is p^v.
    Entries above each pivot are reduced mod p^v; columns of unit pivots
    are zero everywhere else.
    """
    p, k = prime_power(q)
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % q
    m = mat.shape[1]
    work = [mat[i].copy() for i in range(mat.shape[0]) if mat[i].any()]
    H = []
    pivots = []
    for c in range(m):
        nz, keep = [], []
        for r in work:
            (nz if r[c] else keep).append(r)
        work = keep
        if not nz:
            continue
        nz.sort(key=lambda r: _val(int(r[c]), p))
        piv = nz[0]
        lower = nz[1:]
        a = int(piv[c])
        if lower:
            if a % p != 0:
                inv = pow(a, -1, q)
                L = np.stack(lower)
                L = (L - np.outer(L[:, c] * inv % q, piv)) % q
                for r in L:
                    if r.any():
                        work.append(r)
            else:
                for r in lower:
                    b = int(r[c])
                    g, x, y = gcdex(a, b)
                    newpiv = (x * piv + y * r) % q
                    newr = ((a // g) * r - (b // g) * piv) % q
                    piv = newpiv
                    a = int(piv[c])
                    if newr.any():
                        work.append(newr)
        v = _val(a, p)
        u = a // (p**v)
        piv = piv * pow(int(u), -1, q) % q
        if v > 0:
            ann = (p ** (k - v)) * piv % q
            if ann.any():
                work.append(ann)
        H.append(piv)
        pivots.append((c, v))
    # clear entries above each pivot (mod the pivot value)
    for i in range(len(H)):
        c, v = pivots[i]
        pv = p**v
        for j in range(i):
            t = int(H[j][c]) // pv
            if t:
                H[j] = (H[j] - t * H[i]) % q
    Hm = np.array(H, dtype=np.int64).reshape(len(H), m)
    return Hm, pivots


def reduce_vectors(V, H, pivots, q: int, p: int):
    """Canonical coset representatives of the rows of V modulo span(H)."""
    V = np.atleast_2d(np.asarray(V, dtype=np.int64)) % q
    out = V.copy()
    for i, (c, v) in enumerate(pivots):
        t = out[:, c] // (p**v)
        if t.any():
            np.subtract(out, t[:, None] * H[i][None, :], out=out)
            out %= q
    return out


def span_size(pivots, ncols: int, q: int, p: int) -> int:
    """Cardinality of Z_q^ncols / span, from the Howell pivot data."""
    size = 1
    npiv = 0
    for _, v in pivots:
        size *= p**v
        npiv += 1
    return size * q ** (ncols - npiv)
