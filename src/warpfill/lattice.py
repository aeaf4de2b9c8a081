"""Exact lattice toolkit: LLL reduction, shortest and closest vectors, and
the integer primitivity check of a sublattice.

A lattice is spanned by the rows of a real basis matrix.  Shortest and
closest vectors come from one enumeration: the basis is LLL-reduced
(Lenstra, Lenstra and Lovasz 1982), a first candidate gives the starting
radius (the shortest reduced row, or Babai's nearest-plane rounding of the
target), and Schnorr-Euchner enumeration (1994) of the coefficients, last
one first and each in zig-zag order about its centre, shrinks the radius to
every better vector found.  The result is the exact minimum up to floating
rounding.  Elementary divisors are computed in Python integers.

Only numpy and the standard library are used; this module stays
independent of warp_engine so that model_spaces can use it as an oracle.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "lll_reduce",
    "shortest_vector",
    "closest_vector",
    "elementary_divisors",
]

LLL_DELTA = 0.99


def _gso(b: np.ndarray) -> np.ndarray:
    """Upper-triangular R with b.T = Q R: column k holds row b_k in the
    Gram-Schmidt frame, so |R_kk| = |b*_k| and mu_kj = R_jk / R_jj."""
    return np.linalg.qr(b.T, mode="r")


def lll_reduce(basis) -> np.ndarray:
    """LLL-reduced basis (delta = 0.99) of the lattice spanned by the rows
    of ``basis``, which must be linearly independent and finite."""
    b = np.array(basis, dtype=float)
    r = _gso(b)
    k = 1
    while k < len(b):
        # size reduction of b_k against b_{k-1}, ..., b_0; R's column k is
        # linear in b_k, so it is updated alongside
        for j in range(k - 1, -1, -1):
            q = round(r[j, k] / r[j, j])
            if q:
                b[k] -= q * b[j]
                r[:, k] -= q * r[:, j]
        mu = r[k - 1, k] / r[k - 1, k - 1]
        if r[k, k] ** 2 >= (LLL_DELTA - mu**2) * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            b[[k - 1, k]] = b[[k, k - 1]]
            r = _gso(b)
            k = max(k - 1, 1)
    return b


def _enumerate(reduced: np.ndarray, target: np.ndarray, nonzero: bool) -> np.ndarray:
    """Lattice vector of ``reduced``'s lattice nearest ``target``; with
    ``nonzero`` the zero vector is excluded.

    With reduced.T = Q R, |x @ reduced - target|^2 = sum_i R_ii^2 (x_i - c_i)^2
    plus a constant, where c_i = (y_i - sum_{j>i} R_ij x_j) / R_ii and
    y = Q^T target.  Coefficients are fixed from the last one down.
    """
    q, r = np.linalg.qr(reduced.T)
    y = (q.T @ target).tolist()
    n = len(y)
    diag = np.diag(r).tolist()
    r = r.tolist()
    x = [0] * n

    if nonzero:
        lengths = np.einsum("ij,ij->i", reduced, reduced)
        first = int(np.argmin(lengths))
        best_x = [int(i == first) for i in range(n)]
        best = float(lengths[first])
    else:
        # Babai nearest plane: round each coefficient in turn
        best = 0.0
        for i in range(n - 1, -1, -1):
            c = (y[i] - sum(r[i][j] * x[j] for j in range(i + 1, n))) / diag[i]
            x[i] = round(c)
            best += (diag[i] * (x[i] - c)) ** 2
        best_x = x[:]
        x = [0] * n

    def descend(i, used):
        nonlocal best, best_x
        c = (y[i] - sum(r[i][j] * x[j] for j in range(i + 1, n))) / diag[i]
        q2 = diag[i] ** 2
        x0 = round(c)
        step = 1 if c >= x0 else -1
        k = 0
        while True:
            # x0, x0 + step, x0 - step, x0 + 2 step, ...: nondecreasing |xi - c|
            xi = x0 + (step * ((k + 1) // 2) if k % 2 else -step * (k // 2))
            cost = used + q2 * (xi - c) ** 2
            if cost >= best:
                break
            x[i] = xi
            if i:
                descend(i - 1, cost)
            elif not nonzero or any(x):
                best, best_x = cost, x[:]
            k += 1
        x[i] = 0

    descend(n - 1, 0.0)
    return np.asarray(best_x, dtype=float) @ reduced


def shortest_vector(basis) -> np.ndarray:
    """A shortest nonzero vector of the lattice spanned by the rows of ``basis``."""
    reduced = lll_reduce(basis)
    return _enumerate(reduced, np.zeros(reduced.shape[1]), nonzero=True)


def closest_vector(basis, target) -> np.ndarray:
    """A vector of the lattice spanned by the rows of ``basis`` nearest ``target``."""
    reduced = lll_reduce(basis)
    return _enumerate(reduced, np.asarray(target, dtype=float), nonzero=False)


def elementary_divisors(rows) -> list:
    """Nonzero elementary divisors d_1 | d_2 | ... of an integer matrix (the
    Smith normal form's diagonal), in Python integers.

    Their count is the rank, and their product is the gcd of the
    rank-sized minors, so a full-rank d x n matrix spans a primitive
    sublattice of Z^n exactly when every divisor is 1.
    """
    a = [[int(v) for v in row] for row in rows]
    divisors = []
    while a and any(any(row) for row in a):
        # move a nonzero entry of least size to (0, 0)
        _, i, j = min((abs(v), i, j) for i, row in enumerate(a) for j, v in enumerate(row) if v)
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        p = a[0][0]
        # clear column 0 and row 0 by division; a nonzero remainder is
        # smaller than p, so the loop restarts with a smaller pivot
        for row in a[1:]:
            f = row[0] // p
            for col in range(len(row)):
                row[col] -= f * a[0][col]
        for col in range(1, len(a[0])):
            f = a[0][col] // p
            for row in a:
                row[col] -= f * row[0]
        if any(row[0] for row in a[1:]) or any(a[0][1:]):
            continue
        # p must divide every remaining entry; otherwise add the offending
        # row to row 0 and reduce again
        bad = next((row for row in a[1:] if any(v % p for v in row[1:])), None)
        if bad is not None:
            a[0] = [u + v for u, v in zip(a[0], bad)]
            continue
        divisors.append(abs(p))
        a = [row[1:] for row in a[1:]]
    return divisors
