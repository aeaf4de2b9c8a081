import itertools
import math
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import warpfill
from warpfill.lattice import closest_vector, elementary_divisors, lll_reduce, shortest_vector


def _int_det(m):
    """Determinant of a small integer matrix by cofactor expansion, in ints."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _int_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def _minor_gcd(rows, k):
    """gcd of the k x k minors of an integer matrix."""
    minors = (
        _int_det([[rows[i][j] for j in cols] for i in sel])
        for sel in itertools.combinations(range(len(rows)), k)
        for cols in itertools.combinations(range(len(rows[0])), k)
    )
    return reduce(math.gcd, minors, 0)


class TestLLL:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_same_lattice_and_reduced(self, seed, n):
        rng = np.random.default_rng(seed)
        basis = rng.uniform(-5.0, 5.0, (n, n)) + np.diag(rng.uniform(0.5, 2.0, n))
        red = lll_reduce(basis)
        # the change of basis is an integer matrix of determinant +-1
        change = red @ np.linalg.inv(basis)
        assert np.allclose(change, np.round(change), atol=1e-8)
        assert abs(np.linalg.det(np.round(change))) == pytest.approx(1.0)
        # size-reduced, and the Lovasz condition with delta = 0.99
        r = np.linalg.qr(red.T, mode="r")
        diag = np.diag(r)
        mu = r / diag[:, None]
        assert np.all(np.abs(np.triu(mu, 1)) <= 0.5 + 1e-9)
        for k in range(1, n):
            assert diag[k] ** 2 >= (0.99 - mu[k - 1, k] ** 2) * diag[k - 1] ** 2 - 1e-9

    def test_skewed_rows_become_short(self):
        red = lll_reduce([[1.0, 0.0], [30.0, 0.3]])
        assert sorted(np.linalg.norm(red, axis=1)) == pytest.approx([0.3, 1.0])


class TestEnumeration:
    def test_shortest_is_a_nonzero_lattice_vector(self):
        basis = np.array([[10.0, 0.0], [5.0, 0.5]])
        v = shortest_vector(basis)
        assert np.abs(v).tolist() == [0.0, 1.0]

    def test_closest_is_a_lattice_vector(self):
        basis = np.array([[1.0, 0.0], [12.5, 0.11]])
        v = closest_vector(basis, [0.4, 0.05])
        c = np.linalg.solve(basis.T, v)
        assert np.allclose(c, np.round(c))
        # 12.5 e1 + 0.11 e2 - 12 e1 = (0.5, 0.11) beats every point with m = 0
        assert np.linalg.norm(v - [0.4, 0.05]) == pytest.approx(np.hypot(0.1, 0.06), rel=1e-9)

    def test_closest_to_a_lattice_point_is_itself(self):
        basis = np.array([[2.0, 0.3], [0.0, 1.5]])
        target = np.array([3, -2]) @ basis
        assert np.array_equal(closest_vector(basis, target), target)


class TestElementaryDivisors:
    @pytest.mark.parametrize("rows,expected", [
        ([[2, 0]], [2]),
        ([[1, 0, 0], [2, 0, 0]], [1]),
        ([[1, 2, 0], [0, 1, 1]], [1, 1]),
        ([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], [2, 6, 12]),
        ([[0, 0], [0, 0]], []),
    ])
    def test_known(self, rows, expected):
        assert elementary_divisors(rows) == expected

    @given(rows=st.integers(1, 3).flatmap(lambda d: st.integers(d, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                           min_size=d, max_size=d))))
    @settings(max_examples=100, deadline=None)
    def test_rank_and_minor_gcds(self, rows):
        divisors = elementary_divisors(rows)
        assert len(divisors) == np.linalg.matrix_rank(np.array(rows, dtype=float))
        assert all(type(e) is int and e > 0 for e in divisors)
        assert all(b % a == 0 for a, b in zip(divisors, divisors[1:]))
        # d_1 ... d_k is the gcd of the k x k minors
        for k in range(1, len(divisors) + 1):
            assert math.prod(divisors[:k]) == _minor_gcd(rows, k)

    def test_big_entries_stay_exact(self):
        big = 2**70
        assert elementary_divisors([[big, 0], [0, big + 1]]) == [1, big * (big + 1)]


def _loaded_after_import(module):
    """Whether ``import warpfill, warpfill.cli`` in a fresh interpreter
    loads ``module``."""
    env = dict(os.environ)
    src = str(Path(warpfill.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys, warpfill, warpfill.cli; print({module!r} in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_does_not_load_sympy():
    assert not _loaded_after_import("sympy")


def test_import_does_not_load_scipy_interpolate():
    assert not _loaded_after_import("scipy.interpolate")
