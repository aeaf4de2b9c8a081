import itertools
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpfill.errors import (
    EmptyJoinError,
    RankDeficientError,
    ScheduleEmptyError,
    TopMismatchError,
    ValidationError,
)
from warpfill.filling_topology import (
    INFINITE,
    CohomologyProfile,
    CuspSpec,
    FillingSpec,
    axis_filling,
    boundary_cohomology,
    classify,
    connect_sum_cohomology,
    filling_from_json_dict,
    filling_to_json_dict,
    group_cohomology,
    join_cohomology,
    shell_sequence,
    two_pi_check,
)
from warpfill.model_spaces import LatticeTorus


# ---------------------------------------------------------------------------
# a brute-force simplicial oracle for the join formula
# ---------------------------------------------------------------------------
#
# Reduced rational Betti numbers of an explicit simplicial join
# S^(l-1) * T^k, computed from raw (augmented) boundary matrices.  The
# triangulations are standard: boundary of the l-simplex, the 3-vertex
# circle, the 7-vertex Moebius torus, and the Kuhn/Freudenthal
# triangulation of the 3x3x3 periodic grid for T^3.

def _closure(top_simplices):
    out = set()
    for s in top_simplices:
        s = tuple(sorted(s))
        for m in range(1, len(s) + 1):
            out.update(itertools.combinations(s, m))
    return out


def _sphere_complex(l):
    # S^(l-1) as the boundary of the l-simplex; l = 0 is the empty complex
    if l == 0:
        return set()
    verts = tuple(range(l + 1))
    return _closure(itertools.combinations(verts, l))


def _torus_complex(k):
    if k == 0:
        return set()
    if k == 1:
        return _closure([(0, 1), (1, 2), (0, 2)])
    if k == 2:
        tris = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
        tris += [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
        return _closure(tris)
    if k == 3:
        # Kuhn triangulation of the unit cube, tiled over (Z/3)^3
        vid = lambda p: p[0] + 3 * p[1] + 9 * p[2]  # noqa: E731
        tets = []
        for base in itertools.product(range(3), repeat=3):
            for perm in itertools.permutations(range(3)):
                chain = [np.array(base)]
                for axis in perm:
                    step = chain[-1].copy()
                    step[axis] += 1
                    chain.append(step)
                tets.append(tuple(vid(tuple(p % 3)) for p in chain))
        return _closure(tets)
    raise NotImplementedError(k)


def _join_complex(cx, cy):
    cx = [tuple(("x", v) for v in s) for s in cx]
    cy = [tuple(("y", v) for v in s) for s in cy]
    out = set(cx) | set(cy)
    for sx in cx:
        for sy in cy:
            out.add(tuple(sorted(sx + sy)))
    return out


def _reduced_betti(cx):
    simplices = sorted(cx, key=lambda s: (len(s), s))
    by_dim = {}
    for s in simplices:
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim) if by_dim else -1
    index = {q: {s: i for i, s in enumerate(by_dim[q])} for q in by_dim}

    def boundary(q):
        # rows: (q-1)-simplices (augmentation row for q = 0)
        if q == 0:
            return np.ones((1, len(by_dim[0])))
        mat = np.zeros((len(by_dim[q - 1]), len(by_dim[q])))
        for j, s in enumerate(by_dim[q]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                mat[index[q - 1][face], j] = (-1) ** i
        return mat

    ranks = {q: np.linalg.matrix_rank(boundary(q)) for q in range(top + 1)}
    betti = {}
    for q in range(top + 1):
        b = len(by_dim[q]) - ranks[q] - ranks.get(q + 1, 0)
        if b:
            betti[q] = b
    return betti


class TestJoinOracle:
    def test_oracle_on_known_spaces(self):
        assert _reduced_betti(_sphere_complex(3)) == {2: 1}
        assert _reduced_betti(_torus_complex(2)) == {1: 2, 2: 1}
        assert _reduced_betti(_torus_complex(3)) == {1: 3, 2: 3, 3: 1}

    @pytest.mark.parametrize(
        "l,k",
        [(l, k) for l in range(5) for k in range(4) if 0 < l + k <= 5],
    )
    def test_join_formula_matches_simplicial_computation(self, l, k):
        if l == 0 and k == 0:
            return
        cx = _join_complex(_sphere_complex(l), _torus_complex(k))
        assert _reduced_betti(cx) == join_cohomology(l, k).ranks

    def test_empty_join_rejected(self):
        with pytest.raises(EmptyJoinError):
            join_cohomology(0, 0)

    @given(l=st.integers(0, 12), k=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_join_euler_characteristic(self, l, k):
        if l == 0 and k == 0:
            return
        prof = join_cohomology(l, k)
        chi = sum((-1) ** q * prof.rank(q) for q in prof.degrees)
        assert chi == (-1) ** (l - 1)

    def test_degree_window(self):
        prof = join_cohomology(3, 4)
        assert prof.degrees == [4, 5, 6, 7]
        assert [prof.rank(q) for q in prof.degrees] == [4, 6, 4, 1]

    def test_pure_sphere(self):
        assert join_cohomology(4, 0).ranks == {3: 1}


# ---------------------------------------------------------------------------
# the 2 pi condition
# ---------------------------------------------------------------------------

class TestTwoPiCheck:
    def test_square_seven_passes(self):
        cusp = axis_filling(2, [1]).cusps[0]
        sy, ok = two_pi_check(cusp)
        assert sy == pytest.approx(7.0)
        assert ok

    def test_square_six_fails(self):
        cusp = axis_filling(2, [1], side=6.0).cusps[0]
        sy, ok = two_pi_check(cusp)
        assert sy == pytest.approx(6.0)
        assert not ok

    def test_diagonal_filling_uses_induced_length(self):
        lat = LatticeTorus(np.eye(2) * 5.0)
        cusp = CuspSpec(lat, np.array([[1, 1]]))
        sy, ok = two_pi_check(cusp)
        assert sy == pytest.approx(5.0 * np.sqrt(2))
        assert ok

    def test_primitivity_rejected(self):
        lat = LatticeTorus(np.eye(2) * 7.0)
        with pytest.raises(ValidationError):
            CuspSpec(lat, np.array([[2, 0]]))

    def test_non_primitive_message_lists_divisors(self):
        lat = LatticeTorus(np.eye(3) * 7.0)
        with pytest.raises(ValidationError, match=r"elementary divisors \[1, 6\]"):
            CuspSpec(lat, np.array([[2, 0, 0], [0, 3, 0]]))

    def test_rank_deficient_rejected(self):
        lat = LatticeTorus(np.eye(3) * 7.0)
        with pytest.raises(RankDeficientError):
            CuspSpec(lat, np.array([[1, 0, 0], [2, 0, 0]]))

    @pytest.mark.parametrize("coeffs", [[[1.5, 0.0]], [[1, 0.5]], [[np.nan, 0]], [["1", "0"]],
                                        [[True, False]]])
    def test_non_integer_coefficients_rejected(self, coeffs):
        lat = LatticeTorus(np.eye(2) * 7.0)
        with pytest.raises(ValidationError):
            CuspSpec(lat, coeffs)

    @pytest.mark.parametrize("coeffs", [[[2**70, 1]], [[2**63, 1]], [[1e30, 1.0]],
                                        np.array([[2**64 - 1, 1]], dtype=np.uint64)])
    def test_coefficients_beyond_int64_rejected(self, coeffs):
        lat = LatticeTorus(np.eye(2) * 7.0)
        with pytest.raises(ValidationError, match="do not fit in int64"):
            CuspSpec(lat, coeffs)

    def test_integral_floats_accepted(self):
        cusp = CuspSpec(LatticeTorus(np.eye(2) * 7.0), [[1.0, 0.0]])
        assert cusp.filling_coeffs.dtype.kind == "i"
        assert cusp.filling_coeffs.tolist() == [[1, 0]]

    def test_unimodular_change_of_rows_allowed(self):
        lat = LatticeTorus(np.eye(3) * 7.0)
        cusp = CuspSpec(lat, np.array([[1, 2, 0], [0, 1, 1]]))
        sy, _ = two_pi_check(cusp)
        assert sy == pytest.approx(7.0 * np.sqrt(2))


# ---------------------------------------------------------------------------
# connect sums and shells
# ---------------------------------------------------------------------------

class TestConnectSum:
    def test_two_tori_surface(self):
        t2 = CohomologyProfile({1: 2, 2: 1})
        out = connect_sum_cohomology([t2, t2], 2)
        assert out.ranks == {1: 4, 2: 1}

    def test_identity_with_sphere(self):
        sphere = CohomologyProfile({3: 1})
        other = CohomologyProfile({1: 5, 3: 1})
        assert connect_sum_cohomology([sphere, other], 3) == other

    def test_top_mismatch(self):
        with pytest.raises(TopMismatchError):
            connect_sum_cohomology([CohomologyProfile({1: 2})], 2)
        with pytest.raises(TopMismatchError):
            connect_sum_cohomology([CohomologyProfile({2: 1, 3: 1})], 2)

    def test_infinite_absorbs(self):
        p = CohomologyProfile({1: INFINITE, 2: 1})
        out = connect_sum_cohomology([p, CohomologyProfile({1: 3, 2: 1})], 2)
        assert out.rank(1) is INFINITE


class TestShellSequence:
    def test_manifold_filling_shells_stay_spheres(self):
        # d = 1 cores have reverse shadow S^1 * T^1 = S^3, which adds
        # nothing below the top degree
        filling = axis_filling(3, [1])
        shells, colimit = shell_sequence(filling, [[0]] * 4)
        assert all(sh.ranks == {3: 1} for sh in shells)
        assert colimit.ranks == {3: 1}

    def test_single_cusp_growth(self):
        filling = axis_filling(3, [2])
        shells, colimit = shell_sequence(filling, [[0]] * 4)
        # each shell adds one copy of S^0 * T^2 = {2: 2, 3: 1}; top stays 1
        for i, sh in enumerate(shells, start=1):
            assert sh.rank(3) == 1
            assert sh.rank(2) == 2 * i
        assert colimit.ranks == {2: INFINITE, 3: 1}

    def test_monotone_under_schedule(self):
        filling = axis_filling(4, [1, 2, 3])
        shells, colimit = shell_sequence(filling, [[0], [1, 2], [0, 1]])
        prev = CohomologyProfile({4: 1})
        for sh in shells:
            for q in prev.degrees:
                assert sh.rank(q) >= prev.rank(q)
            prev = sh
        for q in range(2, 4):
            assert colimit.rank(q) is INFINITE

    def test_empty_schedule(self):
        with pytest.raises(ScheduleEmptyError):
            shell_sequence(axis_filling(3, [1]), [])

    def test_colimit_matches_boundary_table(self):
        # a schedule that swallows every cusp reproduces the closed form
        for n, dims in [(3, [1]), (4, [1, 2]), (5, [3]), (4, [4])]:
            filling = axis_filling(n, dims)
            _, colimit = shell_sequence(filling, [list(range(len(dims)))])
            assert colimit == boundary_cohomology(filling)


# ---------------------------------------------------------------------------
# the closed-form tables
# ---------------------------------------------------------------------------

class TestGroupCohomology:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_table_shape(self, n):
        for s in range(1, n + 1):
            prof = group_cohomology(axis_filling(n, [s]))
            assert prof.rank(n + 1) == 1
            for q in range(n - s + 2, n + 1):
                assert prof.rank(q) is INFINITE
            assert prof.rank(n - s + 1) == 0
            assert prof.rank(n + 2) == 0

    def test_s_is_max_over_cusps(self):
        filling = axis_filling(4, [1, 3, 2])
        assert filling.s == 3
        assert group_cohomology(filling).degrees == [3, 4, 5]

    def test_manifold_case_is_pd_like(self):
        # s = 1: a single Z in the top degree and nothing else
        prof = group_cohomology(axis_filling(3, [1, 1]))
        assert prof.ranks == {4: 1}

    def test_warns_without_two_pi(self):
        filling = axis_filling(2, [1], side=6.0)
        with pytest.warns(UserWarning, match="2pi"):
            group_cohomology(filling)

    def test_boundary_is_shift_by_one(self):
        for n, dims in [(3, [2]), (4, [1, 4]), (5, [2, 3])]:
            filling = axis_filling(n, dims)
            g = group_cohomology(filling)
            b = boundary_cohomology(filling)
            assert b.ranks == {q - 1: r for q, r in g.ranks.items()}


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class TestClassify:
    def test_manifold_filling(self):
        rep = classify(axis_filling(3, [1, 1]))
        assert rep.flags["is_manifold"]
        assert rep.flags["is_pd_group"]
        assert rep.flags["simply_connected_at_infinity"]
        assert rep.flags["two_pi_filling"]
        assert rep.flags["flat_dims_present"] == [2]

    def test_cat_minus_one_needs_high_dims(self):
        assert classify(axis_filling(3, [2, 3])).flags["cat_minus_one"]
        assert not classify(axis_filling(3, [1])).flags["cat_minus_one"]

    def test_full_rank_cusp_kills_sc_infinity(self):
        rep = classify(axis_filling(3, [3]))
        assert not rep.flags["simply_connected_at_infinity"]
        assert not rep.flags["systolic_excluded"]
        assert rep.flags["flat_dims_present"] == []

    def test_per_cusp_records(self):
        rep = classify(axis_filling(4, [1, 2]))
        assert rep.per_cusp[0][2:] == (3, 1)
        assert rep.per_cusp[1][2:] == (2, 2)
        assert all(ok for (_, ok, _, _) in rep.per_cusp)

    @pytest.mark.parametrize("n,dims,side", [(6, [6], 6.5), (8, [8, 3], 6.0)])
    def test_bidiagonal_twin_is_fast_and_matches_base(self, n, dims, side):
        # the twin's sublattice basis is bidiagonal, far from orthogonal; a
        # coefficient-box enumeration took 110 s on the 6 x 6 one
        base = axis_filling(n, dims, side=side)
        twin = FillingSpec(n, tuple(
            CuspSpec(c.boundary_lattice, (np.eye(c.d, dtype=int) + np.eye(c.d, k=1, dtype=int))
                     @ c.filling_coeffs)
            for c in base.cusps))
        start = time.perf_counter()
        rep = classify(twin)
        assert time.perf_counter() - start < 1.0
        ref = classify(base)
        assert [c[0] for c in rep.per_cusp] == pytest.approx([side] * len(dims), rel=1e-12)
        assert [c[1:] for c in rep.per_cusp] == [c[1:] for c in ref.per_cusp]
        assert rep.flags == ref.flags

    def test_two_pi_flag_false_when_short(self):
        rep = classify(axis_filling(2, [1], side=6.0))
        assert not rep.flags["two_pi_filling"]

    def test_render_mentions_key_facts(self):
        text = classify(axis_filling(3, [2])).render()
        assert "n = 3" in text and "s = 2" in text
        assert "H^q(G;ZG)" in text

    def test_one_systole_per_cusp(self, monkeypatch):
        import warpfill.filling_topology as ft

        calls = []
        real = ft.torus_systole

        def counted(torus):
            calls.append(torus.dim)
            return real(torus)

        monkeypatch.setattr(ft, "torus_systole", counted)
        rep = classify(axis_filling(4, [1, 2, 3]))
        assert calls == [1, 2, 3]
        assert rep.group_cohomology == group_cohomology(axis_filling(4, [1, 2, 3]))

    def test_report_json_is_serializable(self):
        doc = classify(axis_filling(4, [2, 4])).to_json_dict()
        json.dumps(doc)
        assert doc["group_cohomology"]["5"] == 1
        assert doc["group_cohomology"]["4"] == "INFINITE"


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_roundtrip(self):
        filling = axis_filling(3, [1, 2])
        doc = filling_to_json_dict(filling)
        back = filling_from_json_dict(json.loads(json.dumps(doc)))
        assert back.n == filling.n
        assert len(back.cusps) == 2
        for c1, c2 in zip(filling.cusps, back.cusps):
            assert np.array_equal(c1.filling_coeffs, c2.filling_coeffs)
            assert np.array_equal(c1.boundary_lattice.basis, c2.boundary_lattice.basis)

    def test_fractional_coefficients_rejected(self):
        doc = filling_to_json_dict(axis_filling(2, [1]))
        doc["cusps"][0]["filling_coeffs"] = [[1.5, 0]]
        with pytest.raises(ValidationError):
            filling_from_json_dict(doc)

    def test_profile_roundtrip_keeps_infinite(self):
        p = CohomologyProfile({2: INFINITE, 3: 1})
        back = CohomologyProfile.from_json_dict(p.to_json_dict())
        assert back == p
        assert back.rank(2) is INFINITE
