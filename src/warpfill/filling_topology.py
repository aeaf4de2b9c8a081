"""Topological invariants of 2-pi fillings.

Everything in this module is exact integer combinatorics: systole checks of
the filling sublattices, reduced cohomology of joins S^(l-1) * T^k, connect
sums, shell sequences with their colimits, the closed-form H^q(G; ZG)
table, and the classification flags.  Infinite ranks are a symbolic
sentinel, never a number.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass, field
from math import comb, pi

import numpy as np

from .errors import (
    EmptyJoinError,
    RankDeficientError,
    ScheduleEmptyError,
    TopMismatchError,
    ValidationError,
)
from .lattice import elementary_divisors
from .model_spaces import LatticeTorus, torus_systole

__all__ = [
    "INFINITE",
    "CuspSpec",
    "FillingSpec",
    "CohomologyProfile",
    "axis_filling",
    "InvariantReport",
    "two_pi_check",
    "join_cohomology",
    "connect_sum_cohomology",
    "shell_sequence",
    "group_cohomology",
    "boundary_cohomology",
    "classify",
    "filling_from_json_dict",
    "filling_to_json_dict",
]


class _Infinite:
    """Symbolic countably-infinite rank (Z^infinity)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"

    def __add__(self, other):
        return self

    __radd__ = __add__


INFINITE = _Infinite()


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def _integer_matrix(values) -> np.ndarray:
    """``values`` as an int64 array; an entry that is not an integer, or an
    integer outside int64, raises ``ValidationError`` instead of being
    truncated or wrapped."""
    try:
        raw = np.asarray(values)
    except ValueError as exc:
        raise ValidationError(f"filling_coeffs is not a matrix: {exc}") from None
    kind = raw.dtype.kind
    if kind == "O":  # numpy keeps Python ints beyond int64 as objects
        integral = all(isinstance(v, numbers.Integral) for v in raw.flat)
    elif kind == "f":
        integral = bool(np.all(np.isfinite(raw)) and np.all(raw == np.round(raw)))
    else:
        integral = kind in "iu"
    if not integral:
        raise ValidationError(f"filling_coeffs must be integers, got {raw.tolist()}")
    if kind != "i" and not all(-(2**63) <= int(v) < 2**63 for v in raw.flat):
        raise ValidationError(f"filling_coeffs entries do not fit in int64, got {raw.tolist()}")
    return raw.astype(np.int64)


@dataclass(frozen=True)
class CuspSpec:
    boundary_lattice: LatticeTorus
    filling_coeffs: np.ndarray

    def __post_init__(self):
        c = _integer_matrix(self.filling_coeffs)
        if c.ndim != 2:
            raise ValidationError("filling_coeffs must be a 2d integer matrix")
        d, n = c.shape
        if not (1 <= d <= n):
            raise ValidationError(f"filling dimension {d} outside 1..{n}")
        if n != self.boundary_lattice.dim:
            raise ValidationError(
                f"filling_coeffs has {n} columns, lattice has rank {self.boundary_lattice.dim}"
            )
        divisors = elementary_divisors(c.tolist())
        if len(divisors) != d:
            raise RankDeficientError("filling_coeffs rows are dependent")
        if any(e != 1 for e in divisors):
            raise ValidationError(
                f"filling sublattice not primitive (elementary divisors {divisors})"
            )
        object.__setattr__(self, "filling_coeffs", c)

    @property
    def d(self):
        return self.filling_coeffs.shape[0]

    def to_json_dict(self):
        return {
            "basis": self.boundary_lattice.basis.tolist(),
            "filling_coeffs": self.filling_coeffs.tolist(),
        }


@dataclass(frozen=True)
class FillingSpec:
    n: int
    cusps: tuple

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError("need cusp cross-section dimension n >= 2")
        cusps = tuple(self.cusps)
        if not cusps:
            raise ValidationError("need at least one cusp")
        for c in cusps:
            if c.boundary_lattice.dim != self.n:
                raise ValidationError(
                    f"cusp lattice rank {c.boundary_lattice.dim} != n = {self.n}"
                )
        object.__setattr__(self, "cusps", cusps)

    @property
    def s(self):
        return max(c.d for c in self.cusps)


def axis_filling(n: int, dims, side: float = 7.0) -> FillingSpec:
    """FillingSpec with one cusp per entry of ``dims``, each on the square
    lattice of the given side, filled along the first d coordinate axes."""
    lat = LatticeTorus(np.eye(n) * side)
    return FillingSpec(n, tuple(CuspSpec(lat, np.eye(d, n, dtype=int)) for d in dims))


def filling_to_json_dict(filling: FillingSpec) -> dict:
    return {"n": filling.n, "cusps": [c.to_json_dict() for c in filling.cusps]}


def filling_from_json_dict(doc: dict) -> FillingSpec:
    if not (isinstance(doc, dict)
            and isinstance(doc.get("n"), numbers.Integral) and not isinstance(doc["n"], bool)
            and isinstance(doc.get("cusps"), (list, tuple))
            and all(isinstance(c, dict) and {"basis", "filling_coeffs"} <= c.keys() for c in doc["cusps"])):
        raise ValidationError('a filling spec is an object with an integer "n" and a list "cusps" of '
                              'objects with "basis" and "filling_coeffs"')
    cusps = [
        CuspSpec(
            boundary_lattice=LatticeTorus(np.asarray(c["basis"], dtype=float)),
            filling_coeffs=c["filling_coeffs"],
        )
        for c in doc["cusps"]
    ]
    return FillingSpec(n=int(doc["n"]), cusps=tuple(cusps))


# ---------------------------------------------------------------------------
# cohomology profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CohomologyProfile:
    ranks: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {int(q): r for q, r in self.ranks.items() if r is INFINITE or r != 0}
        object.__setattr__(self, "ranks", clean)

    def rank(self, q: int):
        return self.ranks.get(q, 0)

    @property
    def degrees(self):
        return sorted(self.ranks)

    def __eq__(self, other):
        return isinstance(other, CohomologyProfile) and self.ranks == other.ranks

    def __hash__(self):
        return hash(tuple(sorted((q, repr(r)) for q, r in self.ranks.items())))

    def to_json_dict(self):
        return {str(q): ("INFINITE" if r is INFINITE else r) for q, r in sorted(self.ranks.items())}

    @classmethod
    def from_json_dict(cls, d):
        return cls({int(q): (INFINITE if r == "INFINITE" else int(r)) for q, r in d.items()})

    def render(self, name="H^q"):
        if not self.ranks:
            return f"{name}: trivial"
        parts = []
        for q in self.degrees:
            r = self.ranks[q]
            parts.append(f"{name}{{{q}}} = " + ("Z^inf" if r is INFINITE else f"Z^{r}"))
        return ", ".join(parts)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def two_pi_check(cusp: CuspSpec):
    """(systole, ok) of the filling sublattice; ok means systole > 2 pi."""
    c = cusp.filling_coeffs.astype(float)
    induced = c @ cusp.boundary_lattice.gram @ c.T
    # any basis with the induced Gram matrix gives the same lattice geometry
    basis = np.linalg.cholesky(induced)
    systole = torus_systole(LatticeTorus(basis))
    return systole, systole > 2.0 * pi


def join_cohomology(l: int, k: int) -> CohomologyProfile:
    """Reduced integer cohomology ranks of S^(l-1) * T^k.

    Conventions: k = 0 means an empty torus factor (the join is S^(l-1)
    itself); l = 0 means S^(-1) is empty, so the join is T^k.  All groups
    are free, so ranks determine everything.
    """
    if l < 0 or k < 0:
        raise ValidationError("l, k must be nonnegative")
    if l == 0 and k == 0:
        raise EmptyJoinError("join of two empty sets")
    if k == 0:
        return CohomologyProfile({l - 1: 1})
    return CohomologyProfile({l + j: comb(k, j) for j in range(1, k + 1)})


def connect_sum_cohomology(profiles, top_dim: int) -> CohomologyProfile:
    """Connect sum of pseudomanifold profiles: add below top, rank 1 on top."""
    profiles = list(profiles)
    if not profiles:
        raise ValidationError("need at least one profile")
    for p in profiles:
        if p.rank(top_dim) != 1:
            raise TopMismatchError(f"profile {p.ranks} has no single class in degree {top_dim}")
        if any(q > top_dim for q in p.degrees):
            raise TopMismatchError(f"profile {p.ranks} exceeds top dimension {top_dim}")
    out = {top_dim: 1}
    for p in profiles:
        for q in p.degrees:
            if q < top_dim:
                out[q] = out.get(q, 0) + p.rank(q)
    return CohomologyProfile(out)


def _core_dims(filling: FillingSpec, cusp_index: int):
    d = filling.cusps[cusp_index].d
    return filling.n - d, d  # (l, k)


def shell_sequence(filling: FillingSpec, schedule):
    """Shell profiles under a swallow schedule, plus the colimit.

    ``schedule`` is a list of shells, each a list of cusp indices whose
    cores that shell swallows; shell i's profile is the connect sum of the
    previous shell with the reverse shadows S^(l-1) * T^k of the swallowed
    cores.  The colimit treats the schedule as repeating forever; this is a
    modeling assumption standing in for a genuine good-shell sequence.
    """
    schedule = [list(shell) for shell in schedule]
    if not schedule:
        raise ScheduleEmptyError("schedule has no shells")
    n = filling.n
    profile = CohomologyProfile({n: 1})
    shells = []
    cycle = {}  # ranks added by one full schedule cycle, per degree below n
    for shell in schedule:
        joins = [join_cohomology(*_core_dims(filling, j)) for j in shell]
        profile = connect_sum_cohomology([profile] + joins, n)
        shells.append(profile)
        for jp in joins:
            for q in jp.degrees:
                if q < n:
                    cycle[q] = cycle.get(q, 0) + jp.rank(q)
    colimit = {n: 1}
    for q, added in cycle.items():
        if added > 0:
            colimit[q] = INFINITE
    for q in shells[-1].degrees:
        if q < n and q not in colimit:
            colimit[q] = shells[-1].rank(q)
    return shells, CohomologyProfile(colimit)


def group_cohomology(filling: FillingSpec) -> CohomologyProfile:
    """The closed-form H^q(G; ZG) table: with s = max core codimension-
    complement (s = max d_i), ranks vanish for q <= n-s+1 and q > n+1,
    are infinite for n-s+2 <= q <= n, and a single Z sits at q = n+1."""
    for i, cusp in enumerate(filling.cusps):
        systole, ok = two_pi_check(cusp)
        if not ok:
            warnings.warn(
                f"cusp {i} fails the 2pi condition (systole {systole:.4f}); "
                "the cohomology table assumes a 2pi-filling",
                stacklevel=2,
            )
    return _cohomology_table(filling.n, filling.s)


def _cohomology_table(n: int, s: int) -> CohomologyProfile:
    """``group_cohomology``'s table for cusp dimension n and s = max d_i,
    without the 2pi check."""
    ranks = {n + 1: 1}
    for q in range(n - s + 2, n + 1):
        ranks[q] = INFINITE
    return CohomologyProfile(ranks)


def boundary_cohomology(filling: FillingSpec) -> CohomologyProfile:
    """Cech cohomology of the boundary: the group table shifted down by one."""
    return _cohomology_table(filling.n - 1, filling.s)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvariantReport:
    n: int
    per_cusp: tuple  # (systole, two_pi_ok, l, k) per cusp
    s: int
    group_cohomology: CohomologyProfile
    boundary_cohomology: CohomologyProfile
    flags: dict

    def to_json_dict(self):
        return {
            "n": self.n,
            "per_cusp": [
                {"systole": sy, "two_pi_ok": ok, "core_dim": l, "torus_dim": k}
                for (sy, ok, l, k) in self.per_cusp
            ],
            "s": self.s,
            "group_cohomology": self.group_cohomology.to_json_dict(),
            "boundary_cohomology": self.boundary_cohomology.to_json_dict(),
            "flags": self.flags,
            "note": "shell schedules are model assumptions, not derived geometry",
        }

    def render(self):
        lines = [f"filling: n = {self.n} (manifold dimension {self.n + 1}), s = {self.s}"]
        for i, (sy, ok, l, k) in enumerate(self.per_cusp):
            lines.append(
                f"  cusp {i}: systole {sy:.4f} ({'>' if ok else '<='} 2pi), "
                f"core dim l = {l}, torus dim k = {k}"
            )
        lines.append("  " + self.group_cohomology.render("H^q(G;ZG)"))
        lines.append("  " + self.boundary_cohomology.render("check H^q(bd)"))
        for name, val in sorted(self.flags.items()):
            lines.append(f"  {name}: {val}")
        return "\n".join(lines)


def classify(filling: FillingSpec) -> InvariantReport:
    per_cusp = []
    for cusp in filling.cusps:
        systole, ok = two_pi_check(cusp)
        l, k = filling.n - cusp.d, cusp.d
        per_cusp.append((float(systole), bool(ok), l, k))
    n = filling.n
    dims = [c.d for c in filling.cusps]
    is_manifold = all(d == 1 for d in dims)
    cat_minus_one = all(d in (n - 1, n) for d in dims)
    flat_dims = sorted({n - d for d in dims if d <= n - 2})
    sc_infinity = all(d != n for d in dims)
    flags = {
        "is_manifold": is_manifold,
        "is_pd_group": is_manifold,
        "cat_minus_one": cat_minus_one,
        "isolated_flats": True,
        "flat_dims_present": flat_dims,
        "simply_connected_at_infinity": sc_infinity,
        "systolic_excluded": sc_infinity,
        "two_pi_filling": all(ok for (_, ok, _, _) in per_cusp),
    }
    return InvariantReport(
        n=n,
        per_cusp=tuple(per_cusp),
        s=filling.s,
        group_cohomology=_cohomology_table(n, filling.s),
        boundary_cohomology=boundary_cohomology(filling),
        flags=flags,
    )
