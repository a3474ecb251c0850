"""Index arithmetic for permutation groups and point-count upper-bound shapes.

The index of a permutation on m points is m minus its number of cycles
(fixed points count).  The predicted discriminant exponent of a class set is
the reciprocal of the minimal index over the set.  The point-count bound
evaluates sum_j q^(-j/2) b_j scaled by q^n exactly: square roots are never
approximated, the sum is split into even and odd homological degrees and
reported as a pair (A, B) representing A + B sqrt(q) with rational A, B.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .braided import ConjClassSet, Perm, PermGroup, cycles


def index(g: Perm) -> int:
    """Degree minus the number of cycles of g (fixed points count as cycles)."""
    return len(g) - len(cycles(g))


def malle_a(G: PermGroup, c: ConjClassSet | None = None) -> Fraction:
    """1 / min index over the class set (all nontrivial elements when c is None)."""
    elems = G.elements[1:] if c is None else c.elements  # the identity is first
    if not elems:
        raise ValueError("no nontrivial elements to take indices of")
    return Fraction(1, min(index(g) for g in elems))


def discriminant_degree(branch_counts, class_indices) -> int:
    """sum_i m_i ind(c_i) for branch multiplicities m_i and per-class indices."""
    if len(branch_counts) != len(class_indices):
        raise ValueError("one multiplicity per class required")
    if any(m < 0 for m in branch_counts):
        raise ValueError("branch counts are non-negative")
    return sum(m * ind for m, ind in zip(branch_counts, class_indices))


@dataclass(frozen=True)
class PointCountBound:
    """Exact value of q^n sum_j q^(-j/2) b_j as rational_part + sqrt_part sqrt(q)."""

    q: int
    n: int
    rational_part: Fraction
    sqrt_part: Fraction
    normalized: tuple[Fraction, Fraction]  # the same pair divided by n^d q^n

    def value(self) -> Fraction | float:
        """Exact when the sqrt coefficient vanishes or q is a perfect square."""
        if self.sqrt_part == 0:
            return self.rational_part
        r = isqrt(self.q)
        if r * r == self.q:
            return self.rational_part + self.sqrt_part * r
        return float(self.rational_part) + float(self.sqrt_part) * self.q**0.5


def point_count_bound(q: int, n: int, betti, d: int = 0) -> PointCountBound:
    """The Frobenius-weighted bound q^n sum_j q^(-j/2) betti[j], exactly.

    Even j contribute betti[j] q^(n - j/2) to the rational part; odd j
    contribute betti[j] q^(n - (j+1)/2) to the sqrt(q) coefficient.  The
    normalized pair divides by n^d q^n, so n >= 1 is required when d > 0.
    """
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    if d < 0:
        raise ValueError(f"d must be at least 0, got {d}")
    if n < (1 if d else 0):
        raise ValueError(f"n must be at least {1 if d else 0} when d = {d}, got {n}")
    if any(b < 0 for b in betti):
        raise ValueError("negative ranks are not allowed")
    a = Fraction(0)
    b = Fraction(0)
    for j, rk in enumerate(betti):
        if rk == 0:
            continue
        if j % 2 == 0:
            a += rk * Fraction(q) ** (n - j // 2)
        else:
            b += rk * Fraction(q) ** (n - (j + 1) // 2)
    scale = Fraction(1, n**d) / Fraction(q) ** n
    return PointCountBound(q, n, a, b, (a * scale, b * scale))


def estimate_poly_degree(values) -> int | None:
    """Degree of the polynomial interpolating a window of values, by finite
    differences; None when the window does not flatten.  A windowed
    observation only, reported as such and never extrapolated."""
    seq = list(values)
    deg = 0
    while len(seq) > 1:
        if all(v == 0 for v in seq):
            return max(deg - 1, 0)
        seq = [b - a for a, b in zip(seq, seq[1:])]
        deg += 1
    return None


@dataclass
class MalleConstants:
    """Per-class indices, the reciprocal-minimum exponent, the center order,
    and an optional windowed growth-degree estimate for the orbit counts."""

    class_indices: list[int]
    a: Fraction
    center_order: int
    growth_degree: int | None = None
    growth_window: tuple[int, ...] | None = None


def malle_constants(G: PermGroup, c: ConjClassSet | None = None,
                    orbit_window=None) -> MalleConstants:
    cs = ConjClassSet(G, G.elements[1:]) if c is None else c  # the identity is first
    inds = [index(cl[0]) for cl in cs.classes]
    a = malle_a(G, cs)
    zorder = len(G.center())
    deg = None
    window = None
    if orbit_window is not None:
        window = tuple(orbit_window)
        deg = estimate_poly_degree(window)
    return MalleConstants(inds, a, zorder, deg, window)
