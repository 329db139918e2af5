"""Exact-rational twins of the association computations.

Contingency tables hold integer counts, so every association quantity is
a rational number.  These helpers compute with ``fractions.Fraction`` so
that equality checks (equivalence relations, hierarchy properties) can be
performed at tolerance zero on small tables.  They are deliberately
unvectorized; use the float routines in :mod:`catassoc.association` for
anything large.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NumericDomainError

Matrix = list[list[Fraction]]


def _joint(counts) -> tuple[Matrix, list[Fraction], list[Fraction]]:
    """Joint probabilities and their row and column marginals; a response
    category without mass is refused."""
    total = sum(sum(int(c) for c in row) for row in counts)
    if total <= 0:
        raise NumericDomainError("counts sum to zero")
    p = [[Fraction(int(c), total) for c in row] for row in counts]
    p_y = [sum(col) for col in zip(*p)]
    if any(py == 0 for py in p_y):
        raise NumericDomainError("response has a zero-probability category")
    return p, [sum(row) for row in p], p_y


def gamma_exact(counts) -> Matrix:
    """Association matrix as exact rationals; zero-mass X rows are skipped."""
    p, p_x, p_y = _joint(counts)
    ny = len(p_y)
    out = [[Fraction(0)] * ny for _ in range(ny)]
    for s in range(ny):
        for t in range(ny):
            acc = Fraction(0)
            for i, row in enumerate(p):
                if p_x[i] == 0:
                    continue
                acc += row[s] * row[t] / p_x[i]
            out[s][t] = acc / p_y[s]
    return out


def theta_exact(counts) -> list[Fraction]:
    """Association vector as exact rationals."""
    p, p_x, p_y = _joint(counts)
    if any(py == 1 for py in p_y):
        raise NumericDomainError("response is constant")
    out = []
    for s, py in enumerate(p_y):
        e_sq = sum(row[s] * row[s] / p_x[i] for i, row in enumerate(p) if p_x[i] > 0)
        out.append((e_sq - py * py) / (py * (1 - py)))
    return out


def gk_weights_exact(counts) -> list[Fraction]:
    p_y = _joint(counts)[2]
    w = [py * (1 - py) for py in p_y]
    total = sum(w)
    if total == 0:
        raise NumericDomainError("response is constant")
    return [wi / total for wi in w]


def tau_exact(counts, alpha: list[Fraction] | None = None) -> Fraction:
    """Weighted association degree as an exact rational (gk weights by default)."""
    th = theta_exact(counts)
    if alpha is None:
        alpha = gk_weights_exact(counts)
    if len(alpha) != len(th):
        raise NumericDomainError("weight vector length mismatch")
    return sum(a * t for a, t in zip(alpha, th))
