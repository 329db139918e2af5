"""Rendering and serialization of analysis results.

Text output rounds to four decimal places (half-up, matching the
convention of the bundled reference tables); JSON output keeps full
float precision with sorted keys so identical runs produce identical
bytes; CSV matrix output is row-major with the response categories as
the header.
"""

from __future__ import annotations

import io
import json
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .association import (
    AssociationMatrix,
    JointLike,
    _column_marginal,
    association_matrix,
    association_vector,
    make_weights,
    tau,
)
from .equivalence import EquivalenceReport
from .selection import SelectionTrace


def fmt4(x: float) -> str:
    """Four-decimal half-up rendering, e.g. 0.04319 -> '0.0432'."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.0001"),
                                                rounding=ROUND_HALF_UP))


def matrix_text(matrix: np.ndarray, col_labels, row_labels=None) -> str:
    """Aligned text table with 4-decimal cells."""
    rows = []
    header = [""] + [str(c) for c in col_labels] if row_labels else [str(c) for c in col_labels]
    rows.append(header)
    for i, row in enumerate(np.atleast_2d(matrix)):
        cells = [fmt4(v) for v in row]
        if row_labels:
            cells = [str(row_labels[i])] + cells
        rows.append(cells)
    widths = [max(len(r[j]) for r in rows) for j in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)


def matrix_csv(matrix: np.ndarray, col_labels) -> str:
    """Row-major CSV with the category labels as header."""
    buf = io.StringIO()
    buf.write(",".join(str(c) for c in col_labels) + "\n")
    for row in np.atleast_2d(matrix):
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def stable_json(obj) -> str:
    """Deterministic JSON: sorted keys, full float precision."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def association_report(j: JointLike) -> dict:
    """Bundle matrix, vector and the three named degrees for one table or joint.
    The vector is computed once; each degree equals ``tau_scheme``'s."""
    gamma = association_matrix(j)
    theta = association_vector(j)
    p_y = _column_marginal(j)
    taus = {s: tau(theta, make_weights(s, p_y=p_y)) for s in ("gk", "ew", "ipw")}
    return {
        "y_domain": list(gamma.y_domain),
        "gamma": gamma.gamma.tolist(),
        "theta": theta.theta.tolist(),
        "tau_by_scheme": taus,
    }


def trace_report(trace: SelectionTrace) -> dict:
    return {
        "metric": trace.metric,
        "steps": [
            {"variable": s.variable, "value": s.value,
             "scores": {k: v for k, v in sorted(s.scores.items())}}
            for s in trace.forward_steps
        ],
        "pruned": list(trace.pruned),
        "basis": list(trace.basis),
        "tau_final": trace.final,
    }


def equivalence_report(rep: EquivalenceReport) -> dict:
    out = {
        "pair": [rep.x1, rep.x2],
        "response": rep.y,
        "strongest": rep.strongest,
        "tol": rep.tol,
        "details": rep.details,
    }
    for i in range(1, 6):
        out[f"e{i}"] = bool(rep.levels[i])
    return out


def gamma_vs_confusion_text(gamma: AssociationMatrix, confusion,
                            y_domain) -> str:
    left = matrix_text(gamma.gamma, y_domain, y_domain).splitlines()
    right = matrix_text(confusion, y_domain, y_domain).splitlines()
    width = max(len(l) for l in left)
    out = [f"{'train association matrix':<{width + 4}}test confusion rates"]
    for a, b in zip(left, right):
        out.append(f"{a:<{width + 4}}{b}")
    return "\n".join(out)
