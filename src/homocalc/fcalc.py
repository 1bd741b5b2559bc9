"""Functional calculus: lifting PH functions to vector lattices.

The lift acts per coordinate: on R^m through the m coordinate columns, on
step functions through the columns of the common refinement.  A lift
evaluates all its columns as one batch, and every batched kernel (family
scan, support, saddle) gives a column the same bits whatever batch it sits
in, so embedding a step tuple on a grid and lifting commute bitwise.
"""

from functools import partial

import numpy as np

from .convexsets import _BLOCK_CELLS, _dot_columns, feasible_point
from .errors import (
    DimensionMismatch,
    EmptyFamily,
    LatticeMismatch,
    NotOrdered,
    SaddleGap,
    SchemaError,
)
from .homog import (
    DEFAULT_TOL,
    SublinearMap,
    SuperlinearMap,
    _default_density,
    _eval_columns,
    _finite_values,
    sphere_grid,
)
from .lattice import RmElement, StepFunction, common_refinement

SADDLE_TOL = 1e-6


def _lift_columns(op, what, dim, elements):
    """(wrap, columns) of a lattice tuple: its value matrix, checked to have
    dim rows, and the function that wraps one value per column back into
    the tuple's lattice (R^m, or the common refinement of step functions)."""
    elements = tuple(elements)
    if not elements:
        raise EmptyFamily("fc", "no lattice elements given")
    if all(isinstance(f, RmElement) for f in elements):
        dims = {f.m for f in elements}
        if len(dims) != 1:
            raise LatticeMismatch("fc", f"mixed R^m dimensions {sorted(dims)}")
        wrap, cols = RmElement, np.vstack([f.coords for f in elements])
    elif all(isinstance(f, StepFunction) for f in elements):
        bp, cols = common_refinement(elements)
        wrap = partial(StepFunction, bp)
    else:
        raise LatticeMismatch("fc", "elements mix R^m and step functions")
    if cols.shape[0] != dim:
        raise DimensionMismatch(op, f"{cols.shape[0]} elements, {what} expects {dim}")
    return wrap, cols


def fc_sublinear(phi, elements):
    """Coordinatewise application of a sublinear map to a lattice tuple."""
    wrap, cols = _lift_columns("fc_sublinear", "map", phi.dim, elements)
    return wrap(phi(cols))


def fc_superlinear(psi, elements):
    """Coordinatewise application of a superlinear map to a lattice tuple."""
    wrap, cols = _lift_columns("fc_superlinear", "map", psi.dim, elements)
    return wrap(psi(cols))


def fc_semicontinuous(h, elements, side="auto"):
    """Lift a PH function through its representing family, per coordinate.

    All columns go through one batched family evaluation; a column gets the
    same value as eval_family at that column alone.
    """
    element, _ = fc_semicontinuous_detailed(h, elements, side=side)
    return element


def fc_semicontinuous_detailed(h, elements, side="auto"):
    """(element, diagnostics): family terms per column and oracle drift.

    The lift reads the family alone.  Then the oracle, when h has one, is
    called once over all columns, and max_residual is the largest
    |lift - oracle| over them (None without an oracle).  Drift is data
    here: no warning is raised.
    """
    wrap, cols = _lift_columns("fc_semicontinuous", "function", h.dim, elements)
    out, terms = _eval_columns(h, cols, side)
    residual = None
    if h.oracle is not None:
        residual = float(np.abs(out - np.asarray(h.oracle(cols.T), dtype=float)).max())
    diagnostics = {"family_terms_used": terms, "max_residual": residual}
    return wrap(out), diagnostics


# ---------------------------------------------------------------------------
# saddle representations

class SaddleFamily:
    """Coefficient tensor a[i, j] in subdiff(phi_i) cap superdiff(psi_j).

    Each coefficient is simultaneously below every value of phi_i and above
    every value of psi_j, so min-max and max-min over the matrix a[i,j].x
    bracket any function sandwiched between the two families.
    """

    def __init__(self, coeffs, phi_labels=None, psi_labels=None):
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.ndim != 3:
            raise ValueError("coeffs must have shape (P, Q, n)")
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)
        P, Q, _ = coeffs.shape
        self.phi_labels = tuple(phi_labels) if phi_labels else tuple(f"phi{i}" for i in range(P))
        self.psi_labels = tuple(psi_labels) if psi_labels else tuple(f"psi{j}" for j in range(Q))

    @property
    def shape(self):
        return self.coeffs.shape[:2]

    @property
    def dim(self):
        return self.coeffs.shape[2]


def saddle_build(phis, psis, tol=DEFAULT_TOL):
    """Pairwise coefficients for an ordered (psi <= phi) pair of families.

    Validates psi_j <= phi_i on a sphere grid first (NotOrdered on failure),
    then intersects each subdifferential with each superdifferential.  The
    bracket max_j psi_j <= minmax/maxmin <= min_i phi_i is re-checked on the
    grid with slack tol.
    """
    phis = list(phis)
    psis = list(psis)
    if not phis or not psis:
        raise EmptyFamily("saddle_build", "need at least one map on each side")
    for i, p in enumerate(phis):
        if not isinstance(p, SublinearMap):
            raise TypeError(f"phis[{i}] is not a SublinearMap")
    for j, q in enumerate(psis):
        if not isinstance(q, SuperlinearMap):
            raise TypeError(f"psis[{j}] is not a SuperlinearMap")
    dims = {p.dim for p in phis} | {q.dim for q in psis}
    if len(dims) != 1:
        raise DimensionMismatch("saddle_build", f"mixed map dimensions {sorted(dims)}")
    n = dims.pop()

    grid = sphere_grid(n, _default_density(n))
    phi_vals = np.array([p(grid.T) for p in phis])
    psi_vals = np.array([q(grid.T) for q in psis])
    worst = float((psi_vals[None, :, :] - phi_vals[:, None, :]).max())
    if worst > tol:
        raise NotOrdered(
            "saddle_build",
            f"some psi exceeds some phi by {worst:.3e} on the sphere grid",
        )

    P, Q = len(phis), len(psis)
    coeffs = np.empty((P, Q, n))
    for i in range(P):
        for j in range(Q):
            coeffs[i, j] = feasible_point(phis[i].set, psis[j].set, tol=tol)

    S = SaddleFamily(
        coeffs,
        phi_labels=[p.label or f"phi{i}" for i, p in enumerate(phis)],
        psi_labels=[q.label or f"psi{j}" for j, q in enumerate(psis)],
    )
    infsup, supinf = saddle_eval(S, grid)
    lo = psi_vals.max(axis=0)
    hi = phi_vals.min(axis=0)
    slack = tol * (1.0 + np.abs(hi).max())
    if (
        np.any(infsup < lo - slack)
        or np.any(infsup > hi + slack)
        or np.any(supinf < lo - slack)
        or np.any(supinf > hi + slack)
    ):
        raise NotOrdered(
            "saddle_build", "saddle values escape the family bracket on the sphere grid"
        )
    return S


def saddle_eval(S, x):
    """(infsup, supinf) of the coefficient matrix at a point or at many.

    x of shape (n,) gives two floats; points of shape (k, n) give two arrays
    of shape (k,).  Points go in blocks of at most _BLOCK_CELLS
    coefficient-by-point cells, summed coordinate by coordinate, so a
    point's values do not depend on the other points.  Raises ValueError on
    a NaN or infinite point and NonFiniteResult on a value outside the
    float range.
    """
    pts = np.asarray(x, dtype=float)
    single = pts.ndim <= 1
    pts = pts.reshape(1, -1) if single else pts
    if pts.ndim != 2 or pts.shape[1] != S.dim:
        raise DimensionMismatch(
            "saddle_eval", f"points have shape {pts.shape}, saddle has dim {S.dim}"
        )
    P, Q = S.shape
    step = max(1, _BLOCK_CELLS // (P * Q))

    def evaluate():
        out = np.empty((2, pts.shape[0]))
        for c in range(0, pts.shape[0], step):
            M = _dot_columns(S.coeffs, pts[c : c + step].T)
            out[0, c : c + step] = M.max(axis=1).min(axis=0)
            out[1, c : c + step] = M.min(axis=0).max(axis=0)
        return out

    infsup, supinf = _finite_values(evaluate, pts, "saddle_eval", unit="point")
    if single:
        return float(infsup[0]), float(supinf[0])
    return infsup, supinf


def fc_saddle(S, elements):
    """Coordinatewise saddle value; the two orderings must agree within SADDLE_TOL.

    Returns the min-max ordering.  A per-coordinate disagreement beyond
    SADDLE_TOL raises SaddleGap naming the worst coordinate.
    """
    wrap, cols = _lift_columns("fc_saddle", "saddle", S.dim, elements)
    infsup, supinf = saddle_eval(S, cols.T)
    gap = np.abs(infsup - supinf)
    k = int(gap.argmax())
    if gap[k] > SADDLE_TOL:
        raise SaddleGap(
            "fc_saddle",
            f"min-max and max-min differ by {gap[k]:.3e} at coordinate {k} (tol {SADDLE_TOL:g})",
        )
    return wrap(infsup)


def saddle_to_json(S):
    return {
        "saddle": {
            "coeffs": S.coeffs.tolist(),
            "phi_labels": list(S.phi_labels),
            "psi_labels": list(S.psi_labels),
        }
    }


def saddle_from_json(obj, source="<inline>", path="saddle"):
    if not isinstance(obj, dict) or "saddle" not in obj:
        raise SchemaError(source, path, "expected a 'saddle' object")
    body = obj["saddle"]
    if not isinstance(body, dict) or "coeffs" not in body:
        raise SchemaError(source, f"{path}.saddle", "expected {'coeffs': [[[...]]]}")
    try:
        coeffs = np.asarray(body["coeffs"], dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(source, f"{path}.saddle.coeffs", "expected a numeric 3-d array") from None
    if coeffs.ndim != 3:
        raise SchemaError(source, f"{path}.saddle.coeffs", "expected shape (P, Q, n)")
    if not np.all(np.isfinite(coeffs)):
        raise SchemaError(source, f"{path}.saddle.coeffs", "coefficients must be finite")
    labels = {}
    for key in ("phi_labels", "psi_labels"):
        if key in body:
            val = body[key]
            if not isinstance(val, list) or not all(isinstance(s, str) for s in val):
                raise SchemaError(source, f"{path}.saddle.{key}", "expected a list of strings")
            if len(val) != coeffs.shape[0 if key == "phi_labels" else 1]:
                raise SchemaError(source, f"{path}.saddle.{key}", "label count mismatch")
            labels[key] = val
    return SaddleFamily(coeffs, **labels)
