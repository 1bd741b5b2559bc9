"""Functional calculus: lifting PH functions to vector lattices.

The lift acts per coordinate: on R^m through the m coordinate columns, on
step functions through the columns of the common refinement.  Those
columns come from lattice._columns, the one reader of a tuple of lattice
elements, which join, meet, + and <= use too, so every tuple operation
checks its operands one way.  A lift evaluates all its columns as one
batch, and every batched kernel (family scan, support, saddle) gives a
column the same bits whatever batch it sits in, so embedding a step tuple
on a grid and lifting commute bitwise.
"""

import numpy as np

from .convexsets import FEASIBLE_TOL, Ball, _blocks, _check_tol, _dot_paired, _feasible_points, _norms, _reduce
from .errors import (
    DimensionMismatch,
    EmptyFamily,
    EmptyIntersection,
    NonFiniteResult,
    NotOrdered,
    SaddleGap,
)
from .homog import (
    SublinearMap,
    SuperlinearMap,
    _eval_columns,
    _finite_values,
)
from .lattice import _columns

SADDLE_TOL = 1e-6


def _lift_columns(op, what, dim, elements):
    """lattice._columns of the tuple, whose column length must be dim: one
    element per argument of the lifted map, function or saddle."""
    wrap, cols = _columns(op, tuple(elements))
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
    same value as eval_family at that column alone.  The oracle is not
    called: only fc_semicontinuous_detailed reads it, for max_residual.
    """
    wrap, cols = _lift_columns("fc_semicontinuous", "function", h.dim, elements)
    return wrap(_eval_columns(h, cols, side)[0])


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
    bracket any function sandwiched between the two families.  The tensor
    has shape (P, Q, n): no rows or columns raise EmptyFamily, and n = 0
    raises ValueError, as a set of dimension 0 does.  So do a coefficient
    that is not finite and a label list whose length is not P (or Q), which
    the document reader refuses too; labels are read with str.  The tensor
    is a read-only copy, so the caller's array stays as it was.
    """

    def __init__(self, coeffs, phi_labels=None, psi_labels=None):
        coeffs = np.array(coeffs, dtype=float, copy=True)
        if coeffs.ndim != 3:
            raise ValueError("coeffs must have shape (P, Q, n)")
        P, Q, n = coeffs.shape
        if not P or not Q:
            raise EmptyFamily("SaddleFamily", f"need at least one row and one column, got {P} x {Q}")
        if not n:
            raise ValueError(f"need dimension n >= 1, got shape {coeffs.shape}")
        if not np.isfinite(coeffs).all():
            raise ValueError("coefficients must be finite")
        self.coeffs = coeffs
        self.coeffs.setflags(write=False)
        self.phi_labels = _labels(phi_labels, P, "phi")
        self.psi_labels = _labels(psi_labels, Q, "psi")

    @property
    def shape(self):
        return self.coeffs.shape[:2]

    @property
    def dim(self):
        return self.coeffs.shape[2]


def _labels(labels, count, prefix):
    """The labels as strings, or prefix0, prefix1, ... where labels is None."""
    labels = tuple(f"{prefix}{i}" for i in range(count)) if labels is None else tuple(map(str, labels))
    if len(labels) != count:
        raise ValueError(f"{prefix}_labels has {len(labels)} labels, need {count}")
    return labels


def saddle_build(phis, psis, tol=FEASIBLE_TOL):
    """Pairwise coefficients for an ordered (psi <= phi) pair of families.

    psi_j <= phi_i on the whole sphere exactly when superdiff(psi_j) meets
    subdiff(phi_i), and the largest psi_j - phi_i over |x| = 1 is the sets'
    distance, so intersecting the sets is the ordering check; no grid is
    sampled.  tol is relative to the scale read from the sets: the largest
    |a| over a vertex a of a polytope, or |centre| + radius for a ball,
    which is the largest |phi_i| or |psi_j| on the unit sphere.  The norms
    of every vertex and centre come from one _norms pass, each with the
    bits it gets alone, and each set's largest from one maximum.reduceat.
    A scale outside the float range raises NonFiniteResult.  All P x Q
    intersections are one stack of the Wolfe kernel, each with the bits it
    gets alone, and the first failing pair in row-major order raises: sets
    more than tol times the scale apart as NotOrdered, naming the pair by
    its labels, and any other error as it is.  So 2^k phi and 2^k psi
    build the saddle of phi and psi, scaled, or fail the same way.  A tol
    that is not finite and >= 0 raises ValueError.  At tol=0 a pair builds
    only where the computed distance is exactly 0: for sets that touch or
    nest it is often a rounding residue of a few 1e-16, so such families
    usually need a small positive tol.
    """
    _check_tol(tol, "saddle_build")
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

    # one _norms call over every set's rows (a polytope's vertices, a ball's
    # centre) as columns; _norms is per column, so each norm has its own bits
    sets = [m.set for m in phis + psis]
    rows = [s.center[None, :] if isinstance(s, Ball) else s.vertices for s in sets]
    starts = np.cumsum([0] + [len(r) for r in rows[:-1]])
    tops = np.maximum.reduceat(_norms(np.concatenate(rows).T), starts).tolist()
    scale = max(t + s.radius if isinstance(s, Ball) else t for s, t in zip(sets, tops))
    if not np.isfinite(scale):
        raise NonFiniteResult("saddle_build", "the largest |a| over the maps' sets is outside the float range")
    phi_labels = [p.label or f"phi{i}" for i, p in enumerate(phis)]
    psi_labels = [q.label or f"psi{j}" for j, q in enumerate(psis)]
    points = _feasible_points([(p.set, q.set) for p in phis for q in psis], tol * scale)
    for k, point in enumerate(points):
        if isinstance(point, EmptyIntersection):
            i, j = divmod(k, len(psis))
            raise NotOrdered("saddle_build", f"{psi_labels[j]} exceeds {phi_labels[i]}: {point.message}")
        if isinstance(point, Exception):
            raise point
    return SaddleFamily(np.array(points).reshape(len(phis), len(psis), -1), phi_labels, psi_labels)


def saddle_eval(S, x):
    """(infsup, supinf) of the coefficient matrix at a point or at many.

    x of shape (n,) gives two floats; points of shape (k, n) give two arrays
    of shape (k,).  Points go in _blocks of coefficient-by-point cells,
    summed coordinate by coordinate and reduced in coefficient order
    (_reduce), so a point's values do not depend on the other points.
    With one row (P = 1) the min over rows is the identity, and with one
    column (Q = 1) the max over columns is, so both orderings reduce the
    same values in the same order and are computed once.  Raises ValueError
    on a NaN or infinite point and NonFiniteResult on a value outside the
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

    def evaluate():
        out = np.empty((2, pts.shape[0]))
        for b in _blocks(pts.shape[0], P * Q):
            M = _dot_paired(S.coeffs[..., None, :], pts[b].T)
            out[0, b] = _reduce(np.minimum, _reduce(np.maximum, M, 1), 0)
            out[1, b] = out[0, b] if 1 in (P, Q) else _reduce(np.maximum, _reduce(np.minimum, M, 0), 0)
        return out

    infsup, supinf = _finite_values(evaluate, pts, "saddle_eval", unit="point")
    if single:
        return float(infsup[0]), float(supinf[0])
    return infsup, supinf


def fc_saddle(S, elements):
    """Coordinatewise saddle value; the two orderings must agree to within
    SADDLE_TOL times the column's scale.

    Returns the min-max ordering.  A column's scale is the largest
    sum_d |a_ijd x_d| over the coefficients, the size of the sums behind
    its values.  It is summed with the coefficients and the column each
    scaled by a power of two to a largest entry in [0.5, 1), and the gap
    with them, so no sum overflows and the verdict is the same when the
    column is scaled by a power of two.  Only columns with a nonzero gap
    have their scale computed: a saddle with one row or one column, whose
    orderings are one reduction, computes none.  A gap above SADDLE_TOL
    times its scale raises SaddleGap naming the coordinate whose gap is the
    largest share of its scale.
    """
    wrap, cols = _lift_columns("fc_saddle", "saddle", S.dim, elements)
    infsup, supinf = saddle_eval(S, cols.T)
    gap = np.abs(infsup - supinf)
    odd = np.flatnonzero(gap)
    if odd.size:
        # a nonzero gap has a nonzero product behind it, so every maximum
        # here, and every scale, is > 0
        A, X = np.abs(S.coeffs), np.abs(cols[:, odd])
        ea, ex = np.frexp(A.max())[1], np.frexp(X.max(axis=0))[1]
        A, X = np.ldexp(A, -ea)[..., None, :], np.ldexp(X, -ex)
        scale = np.empty(odd.size)
        for b in _blocks(odd.size, S.shape[0] * S.shape[1]):
            scale[b] = _dot_paired(A, X[:, b]).max(axis=(0, 1))
        share = np.ldexp(gap[odd], -(ea + ex)) / scale
        w = int(share.argmax())
        if share[w] > SADDLE_TOL:
            raise SaddleGap(
                "fc_saddle",
                f"min-max and max-min differ by {gap[odd[w]]:.3e} at coordinate {odd[w]}, "
                f"{share[w]:.3e} times its scale (tol {SADDLE_TOL:g})",
            )
    return wrap(infsup)
