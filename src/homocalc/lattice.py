"""Concrete vector lattices: R^m with coordinatewise order, and real step
functions on [0,1] with pointwise order.

Step functions use half-open pieces [t_{i-1}, t_i); the point t = 1 belongs
to the last piece.  Refinement merges breakpoint sets exactly (float
equality), no epsilon snapping.

A tuple of elements becomes columns in one place, _columns: join, meet, +
and <= read their operands there, and so does every lift in fcalc.  A
step tuple's refinement belongs to the tuple, not to the map lifted, so
_columns keeps the last step tuple it refined: keyed on its elements'
breakpoints and values arrays, by identity, it holds that tuple's shared
breakpoints and (n, pieces) columns, both read-only, until the next step
refinement.  Consecutive operations on one tuple refine it once.
"""

import operator
from functools import partial

import numpy as np

from .convexsets import _whole
from .errors import DimensionMismatch, EmptyFamily, IndexOutOfRange, LatticeMismatch


class RmElement:
    """A vector in R^m."""

    def __init__(self, coords):
        c = np.array(coords, dtype=float, copy=True).reshape(-1)
        if c.size == 0:
            raise ValueError("coords must be nonempty")
        if not np.isfinite(c).all():
            raise ValueError("coords must be finite")
        c.flags.writeable = False
        self.coords = c

    @property
    def m(self):
        return self.coords.size

    def __add__(self, other):
        return _combine(self, other, "add", np.add)

    def __rmul__(self, scalar):
        return RmElement(float(scalar) * self.coords)

    def __le__(self, other):
        _, (f, g) = _columns("<=", (self, other))
        return bool(np.all(f <= g))

    def __eq__(self, other):
        return isinstance(other, RmElement) and np.array_equal(self.coords, other.coords)

    def __hash__(self):
        return hash(self.coords.tobytes())

    def __repr__(self):
        return f"RmElement({self.coords.tolist()})"


class StepFunction:
    """Piecewise-constant function on [0,1].

    breakpoints: 0 = t_0 < t_1 < ... < t_k = 1 (length k+1)
    values: one per piece (length k), piece i covers [t_i, t_{i+1}).
    """

    def __init__(self, breakpoints, values):
        b = np.array(breakpoints, dtype=float, copy=True).reshape(-1)
        v = np.array(values, dtype=float, copy=True).reshape(-1)
        if b.size < 2 or v.size != b.size - 1:
            raise ValueError("need k+1 breakpoints and k values")
        if b[0] != 0.0 or b[-1] != 1.0:
            raise ValueError("breakpoints must start at 0 and end at 1")
        if (b[1:] - b[:-1] <= 0).any():
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.isfinite(b).all() and np.isfinite(v).all()):
            raise ValueError("breakpoints and values must be finite")
        b.flags.writeable = False
        v.flags.writeable = False
        self.breakpoints = b
        self.values = v

    @property
    def pieces(self):
        return self.values.size

    def value_at(self, t):
        """The value at t in [0,1]: the one-point case of values_at."""
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise IndexOutOfRange("value_at", f"t={t} outside [0,1]")
        return float(self.values_at(t)[0])

    def values_at(self, ts):
        """The values at the points ts, each in [0,1] (NaN is not)."""
        ts = np.asarray(ts, dtype=float).reshape(-1)
        # min and max are NaN where a point is, which fails both comparisons
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= 1.0):
            raise IndexOutOfRange("values_at", "grid points must lie in [0,1]")
        idx = self.breakpoints.searchsorted(ts, side="right") - 1
        return self.values[idx.clip(None, self.pieces - 1)]

    def __add__(self, other):
        return _combine(self, other, "add", np.add)

    def __rmul__(self, scalar):
        return StepFunction(self.breakpoints, float(scalar) * self.values)

    def __le__(self, other):
        _, (f, g) = _columns("<=", (self, other))
        return bool(np.all(f <= g))

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return False
        return np.array_equal(self.breakpoints, other.breakpoints) and np.array_equal(
            self.values, other.values
        )

    def __hash__(self):
        return hash((self.breakpoints.tobytes(), self.values.tobytes()))

    def __repr__(self):
        return f"StepFunction({self.pieces} pieces)"


# --- homomorphism descriptors ----------------------------------------------

class CoordinateHom:
    """R^m -> R, pick the j-th coordinate (1-based)."""

    def __init__(self, j):
        if not _whole(j) or j < 1:
            raise IndexOutOfRange("CoordinateHom", f"j must be a whole number >= 1, got {j!r}")
        self.j = int(j)


class PointEvalHom:
    """Step functions -> R, evaluate at t in [0,1]."""

    def __init__(self, t):
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise IndexOutOfRange("PointEvalHom", f"t={t} outside [0,1]")
        self.t = t


def hom_eval(hom, f):
    """Apply a lattice homomorphism descriptor to an element."""
    if isinstance(hom, CoordinateHom):
        if not isinstance(f, RmElement):
            raise LatticeMismatch("hom_eval", "CoordinateHom applies to RmElement")
        if hom.j > f.m:
            raise IndexOutOfRange("hom_eval", f"coordinate {hom.j} outside 1..{f.m}")
        return float(f.coords[hom.j - 1])
    if isinstance(hom, PointEvalHom):
        if not isinstance(f, StepFunction):
            raise LatticeMismatch("hom_eval", "PointEvalHom applies to StepFunction")
        return f.value_at(hom.t)
    raise TypeError(f"unknown homomorphism {type(hom).__name__}")


# --- lattice operations ------------------------------------------------------

# The last step tuple refined: (key, bp, cols), key its elements' breakpoints
# and values arrays in order.  Holding them keeps their ids from reuse.
_refined = ((), None, None)


def _columns(op, elements):
    """(wrap, columns) of a tuple of lattice elements: one row per element,
    one column per coordinate (R^m) or per piece of the common refinement
    (step functions), and the function that wraps one value per column
    back into the tuple's lattice.  Every tuple operation reads its
    operands here: an empty tuple raises EmptyFamily, R^m elements of
    different dimensions DimensionMismatch, and any other mix
    LatticeMismatch, each naming op.

    A step tuple whose breakpoints and values arrays are, in order, the
    very arrays of the last step tuple refined gets that refinement again;
    any other calls common_refinement and replaces the memo.  The memo's
    breakpoints and columns are read-only, so a caller writing into them
    raises instead of changing later lifts."""
    global _refined
    if not elements:
        raise EmptyFamily(op, "no lattice elements given")
    if all(isinstance(f, RmElement) for f in elements):
        dims = {f.m for f in elements}
        if len(dims) != 1:
            raise DimensionMismatch(op, f"elements have dims {sorted(dims)}")
        return RmElement, np.array([f.coords for f in elements])
    if all(isinstance(f, StepFunction) for f in elements):
        key = tuple(a for f in elements for a in (f.breakpoints, f.values))
        last, bp, cols = _refined
        if len(key) != len(last) or not all(map(operator.is_, key, last)):
            bp, cols = common_refinement(elements)
            bp.flags.writeable = False
            cols.flags.writeable = False
            _refined = key, bp, cols
        return partial(StepFunction, bp), cols
    raise LatticeMismatch(op, "elements must be all RmElements or all StepFunctions")


def _combine(f, g, op, ufunc):
    """ufunc of two elements, column by column."""
    wrap, (a, b) = _columns(op, (f, g))
    return wrap(ufunc(a, b))


def join(f, g):
    return _combine(f, g, "join", np.maximum)


def meet(f, g):
    return _combine(f, g, "meet", np.minimum)


def common_refinement(fs):
    """Shared breakpoints and the (n, pieces) value matrix of n step functions.

    Every breakpoint of f is one of the shared ones, so piece i of f covers
    exactly as many refined pieces as lie between its two breakpoints, and
    its value is repeated that many times.  The union stays a pairwise
    np.union1d chain in input order: one np.unique over all the arrays
    returns the same points, but where the functions start at both 0.0 and
    -0.0 it can keep the other zero first, so bp[0] would change sign.

    It caches nothing: the tuple path, _columns, keeps the last tuple's
    refinement and calls this, through the module attribute, for any
    other tuple.
    """
    if not fs:
        raise LatticeMismatch("common_refinement", "need at least one step function")
    if not all(isinstance(f, StepFunction) for f in fs):
        raise LatticeMismatch("common_refinement", "all inputs must be StepFunctions")
    bp = fs[0].breakpoints
    for f in fs[1:]:
        bp = np.union1d(bp, f.breakpoints)
    vals = np.stack([np.repeat(f.values, np.diff(bp.searchsorted(f.breakpoints))) for f in fs])
    return bp, vals


def embed_step_to_grid(f, grid):
    """Point evaluations of a step function on a finite grid, as an RmElement.

    The embedding is a lattice homomorphism; when the grid refines the
    partition it is injective on the pieces the grid touches.
    """
    if not isinstance(f, StepFunction):
        raise LatticeMismatch("embed_step_to_grid", "first argument must be a StepFunction")
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    return RmElement(f.values_at(grid))
