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

Each value is checked once.  _columns checks a new refinement's
breakpoints as StepFunction does, and wraps values back through the
private constructors RmElement._of and StepFunction._of, which check only
their count: a lift's values were checked finite where they were
computed, and join, meet, + and oracle values are checked by _finite.  A
step result shares the refinement's read-only breakpoints.

Both lattices' elements follow one protocol, written once on their base
_Element: each class names its arrays in _arrays (("coords",) for
RmElement, ("breakpoints", "values") for StepFunction), equality and the
hash read them, and _finite, the last check of both public constructors,
reads the last one.
"""

import operator
from functools import partial

import numpy as np

from .convexsets import _whole
from .errors import DimensionMismatch, EmptyFamily, IndexOutOfRange, LatticeMismatch


def _frozen(a):
    """a as a flat, read-only float copy."""
    a = np.array(a, dtype=float, copy=True).reshape(-1)
    a.flags.writeable = False
    return a


def _check_dim(m):
    """RmElement's check of its dimension m."""
    if m == 0:
        raise ValueError("coords must be nonempty")


def _check_pieces(b, pieces):
    """StepFunction's first check: k+1 breakpoints b for k values."""
    if b.size < 2 or pieces != b.size - 1:
        raise ValueError("need k+1 breakpoints and k values")


def _check_breakpoints(b, pieces):
    """StepFunction's checks of its breakpoints b for `pieces` values, in
    its order; its values' own check, finiteness, comes last."""
    _check_pieces(b, pieces)
    if b[0] != 0.0 or b[-1] != 1.0:
        raise ValueError("breakpoints must start at 0 and end at 1")
    if (b[1:] - b[:-1] <= 0).any():
        raise ValueError("breakpoints must be strictly increasing")
    if not np.isfinite(b).all():
        raise ValueError(StepFunction._not_finite)


class _Element:
    """The protocol RmElement and StepFunction share.  + and <= read both
    operands through _columns, which refuses a mix of lattices or of
    dimensions.  Equality and hashing read the arrays named in the class
    tuple _arrays: elements are equal when the other is of the element's
    own class and every array is equal (np.array_equal, so 0.0 == -0.0),
    and each array is hashed with its zeros made +0.0, so equal elements
    hash equal.  _finite checks the last array named."""

    def __eq__(self, other):
        same = isinstance(other, type(self))
        return same and all(np.array_equal(getattr(self, a), getattr(other, a)) for a in self._arrays)

    def __hash__(self):
        return hash(tuple((getattr(self, a) + 0.0).tobytes() for a in self._arrays))

    def __add__(self, other):
        return _combine(self, other, "add", np.add)

    def __le__(self, other):
        _, (f, g) = _columns("<=", (self, other))
        return bool(np.all(f <= g))


class RmElement(_Element):
    """A vector in R^m."""

    _arrays = ("coords",)
    _not_finite = "coords must be finite"

    def __init__(self, coords):
        self.coords = _frozen(coords)
        _check_dim(self.coords.size)
        _finite(self)

    @classmethod
    def _of(cls, coords):
        """The element of coords whose finiteness was checked where they were
        computed, as a read-only copy: only their count is checked."""
        f = cls.__new__(cls)
        f.coords = _frozen(coords)
        _check_dim(f.m)
        return f

    @property
    def m(self):
        return self.coords.size

    def __rmul__(self, scalar):
        return RmElement(float(scalar) * self.coords)

    def __repr__(self):
        return f"RmElement({self.coords.tolist()})"


class StepFunction(_Element):
    """Piecewise-constant function on [0,1].

    breakpoints: 0 = t_0 < t_1 < ... < t_k = 1 (length k+1)
    values: one per piece (length k), piece i covers [t_i, t_{i+1}).
    """

    _arrays = ("breakpoints", "values")
    _not_finite = "breakpoints and values must be finite"

    def __init__(self, breakpoints, values):
        self.breakpoints, self.values = _frozen(breakpoints), _frozen(values)
        _check_breakpoints(self.breakpoints, self.values.size)
        _finite(self)

    @classmethod
    def _of(cls, bp, values):
        """The step function of checked read-only breakpoints bp, shared, and
        of values whose finiteness was checked where they were computed, as a
        read-only copy: only their count is checked."""
        f = cls.__new__(cls)
        f.breakpoints = bp
        f.values = _frozen(values)
        _check_pieces(bp, f.pieces)
        return f

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

    def __rmul__(self, scalar):
        return StepFunction(self.breakpoints, float(scalar) * self.values)

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
    (step functions), and the function that wraps one value per column,
    already checked finite, back into the tuple's lattice (RmElement._of,
    StepFunction._of on the shared breakpoints).  Every tuple operation
    reads its operands here: an empty tuple raises EmptyFamily, R^m
    elements of different dimensions DimensionMismatch, and any other mix
    LatticeMismatch, each naming op.  A new refinement is checked once,
    before it is kept, as StepFunction checks its breakpoints and with its
    messages, so elements whose breakpoints were reassigned to ones the
    constructor refuses raise ValueError here.

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
        return RmElement._of, np.array([f.coords for f in elements])
    if all(isinstance(f, StepFunction) for f in elements):
        key = tuple(a for f in elements for a in (f.breakpoints, f.values))
        last, bp, cols = _refined
        if len(key) != len(last) or not all(map(operator.is_, key, last)):
            bp, cols = common_refinement(elements)
            _check_breakpoints(bp, cols.shape[1])
            bp.flags.writeable = False
            cols.flags.writeable = False
            _refined = key, bp, cols
        return partial(StepFunction._of, bp), cols
    raise LatticeMismatch(op, "elements must be all RmElements or all StepFunctions")


def _finite(f):
    """f, refused with its constructor's ValueError where a value, the
    last array its class names in _arrays, is not finite: the constructors'
    last check, and the check of values wrapped by _of that nothing has
    checked."""
    if not np.isfinite(getattr(f, f._arrays[-1])).all():
        raise ValueError(f._not_finite)
    return f


def _combine(f, g, op, ufunc):
    """ufunc of two elements, column by column, checked by _finite, so an
    overflowing + raises ValueError."""
    wrap, (a, b) = _columns(op, (f, g))
    return _finite(wrap(ufunc(a, b)))


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
