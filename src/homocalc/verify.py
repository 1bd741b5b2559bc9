"""Brute-force oracles and property checks with replayable seeded inputs.

Ground truth here never routes through the family-scan engine: oracle_fc
applies closed forms pointwise, so engine/oracle agreement is evidence
rather than tautology.  Each check draws from a counter-based generator
(Philox) keyed by (seed, check tag); failures carry a digest of the exact
input bytes so a rerun with the same seed pinpoints the trial.  The engine
value at a column is a finite family's extremum over every member, or the
value of a witness member that attains an infinite family's extremum, so a
tolerance here measures how well a family represents its function, not
where an enumeration was cut short.

Every check draws by quantity: each random quantity of every trial
(widths, dimensions, vertex counts, sides, coordinates, columns, set
arrays, breakpoints, values) comes from one generator call, in the order
each docstring states; the number of calls does not grow with the trial
count.  A quantity of several arrays is one uniform draw cut into
consecutive row-major pieces (_draw); check_engine_vs_oracle,
check_rep_independence and check_continuous_agreement gather their
tuples' draw straight into one column stack, the same pieces side by side
(_draw_stack).

Those three keep their trials as one (n, columns) stack beside the trial
widths, from the draw to the failure records.  Each function lifts the
columns of all its trials, picked from the stack by one owner mask, in
one batched call (_per_trial), and the results are one flat array, trial
after trial.  One segmented maximum of |observed - expected|
over that array finds the failing trials; only for those is a trial's own
array cut out of the stack (_blocks), digested and recorded.  The lift
gives a column the same bits in any batch, so each trial's values, digest
and failure record are those of a lift of that trial alone.
check_interchange groups its trials by (set type, dimension, side), draws
one set per group and evaluates the group through the public map path:
one fc_sublinear or fc_superlinear call over the group's lift columns,
and one call of the same map at its point columns.  The group's lift is one
element: its first trial reads its coordinate through hom_eval of a
CoordinateHom, the others by one index into the element's coordinates,
and a failing trial's tuple is cut out of its group's lift columns at its
recorded start column.  check_sublattice_invariance lifts real step
tuples: one tuple of two StepFunctions per built-in, each trial a slot of
[0, 1] in it, so the step side runs the lattice's own refinement and the
grid side its embedding; it reads the step lift onto the grid by piece
index, and builds the same number of step functions at any trial count.

check_saddle builds one ordered two-sided saddle per dimension, with two
rows that differ in one column, so min-max and max-min are two different
reductions; each trial takes 6 columns of one family, and each family is
checked with a fixed number of calls over all its trials' columns at once.

Every check that compares numbers records its failures through one path,
_worst_coordinate_failures.  check_interchange gives it one coordinate
per trial, and check_saddle one gap per column of a trial and one for
its 32-tangent case, held against 0.  One table,
_CHECKS, names every check: the CLI's check command takes its names, _rng
its seed tags and default_suite its functions, which are read from the
module when called.
"""

import hashlib
import math
from functools import partial
from itertools import accumulate

import numpy as np

from . import lattice
from .convexsets import Ball, VPolytope
from .errors import SaddleGap
from .fcalc import (
    SADDLE_TOL,
    SaddleFamily,
    _lift_columns,
    fc_saddle,
    fc_semicontinuous,
    fc_sublinear,
    fc_superlinear,
    saddle_build,
    saddle_eval,
)
from .homog import (
    FiniteFamily,
    PHFunction,
    SublinearMap,
    SuperlinearMap,
    _tangents,
    angle_superlinear_family,
    builtin,
    circumscribed_polygon_map,
    disk_map,
)
from .lattice import CoordinateHom, RmElement, StepFunction, _finite, embed_step_to_grid, hom_eval

# Each check by its CLI name: the seed tag of its generator and the name of
# its function.  The function is read from the module when it is called, so
# a wrapper set on the module attribute sees every call.  negative-controls
# draws from the saddle check's generator, so its own tag is never read.
_CHECKS = {
    "engine-vs-oracle": (0x0E0A, "check_engine_vs_oracle"),
    "interchange": (0x1C4A, "check_interchange"),
    "rep-independence": (0x2B1D, "check_rep_independence"),
    "continuous-agreement": (0x3CA6, "check_continuous_agreement"),
    "sublattice-invariance": (0x4511, "check_sublattice_invariance"),
    "saddle": (0x5ADD, "check_saddle"),
    "negative-controls": (0x6AE6, "negative_controls"),
}


def _rng(seed, name):
    tag = _CHECKS[name][0]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), tag])))


def _check(name):
    """The function of the check called name."""
    return globals()[_CHECKS[name][1]]


def _digest(*arrays):
    sha = hashlib.sha1()
    for a in arrays:
        sha.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return sha.hexdigest()[:12]


class CheckFailure:
    def __init__(self, digest, observed, expected, tolerance):
        self.digest = digest
        self.observed = observed
        self.expected = expected
        self.tolerance = tolerance

    def to_json(self):
        return {
            "digest": self.digest,
            "observed": self.observed,
            "expected": self.expected,
            "tolerance": self.tolerance,
        }

    def __repr__(self):
        return f"CheckFailure({self.digest}, observed={self.observed!r}, expected={self.expected!r})"


class CheckReport:
    def __init__(self, name, cases, failures, seed):
        self.name = name
        self.cases = int(cases)
        self.failures = list(failures)
        self.seed = int(seed)

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": [f.to_json() for f in self.failures],
            "passed": self.passed,
            "seed": self.seed,
        }

    def __repr__(self):
        state = "passed" if self.passed else f"{len(self.failures)} failures"
        return f"CheckReport({self.name!r}, cases={self.cases}, {state})"


def oracle_fc(h, elements):
    """Closed-form lift: apply the oracle per coordinate / per piece.  Its
    values are checked finite as the constructors check them (_finite)."""
    if h.oracle is None:
        raise ValueError(f"{h.name} has no oracle")
    wrap, cols = _lift_columns("oracle_fc", "function", h.dim, elements)
    return _finite(wrap(np.asarray(h.oracle(cols.T), dtype=float)))


def _draw(rng, low, high, shapes):
    """Arrays of the given shapes from one uniform draw on [low, high): the
    draw is cut into consecutive pieces, one per shape, each filled in
    row-major order."""
    sizes = [math.prod(shape) for shape in shapes]
    flat = rng.uniform(low, high, size=sum(sizes))
    return [
        flat[end - size : end].reshape(shape)
        for shape, size, end in zip(shapes, sizes, accumulate(sizes))
    ]


def _draw_stack(rng, low, high, n, widths):
    """The (n, w) arrays that _draw gives for these widths, side by side in
    one (n, sum(widths)) stack: one uniform draw on [low, high), whose piece
    t is block t in row-major order, and one gather."""
    widths = np.asarray(widths, dtype=int)
    flat = rng.uniform(low, high, size=n * int(widths.sum()))
    owner = np.repeat(np.arange(widths.size), widths)
    starts = (np.cumsum(widths) - widths)[owner]
    # entry (r, c) of a block of `width` columns from column `start` on
    # sits at n * start + r * width + (c - start) of the draw
    at = (n - 1) * starts + np.arange(starts.size) + np.arange(n)[:, None] * widths[owner]
    return flat[at]


def _blocks(stack, widths):
    """The function of t that cuts trial t's (n, widths[t]) block out of the
    stack, trial after trial."""
    starts = np.cumsum(widths) - widths
    return lambda t: stack[:, starts[t] : starts[t] + widths[t]]


def _per_trial(lifts, stack, widths):
    """The columns of the stack lifted, trial t (widths[t] columns, trial
    after trial) by lifts[t % len(lifts)]: one batched call per lift over
    the columns of all its trials, picked by one owner mask.  Every lift
    takes the stack's dimension.

    Returns the lifted coordinates of every trial, trial after trial, as one
    flat array.
    """
    count = len(lifts)
    owner = np.repeat(np.arange(widths.size) % count, widths)
    flat = np.empty(stack.shape[1])
    for i, lift in enumerate(lifts[: widths.size]):
        mine = owner == i
        flat[mine] = lift([RmElement(row) for row in stack[:, mine]]).coords
    return flat


def _worst_coordinate_failures(inputs, got, want, widths, tol):
    """CheckFailures of the trials whose worst coordinate |got - want| is
    above tol, at that coordinate.

    got and want are flat, trial after trial, with the trial widths given;
    one segmented maximum finds the failing trials, and only for those is
    the coordinate located and inputs(t), the digest's arrays, taken.
    """
    err = np.abs(got - want)
    starts = np.cumsum(widths) - widths
    failures = []
    for t in np.flatnonzero(np.maximum.reduceat(err, starts) > tol).tolist():
        k = starts[t] + int(err[starts[t] : starts[t] + widths[t]].argmax())
        failures.append(CheckFailure(_digest(*inputs(t)), float(got[k]), float(want[k]), tol))
    return failures


def check_engine_vs_oracle(h="example-7.1", trials=500, tol=1e-6, seed=0, m=None):
    """Family-scan engine against the closed-form oracle on random tuples.

    Each trial draws a tuple of R^m elements uniform in [-5, 5]; m is drawn
    from 1..16 unless fixed.  A trial fails when any coordinate of the
    engine result strays from the oracle by more than tol.

    Draw order: every trial's width m (one integers call, none when m is
    fixed), then every trial's (n, m) block, trial after trial (one uniform
    call).  With m fixed this is one (trials, n, m) draw, which gives the
    numbers of one (n, m) draw per trial.
    """
    h = builtin(h) if isinstance(h, str) else h
    rng = _rng(seed, "engine-vs-oracle")
    widths = np.full(trials, int(m)) if m is not None else rng.integers(1, 17, size=trials)
    stack = _draw_stack(rng, -5.0, 5.0, h.dim, widths)
    engine = _per_trial([partial(fc_semicontinuous, h)], stack, widths)
    truth = _per_trial([partial(oracle_fc, h)], stack, widths)
    block = _blocks(stack, widths)
    failures = _worst_coordinate_failures(lambda t: (block(t),), engine, truth, widths, tol)
    return CheckReport(f"engine-vs-oracle[{h.name}]", trials, failures, seed)


def check_interchange(trials=1000, tol=1e-12, seed=0, fault_injection=False):
    """Coordinate homomorphisms pass through the lift of a single map.

    For random draws of a set, a tuple, a coordinate and a side (the
    sublinear or the superlinear map of the set): evaluating the lifted
    element at the coordinate equals evaluating the map at that
    coordinate's column.  fault_injection lifts by the map of the set
    scaled by 1+1e-3, which must be caught.

    Each trial has a dimension n in 1..4, a width m in 1..8, a set type
    (polytope or ball, each with probability 1/2), an (n, m) tuple in
    [-5, 5], a coordinate j in 1..m and a side.  The trials are grouped by
    (set type, dimension, side), balls first, groups in increasing key
    order and a group's trials in trial order; each group has one set: a
    polytope of 32..48 vertices in [-3, 3]^1 or of 1..6 in [-3, 3]^n for
    n > 1, or a ball with centre in [-2, 2]^n and radius in [0, 2].

    Draw order, one generator call each: the dimensions, the widths, the
    set types, the coordinates, the sides; then, group after group, the
    polytope groups' vertex counts, their (k, n) vertices, the ball
    groups' centres and their radii; last every group's (n, columns) lift
    columns, the trials' tuples side by side.

    Each group makes one fc_sublinear or fc_superlinear call over its lift
    columns and one call of the same map at its trials' picked columns.
    An R^1 polytope is planned at its map's second call (its default grid
    has 2 rows), so there the point side takes the pruned support while
    the lift took the all-vertex fold.  The group's lift is one element,
    and coordinate j of a trial's lift is coordinate offset + j of it,
    where offset counts the group's columns before the trial's.  The
    group's first trial reads it by hom_eval(CoordinateHom(offset + j)),
    the others by one index into the element's coordinates, which gives
    the same float.
    """
    rng = _rng(seed, "interchange")
    n = rng.integers(1, 5, size=trials)
    m = rng.integers(1, 9, size=trials)
    polytope = rng.random(trials) < 0.5
    j = rng.integers(1, m + 1)
    superlinear = rng.random(trials) < 0.5
    # (set type, n, side) as one number, in the same order
    code = (polytope * 4 + n - 1) * 2 + superlinear
    groups = [np.flatnonzero(code == g) for g in np.unique(code)]
    firsts = [g[0] for g in groups]
    dims, poly, sides = n[firsts], polytope[firsts], superlinear[firsts]
    # an R^1 polytope of 32 or more vertices is planned from its second call
    counts = rng.integers(np.where(dims[poly] == 1, 32, 1), np.where(dims[poly] == 1, 49, 7))
    vertices = iter(_draw(rng, -3.0, 3.0, list(zip(counts.tolist(), dims[poly].tolist()))))
    centers = iter(_draw(rng, -2.0, 2.0, [(d,) for d in dims[~poly].tolist()]))
    radii = iter(rng.uniform(0.0, 2.0, size=len(groups) - len(counts)).tolist())
    columns = _draw(rng, -5.0, 5.0, [(d, int(m[g].sum())) for d, g in zip(dims.tolist(), groups)])
    lhs, point = np.empty(trials), np.empty(trials)
    # each trial's group and its first column in the group's lift columns
    group, start = np.empty(trials, dtype=int), np.empty(trials, dtype=int)
    for g, (members, is_poly, side, cols) in enumerate(zip(groups, poly.tolist(), sides.tolist(), columns)):
        kind, data = (VPolytope, (next(vertices),)) if is_poly else (Ball, (next(centers), next(radii)))
        Map, lift = (SuperlinearMap, fc_superlinear) if side else (SublinearMap, fc_sublinear)
        f = Map(kind(*data))
        lift_map = Map(kind(*(a * (1.0 + 1e-3) for a in data))) if fault_injection else f
        lifted = lift(lift_map, [RmElement(row) for row in cols])
        widths = m[members]
        starts = np.cumsum(widths) - widths
        # coordinate j of a trial's lift, 1-based in the group's lift; the
        # group's first trial reads it through the coordinate homomorphism
        picks = starts + j[members]
        lhs[members] = lifted.coords[picks - 1]
        lhs[members[0]] = hom_eval(CoordinateHom(int(picks[0])), lifted)
        point[members] = f(cols[:, picks - 1])
        group[members], start[members] = g, starts
    failures = _worst_coordinate_failures(
        lambda t: (columns[group[t]][:, start[t] : start[t] + m[t]], [j[t]]),
        lhs,
        point,
        np.ones(trials, dtype=int),
        tol,
    )
    return CheckReport("interchange", trials, failures, seed)


def _norm_via(maps):
    return PHFunction("euclidean-rep", 2, inf_family=FiniteFamily(maps), oracle=None)


def check_rep_independence(trials=100, tol=1e-3, seed=0, angles=720):
    """Two inf-family presentations of the planar euclidean norm must agree.

    The disk singleton is exact; the circumscribed regular polygon
    overestimates by sec(pi/angles) - 1 relative, so coarse grids (say 8
    angles) are expected to fail, documenting resolution dependence.

    Draw order, one generator call each: every trial's width in 1..8, then
    every trial's (2, width) tuple in [-5, 5], trial after trial.
    """
    rng = _rng(seed, "rep-independence")
    disk_rep = _norm_via([disk_map()])
    poly_rep = _norm_via([circumscribed_polygon_map(angles)])
    both_rep = _norm_via([disk_map(), circumscribed_polygon_map(angles)])
    widths = rng.integers(1, 9, size=trials)
    stack = _draw_stack(rng, -5.0, 5.0, 2, widths)
    exact = _per_trial([partial(fc_semicontinuous, disk_rep)], stack, widths)
    other = _per_trial(
        [partial(fc_semicontinuous, poly_rep), partial(fc_semicontinuous, both_rep)], stack, widths
    )
    block = _blocks(stack, widths)
    failures = _worst_coordinate_failures(lambda t: (block(t), [t]), other, exact, widths, tol)
    return CheckReport("rep-independence", trials, failures, seed)


def check_continuous_agreement(trials=100, tol=1e-6, seed=0):
    """Inf-side and sup-side lifts agree for the continuous built-ins.

    abs-sum and max-coord carry exact finite families on both sides;
    square-mean's sup side is the tangent at each column's own direction,
    which is the norm up to rounding.  All three are held to tol.  Trial t
    lifts by the built-in t mod 3 of that list; all three are on R^2.

    Draw order, one generator call each: every trial's width in 1..8, then
    every trial's (2, width) tuple in [-5, 5], trial after trial.
    """
    rng = _rng(seed, "continuous-agreement")
    hs = [builtin("abs-sum"), builtin("max-coord"), builtin("square-mean")]
    widths = rng.integers(1, 9, size=trials)
    stack = _draw_stack(rng, -5.0, 5.0, 2, widths)
    lo = _per_trial([partial(fc_semicontinuous, h, side="sup") for h in hs], stack, widths)
    hi = _per_trial([partial(fc_semicontinuous, h, side="inf") for h in hs], stack, widths)
    block = _blocks(stack, widths)
    failures = _worst_coordinate_failures(lambda t: (block(t), [t]), lo, hi, widths, tol)
    return CheckReport("continuous-agreement", trials, failures, seed)


def check_sublattice_invariance(trials=200, seed=0):
    """Lift-then-embed equals embed-then-lift, bitwise.

    Each built-in of the list lifts one tuple of two StepFunctions, and
    trial t is slot s = t // 5 of built-in t mod 5: the sub-interval
    [s/k, (s+1)/k] of that built-in's tuple, where k is its trial count.
    Every slot edge is a breakpoint of both functions, and each function
    has 0 to 4 inner breakpoints in each slot, at (s + u)/k with u uniform
    in [0.05, 0.95], and one value in [-5, 5] per piece; so no piece spans
    two slots and the trials are independent.  One np.union1d per
    function merges its slot edges and inner breakpoints.

    The step side is fc_semicontinuous of the tuple, through the lattice's
    own refinement.  Its breakpoints must be, bit for bit, the np.union1d
    of the two functions' breakpoints; where they are not, the built-in
    records one failure digesting both arrays, with the two piece counts
    as observed and expected.  Its grid is each piece of that lift at its
    left end and midpoint, then 1; the grid side lifts embed_step_to_grid
    of the tuple's functions there.  Both go through the batched evaluation,
    whose per-column results do not depend on the batch, so equality is
    exact, not approximate.  The step lift is read onto the grid by piece
    index, grid points 2j and 2j + 1 reading piece j and 1 the last piece,
    never by evaluating it: point evaluation is a lattice homomorphism too,
    so a fault there would move both sides alike.  A trial's grid points
    are those of its slot.

    Draw order, one generator call each: every trial's count of inner
    breakpoints of each function, (trials, 2) in row-major order; then
    those inner breakpoints' u, in the same order; then every function's
    values, piece after piece, function after function and built-in after
    built-in.  A built-in with no trial draws and lifts nothing.  The
    failures are recorded built-in after built-in: its breakpoint failure,
    if any, then its trials' in trial order, each digesting the trial's
    grid points and its functions' values on its slot.
    """
    rng = _rng(seed, "sublattice-invariance")
    names = ["example-7.1", "example-7.2", "square-mean", "abs-sum", "max-coord"]
    hs = [builtin(name) for name in names[:trials]]
    # every built-in here is on R^2: a tuple of two functions
    count, n = len(names), 2
    slots = np.array([len(range(b, trials, count)) for b in range(len(hs))], dtype=int)
    edges = [np.arange(k + 1) / k for k in slots]
    counts = rng.integers(0, 5, size=(trials, n))
    trial, side = np.divmod(np.repeat(np.arange(counts.size), counts.ravel()), n)
    points = (trial // count + rng.uniform(0.05, 0.95, size=trial.size)) / slots[trial % count]
    owner = trial % count * n + side
    bps = [np.union1d(edges[f // n], points[owner == f]) for f in range(len(hs) * n)]
    values = _draw(rng, -5.0, 5.0, [(bp.size - 1,) for bp in bps])
    steps = [StepFunction(bp, v) for bp, v in zip(bps, values)]
    failures = []
    for b, h in enumerate(hs):
        fs = steps[b * n : (b + 1) * n]
        lifted = fc_semicontinuous(h, fs)
        bp = lifted.breakpoints
        union = np.union1d(fs[0].breakpoints, fs[1].breakpoints)
        if bp.tobytes() != union.tobytes():
            failures.append(CheckFailure(_digest(bp, union), lifted.pieces, union.size - 1, 0.0))
        grid = np.append(np.stack([bp[:-1], (bp[:-1] + bp[1:]) / 2.0], axis=1).ravel(), 1.0)
        on_grid = fc_semicontinuous(h, [embed_step_to_grid(f, grid) for f in fs]).coords
        # grid points 2j and 2j + 1 read piece j of the step lift, and 1 the last
        on_steps = np.append(np.repeat(lifted.values, 2), lifted.values[-1])
        widths = 2 * np.diff(bp.searchsorted(edges[b]))
        widths[-1] += 1
        # a trial's grid points, and each function's values, on its slot
        arrays = [grid] + [f.values for f in fs]
        cuts = [np.append(0, np.cumsum(widths))] + [f.breakpoints.searchsorted(edges[b]) for f in fs]
        failures += _worst_coordinate_failures(
            lambda s: [a[c[s] : c[s + 1]] for a, c in zip(arrays, cuts)], on_grid, on_steps, widths, 0.0
        )
    return CheckReport("sublattice-invariance", trials, failures, seed)


def _lattice_path(op, lift, maps, fs):
    """op (lattice.join or lattice.meet) folded over the lifts of fs by maps."""
    acc = lift(maps[0], fs)
    for m in maps[1:]:
        acc = op(acc, lift(m, fs))
    return acc


def _saddle_family(rng, n):
    """(core vertices, the two radii, phis, psis) of the ordered two-sided
    family in R^n that check_saddle draws; its docstring gives the shapes."""
    k = int(rng.integers(n + 1, 7))
    verts = rng.uniform(-3.0, 3.0, size=(k, n))
    grow, shrink = rng.uniform([1.05, 0.1], [1.5, 0.4])
    centroid = verts.mean(axis=0)
    radius = grow * float(np.linalg.norm(verts - centroid, axis=1).max())
    radii = np.array([radius, shrink * radius])
    phis = [
        SublinearMap(VPolytope(verts), label="core"),
        SublinearMap(Ball(centroid, radii[0]), label="enclosing-ball"),
    ]
    psis = [SuperlinearMap(VPolytope([v]), label=f"vertex{i}") for i, v in enumerate(verts)]
    psis.append(SuperlinearMap(Ball(verts[0], radii[1]), label="vertex-ball"))
    return verts, radii, phis, psis


def _ordering_gap(S, cols):
    """|min-max - max-min| of the saddle S at each of the columns cols."""
    infsup, supinf = saddle_eval(S, cols.T)
    return np.abs(infsup - supinf)


def check_saddle(trials=20, tol=1e-9, seed=0, corrupt=False):
    """Finite saddles: zero min-max/max-min gap and agreement with the lift.

    Part one checks one ordered two-sided family per dimension n = 2, 3, 4
    around a core polytope C of k = n+1..6 points uniform in [-3, 3]^n,
    with centroid c:
      phis: C, and the ball at c whose radius R is the largest |v - c| over
        the core's points v times U(1.05, 1.5);
      psis: the core's points as singletons, and the ball of radius
        U(0.1, 0.4) R centred at the first core point.
    Every phi holds C and every psi meets C, so the pair is ordered, its
    saddle has P = 2 rows and Q = k + 1 columns, and min phi, max psi,
    min-max and max-min all equal the support of C.  The rows differ in
    the last column, where the two balls' coefficient is a point between c
    and the first core point, so min-max and max-min are two different
    reductions.  Every Wolfe problem of the build ends at corral size 1.

    Trial t takes 6 data columns in [-5, 5]^n from the family of dimension
    (2, 3, 4)[t % 3]; a dimension with no trials draws and builds nothing.
    Each family is checked over all its trials' columns at once: one
    saddle_build, one saddle_eval, one fc_saddle, one fc_sublinear of C,
    the lattice join of the psis' fc_superlinear lifts and the lattice meet
    of the phis' fc_sublinear lifts.  A trial's gap is the largest, over
    its columns, of |min-max - max-min| and of each of fc_saddle, the join
    and the meet's distance from C's support.

    Part two checks the euclidean norm against 32 tangent maps: the
    largest difference of fc_saddle from the same 32-angle sup-family lift
    at 8 columns is one more case's gap.  Each gap is held to
    max(tol, 1e-12): a tol below 1e-12 acts as 1e-12.

    Draw order, one generator call each: for each n of (2, 3, 4) that has
    trials, in that order, the vertex count k, the (k, n) core, the two
    radius factors and the (n, 6 c) columns of its c trials, trial after
    trial; then part two's (2, 8) columns.

    corrupt=True adds two controls as one more case.  First the first
    family's saddle with its ball row rolled one column along: each row
    still holds every core point, so min-max is unchanged, but every column
    now pairs two different points, so max-min falls below it wherever one
    point is the unique maximiser.  Only |min-max - max-min| shows this
    fault; its worst column at the family's columns is recorded like a
    trial's.  (No single changed coefficient can split the two orderings
    of these saddles: the rows share the k vertex columns.)  Then one
    coefficient row of a 2 x 2 tangent saddle reversed, which must surface
    as a recorded SaddleGap failure.
    """
    rng = _rng(seed, "saddle")
    width = 6
    got = np.empty(trials * width)
    inputs = [None] * trials
    control = None
    for n in (2, 3, 4):
        members = np.arange(n - 2, trials, 3)
        if not members.size:
            continue
        verts, radii, phis, psis = _saddle_family(rng, n)
        cols = rng.uniform(-5.0, 5.0, size=(n, width * members.size))
        S = saddle_build(phis, psis)
        fs = [RmElement(row) for row in cols]
        want = fc_sublinear(phis[0], fs).coords
        paths = [
            fc_saddle(S, fs),
            _lattice_path(lattice.join, fc_superlinear, psis, fs),
            _lattice_path(lattice.meet, fc_sublinear, phis, fs),
        ]
        gaps = np.max([_ordering_gap(S, cols)] + [np.abs(p.coords - want) for p in paths], axis=0)
        got[(members[:, None] * width + np.arange(width)).ravel()] = gaps
        for t, block in zip(members.tolist(), np.split(cols, members.size, axis=1)):
            inputs[t] = (verts, radii, block)
        if corrupt and control is None:
            control = np.array(S.coeffs), cols
    angle_fam = angle_superlinear_family(32)
    S32 = saddle_build([disk_map()], list(angle_fam.maps))
    data = rng.uniform(-5.0, 5.0, size=(2, 8))
    fs = [RmElement(row) for row in data]
    h32 = PHFunction("angle-32", 2, sup_family=angle_fam)
    lifted = fc_semicontinuous(h32, fs, side="sup").coords
    got = np.append(got, np.abs(fc_saddle(S32, fs).coords - lifted).max())
    inputs.append((data,))
    cases = trials + 1
    failures = _worst_coordinate_failures(
        lambda t: inputs[t], got, np.zeros(got.size), np.append(np.full(trials, width), 1), max(tol, 1e-12)
    )

    if corrupt:
        failures += _corrupted_saddles(control, _tangents(32)[[0, 8]], tol)[0]
    return CheckReport("saddle", cases + corrupt, failures, seed)


def _corrupted_saddles(control, pair, tol):
    """The failure records of check_saddle's two corrupted controls, and
    whether both faults were caught.

    control is (coefficients, columns) of a family saddle, or None: its
    second row is rolled one column along, in place, and its worst
    |min-max - max-min| over the columns is recorded when above
    max(tol, 1e-12).  Then the 2 x 2 saddle whose rows are the two tangent
    directions of pair (the callers pass tangents 0 and 8 of 32, at 0 and
    90 degrees), in both orders, must raise SaddleGap in fc_saddle: its
    message is recorded, or "no SaddleGap raised".  Caught means the
    family's gap was recorded and SaddleGap was raised.
    """
    failures = []
    if control is not None:
        coeffs, cols = control
        coeffs[1] = np.roll(coeffs[1], 1, axis=0)
        gaps = _ordering_gap(SaddleFamily(coeffs), cols)
        failures += _worst_coordinate_failures(
            lambda _: control, gaps, np.zeros(gaps.size), [gaps.size], max(tol, 1e-12)
        )
    caught = bool(failures)
    bad = np.stack([pair, pair[::-1]])
    # the rows now disagree about which tangent answers which column, a
    # genuine non-saddle: min-max gives max(x0, x1), max-min gives min.
    try:
        fc_saddle(SaddleFamily(bad), [RmElement([2.0, 0.0]), RmElement([-1.0, 3.0])])
    except SaddleGap as exc:
        return failures + [CheckFailure(_digest(bad), str(exc), "no gap", SADDLE_TOL)], caught
    return failures + [CheckFailure(_digest(bad), "no SaddleGap raised", "SaddleGap", SADDLE_TOL)], False


def negative_controls(seed=0):
    """The suite must be able to fail: injected faults must be caught.

    The fault-injected support is check_interchange's 8-trial run.  The
    corrupted saddles are check_saddle's controls (_corrupted_saddles) on
    the first family its run at this seed draws, in R^2 with 6 columns,
    and on tangents 0 and 8 of 32; they count as caught only when both
    faults are.  Only that family's saddle is built, and no tangent map.
    """
    rng = _rng(seed, "saddle")
    phis, psis = _saddle_family(rng, 2)[2:]
    cols = rng.uniform(-5.0, 5.0, size=(2, 6))
    control = np.array(saddle_build(phis, psis).coeffs), cols
    caught = {
        "fault-injected support": not check_interchange(trials=8, seed=seed, fault_injection=True).passed,
        "corrupted saddle coefficient": _corrupted_saddles(control, _tangents(32)[[0, 8]], 1e-9)[1],
    }
    failures = [
        CheckFailure(
            hashlib.sha1(label.encode()).hexdigest()[:12],
            "injected fault went undetected",
            "at least one recorded failure",
            0.0,
        )
        for label, ok in caught.items()
        if not ok
    ]
    return CheckReport("negative-controls", len(caught), failures, seed)


def default_suite(seed=0):
    """Every check at default settings, engine-vs-oracle once each on
    example-7.1, example-7.2 and square-mean; reports ordered by name."""
    runs = {name: [{}] for name in _CHECKS}
    runs["engine-vs-oracle"] = [{"h": h} for h in ("example-7.1", "example-7.2", "square-mean")]
    reports = [_check(name)(seed=seed, **kwargs) for name, each in runs.items() for kwargs in each]
    return sorted(reports, key=lambda r: r.name)
