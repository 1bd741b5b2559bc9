"""Brute-force oracles and property checks with replayable seeded inputs.

Ground truth here never routes through the family-scan engine: oracle_fc
applies closed forms pointwise, so engine/oracle agreement is evidence
rather than tautology.  Each check draws from a counter-based generator
(Philox) keyed by (seed, check tag); failures carry a digest of the exact
input bytes so a rerun with the same seed pinpoints the trial.  The engine
value at a column is its family's extremum over the whole budget, or at a
certified stop, so a tolerance here measures how well a family represents
its function, not where a scan was cut short.

The lift-heavy checks draw all their trials first, then lift the columns of
every trial in one batched call per function and split the result back at
the trial widths.  The lift gives a column the same bits in any batch, so
each trial's values, digest and failure record are those of a lift of that
trial alone.
"""

import hashlib
from functools import partial

import numpy as np

from . import lattice
from .convexsets import Ball, VPolytope
from .errors import SaddleGap
from .fcalc import (
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
    _default_density,
    angle_superlinear_family,
    builtin,
    circumscribed_polygon_map,
    disk_map,
    sphere_grid,
)
from .lattice import CoordinateHom, RmElement, StepFunction, common_refinement, hom_eval

_TAGS = {
    "engine-vs-oracle": 0x0E0A,
    "interchange": 0x1C4A,
    "rep-independence": 0x2B1D,
    "continuous-agreement": 0x3CA6,
    "sublattice-invariance": 0x4511,
    "saddle": 0x5ADD,
    "negative-controls": 0x6AE6,
}


def _rng(seed, tag):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), _TAGS[tag]])))


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
    """Closed-form lift: apply the oracle per coordinate / per piece."""
    if h.oracle is None:
        raise ValueError(f"{h.name} has no oracle")
    wrap, cols = _lift_columns("oracle_fc", "function", h.dim, elements)
    return wrap(np.asarray(h.oracle(cols.T), dtype=float))


def _resolve(h):
    return builtin(h) if isinstance(h, str) else h


def _per_trial(lift, blocks):
    """lift applied once to the columns of all (n, m_t) blocks, split per block."""
    if not blocks:
        return []
    whole = lift([RmElement(row) for row in np.hstack(blocks)])
    return np.split(whole.coords, np.cumsum([b.shape[1] for b in blocks[:-1]], dtype=int))


def check_engine_vs_oracle(h="example-7.1", trials=500, tol=1e-6, seed=0, m=None):
    """Family-scan engine against the closed-form oracle on random tuples.

    Each trial draws a tuple of R^m elements uniform in [-5, 5]; m is drawn
    from 1..16 unless fixed.  A trial fails when any coordinate of the
    engine result strays from the oracle by more than tol.
    """
    h = _resolve(h)
    rng = _rng(seed, "engine-vs-oracle")
    data = []
    for _ in range(trials):
        mt = int(m) if m is not None else int(rng.integers(1, 17))
        data.append(rng.uniform(-5.0, 5.0, size=(h.dim, mt)))
    engine = _per_trial(partial(fc_semicontinuous, h), data)
    truth = _per_trial(partial(oracle_fc, h), data)
    failures = []
    for d, got, want in zip(data, engine, truth):
        err = np.abs(got - want)
        k = int(err.argmax())
        if err[k] > tol:
            failures.append(CheckFailure(_digest(d), float(got[k]), float(want[k]), tol))
    return CheckReport(f"engine-vs-oracle[{h.name}]", trials, failures, seed)


def _random_set(rng, n):
    if rng.random() < 0.5:
        k = int(rng.integers(1, 7))
        return VPolytope(rng.uniform(-3.0, 3.0, size=(k, n)))
    return Ball(rng.uniform(-2.0, 2.0, size=n), float(rng.uniform(0.0, 2.0)))


def _scaled_set(s, factor):
    if isinstance(s, VPolytope):
        return VPolytope(s.vertices * factor)
    return Ball(s.center * factor, s.radius * factor)


# (map class, its lift), indexed by whether a trial draws the superlinear side
_MAP_LIFTS = ((SublinearMap, fc_sublinear), (SuperlinearMap, fc_superlinear))


def check_interchange(trials=1000, tol=1e-12, seed=0, fault_injection=False):
    """Coordinate homomorphisms pass through the lift of a single map.

    For random (set, tuple, coordinate) triples: evaluating the lifted
    element at a coordinate equals evaluating the map at that coordinate's
    column.  fault_injection evaluates the lattice side with support data
    scaled by 1+1e-3, which must be caught.
    """
    rng = _rng(seed, "interchange")
    failures = []
    for _ in range(trials):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        s = _random_set(rng, n)
        data = rng.uniform(-5.0, 5.0, size=(n, m))
        fs = [RmElement(row) for row in data]
        j = int(rng.integers(1, m + 1))
        hom = CoordinateHom(j)
        cls, lift = _MAP_LIFTS[rng.random() < 0.5]
        s_fc = _scaled_set(s, 1.0 + 1e-3) if fault_injection else s
        lhs = hom_eval(hom, lift(cls(s_fc), fs))
        point = cls(s)(data[:, j - 1])
        if abs(lhs - point) > tol:
            failures.append(CheckFailure(_digest(data, [j]), float(lhs), float(point), tol))
    return CheckReport("interchange", trials, failures, seed)


def _norm_via(maps):
    return PHFunction("euclidean-rep", 2, inf_family=FiniteFamily(maps), oracle=None)


def check_rep_independence(trials=100, tol=1e-3, seed=0, angles=720):
    """Two inf-family presentations of the planar euclidean norm must agree.

    The disk singleton is exact; the circumscribed regular polygon
    overestimates by sec(pi/angles) - 1 relative, so coarse grids (say 8
    angles) are expected to fail, documenting resolution dependence.
    """
    rng = _rng(seed, "rep-independence")
    disk_rep = _norm_via([disk_map()])
    poly_rep = _norm_via([circumscribed_polygon_map(angles)])
    both_rep = _norm_via([disk_map(), circumscribed_polygon_map(angles)])
    data = [rng.uniform(-5.0, 5.0, size=(2, int(rng.integers(1, 9)))) for _ in range(trials)]
    exact = _per_trial(partial(fc_semicontinuous, disk_rep), data)
    other = [None] * trials
    other[0::2] = _per_trial(partial(fc_semicontinuous, poly_rep), data[0::2])
    other[1::2] = _per_trial(partial(fc_semicontinuous, both_rep), data[1::2])
    failures = []
    for t, (d, a, b) in enumerate(zip(data, exact, other)):
        err = np.abs(a - b)
        k = int(err.argmax())
        if err[k] > tol:
            failures.append(CheckFailure(_digest(d, [t]), float(b[k]), float(a[k]), tol))
    return CheckReport("rep-independence", trials, failures, seed)


def check_continuous_agreement(trials=100, tol=1e-6, seed=0):
    """Inf-side and sup-side lifts agree for the continuous built-ins.

    abs-sum and max-coord carry exact finite families on both sides and are
    held to tol; square-mean's sup side is the extremum over a grid of 512
    tangent angles, off the norm by up to |x| (1 - cos(pi/512)), below
    1.4e-4 on [-5,5]^2, so it is held to 2e-3 rather than to tol.
    """
    rng = _rng(seed, "continuous-agreement")
    subjects = [
        (builtin("abs-sum"), tol),
        (builtin("max-coord"), tol),
        (builtin("square-mean"), 2e-3),
    ]
    count = len(subjects)
    data = []
    for t in range(trials):
        m = int(rng.integers(1, 9))
        data.append(rng.uniform(-5.0, 5.0, size=(subjects[t % count][0].dim, m)))
    lo, hi = [None] * trials, [None] * trials
    for i, (h, _) in enumerate(subjects):
        lo[i::count] = _per_trial(partial(fc_semicontinuous, h, side="sup"), data[i::count])
        hi[i::count] = _per_trial(partial(fc_semicontinuous, h, side="inf"), data[i::count])
    failures = []
    for t, (d, a, b) in enumerate(zip(data, lo, hi)):
        bound = subjects[t % count][1]
        err = np.abs(b - a)
        k = int(err.argmax())
        if err[k] > bound:
            failures.append(CheckFailure(_digest(d, [t]), float(a[k]), float(b[k]), bound))
    return CheckReport("continuous-agreement", trials, failures, seed)


def _random_step(rng):
    inner = np.unique(rng.uniform(0.05, 0.95, size=int(rng.integers(0, 5))))
    bp = np.concatenate(([0.0], inner, [1.0]))
    return StepFunction(bp, rng.uniform(-5.0, 5.0, size=bp.size - 1))


def check_sublattice_invariance(trials=200, seed=0):
    """Lift-then-embed equals embed-then-lift, bitwise.

    Random step tuples with independent partitions; the grid samples every
    piece of the common refinement at its left endpoint and midpoint.  The
    step side lifts the refinement's columns (what a lift of the step tuple
    does), the grid side the embedded columns; both go through the batched
    evaluation, whose per-column results do not depend on the batch, so
    equality is exact, not approximate.
    """
    rng = _rng(seed, "sublattice-invariance")
    names = ["example-7.1", "example-7.2", "square-mean", "abs-sum", "max-coord"]
    hs = [builtin(name) for name in names]
    count = len(hs)
    tuples = [[_random_step(rng) for _ in range(hs[t % count].dim)] for t in range(trials)]
    refined = [common_refinement(fs) for fs in tuples]
    grids = [
        np.sort(np.concatenate([bp[:-1], (bp[:-1] + bp[1:]) / 2.0, [1.0]])) for bp, _ in refined
    ]
    embedded = [
        np.vstack([lattice.embed_step_to_grid(f, grid).coords for f in fs])
        for fs, grid in zip(tuples, grids)
    ]
    on_steps, on_grid = [None] * trials, [None] * trials
    for i, h in enumerate(hs):
        lift = partial(fc_semicontinuous, h)
        on_steps[i::count] = _per_trial(lift, [vals for _, vals in refined[i::count]])
        on_grid[i::count] = _per_trial(lift, embedded[i::count])
    failures = []
    for fs, (bp, _), grid, vals, right in zip(tuples, refined, grids, on_steps, on_grid):
        left = lattice.embed_step_to_grid(StepFunction(bp, vals), grid).coords
        if not np.array_equal(left, right):
            worst = int(np.abs(left - right).argmax())
            digest = _digest(grid, *[f.values for f in fs])
            failures.append(CheckFailure(digest, float(right[worst]), float(left[worst]), 0.0))
    return CheckReport("sublattice-invariance", trials, failures, seed)


def _join_path(psis, fs):
    acc = fc_superlinear(psis[0], fs)
    for q in psis[1:]:
        acc = lattice.join(acc, fc_superlinear(q, fs))
    return acc


def check_saddle(trials=20, tol=1e-9, seed=0, corrupt=False):
    """Finite saddles: zero min-max/max-min gap and agreement with the lift.

    Part one builds exact-by-construction saddles from a random polytope
    support (one sublinear map) against its vertex singletons (superlinear
    maps):
    every coefficient is forced to a vertex, both orderings collapse to the
    support itself, and three paths must meet: fc_saddle, fc_sublinear of
    the polytope map, and the lattice join of the per-vertex superlinear
    lifts.  Part two does the same for the euclidean norm against 32
    tangent maps, comparing fc_saddle to the same 32-angle sup-family lift.
    corrupt=True reverses one coefficient row, which must surface as a
    recorded SaddleGap failure.
    """
    rng = _rng(seed, "saddle")
    failures = []
    cases = 0
    for _ in range(trials):
        cases += 1
        n = int(rng.integers(2, 5))
        verts = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 7)), n))
        P = VPolytope(verts)
        phi = SublinearMap(P, label="polytope-support")
        psis = [SuperlinearMap(VPolytope([v]), label=f"vertex{i}") for i, v in enumerate(verts)]
        S = saddle_build([phi], psis)
        grid = sphere_grid(n, _default_density(n))
        infsup, supinf = saddle_eval(S, grid)
        gap = max(
            float(np.abs(infsup - supinf).max()),
            float(np.abs(infsup - phi(grid.T)).max()),
        )
        data = rng.uniform(-5.0, 5.0, size=(n, 6))
        fs = [RmElement(row) for row in data]
        via_saddle = fc_saddle(S, fs)
        via_map = fc_sublinear(phi, fs)
        via_join = _join_path(psis, fs)
        gap = max(
            gap,
            float(np.abs(via_saddle.coords - via_map.coords).max()),
            float(np.abs(via_saddle.coords - via_join.coords).max()),
        )
        if gap > max(tol, 1e-12):
            failures.append(CheckFailure(_digest(verts, data), gap, 0.0, max(tol, 1e-12)))

    cases += 1
    angle_fam = angle_superlinear_family(32)
    S32 = saddle_build([disk_map()], list(angle_fam.maps))
    circle = sphere_grid(2, 720)
    infsup, supinf = saddle_eval(S32, circle)
    data = rng.uniform(-5.0, 5.0, size=(2, 8))
    fs = [RmElement(row) for row in data]
    via_saddle = fc_saddle(S32, fs)
    h32 = PHFunction("angle-32", 2, sup_family=angle_fam)
    via_family = fc_semicontinuous(h32, fs, side="sup")
    worst = max(
        float(np.abs(infsup - supinf).max()),
        float(np.abs(via_saddle.coords - via_family.coords).max()),
    )
    if worst > max(tol, 1e-12):
        failures.append(CheckFailure(_digest(circle, data), worst, 0.0, max(tol, 1e-12)))

    if corrupt:
        cases += 1
        pair = np.array(S32.coeffs[0, [0, 8], :])  # tangent directions at 0 and 90 degrees
        bad = np.stack([pair, pair[::-1]])
        # the rows now disagree about which tangent answers which column, a
        # genuine non-saddle: min-max gives max(x0, x1), max-min gives min.
        S_bad = SaddleFamily(bad)
        try:
            fc_saddle(S_bad, [RmElement([2.0, 0.0]), RmElement([-1.0, 3.0])])
        except SaddleGap as exc:
            failures.append(CheckFailure(_digest(bad), str(exc), "no gap", 1e-6))
        else:
            failures.append(CheckFailure(_digest(bad), "no SaddleGap raised", "SaddleGap", 1e-6))
    return CheckReport("saddle", cases, failures, seed)


def negative_controls(seed=0):
    """The suite must be able to fail: injected faults must be caught."""
    controls = [
        ("fault-injected support", lambda: check_interchange(trials=8, seed=seed, fault_injection=True)),
        ("corrupted saddle coefficient", lambda: check_saddle(trials=1, seed=seed, corrupt=True)),
    ]
    failures = []
    for label, run in controls:
        report = run()
        if report.passed:
            failures.append(
                CheckFailure(
                    hashlib.sha1(label.encode()).hexdigest()[:12],
                    "injected fault went undetected",
                    "at least one recorded failure",
                    0.0,
                )
            )
    return CheckReport("negative-controls", len(controls), failures, seed)


def default_suite(seed=0):
    """All checks at default settings, reports ordered by name."""
    reports = [
        check_engine_vs_oracle("example-7.1", seed=seed),
        check_engine_vs_oracle("example-7.2", seed=seed),
        check_engine_vs_oracle("square-mean", seed=seed),
        check_interchange(seed=seed),
        check_rep_independence(seed=seed),
        check_continuous_agreement(seed=seed),
        check_sublattice_invariance(seed=seed),
        check_saddle(seed=seed),
        negative_controls(seed=seed),
    ]
    return sorted(reports, key=lambda r: r.name)
