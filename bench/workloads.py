"""The benchmark's three workloads: seeded inputs, the timed operation, and
checks made apart from the program.

Every workload has the same shape:

* ``Workload(seed, workdir)`` is the set-up: builtins, polytopes and saddles
  that the operations share;
* ``make_input(i)`` builds the inputs of operation ``i`` from ``(seed, i)``
  (untimed);
* ``run(inp)`` is the timed operation; it calls only homocalc;
* ``check(inp, result)`` returns a list of problems, empty when the result
  is right.  The checks never call ``h.oracle``, ``verify.oracle_fc`` or any
  other homocalc code: closed forms, linear programs and bracket
  inequalities are written here.

Operations within one workload cost about the same, so a percentile never
sits on the seam between two kinds of operation.
"""

import contextlib
import io
import json
import os
import shlex
import warnings

import numpy as np

import homocalc as hc
from homocalc import cli

_TAGS = {"lift": 0x11F7, "convex-saddle": 0xC5AD, "suite-cli": 0x5C11}

# square-mean's sup side is a generated family of 512 tangents in
# bit-reversed order, cut by a 200-member stall window; the cut can land after
# the 128-angle level, so its value is only held to 1 - cos(pi/128) of |x|.
SQUARE_MEAN_SUP_RES = 1.0 - np.cos(np.pi / 128)
_ANGLE_STEP_32 = 2.0 * np.pi / 32


def _rng(seed, workload, *keys):
    return np.random.default_rng([int(seed), _TAGS[workload], *keys])


def _tangent_saddle():
    """The 32-tangent saddle: the disk against 32 tangent linear maps."""
    return hc.saddle_build([hc.disk_map()], list(hc.angle_superlinear_family(32).maps))


def inscribed_32gon(x, y):
    """Support function of the regular 32-gon inscribed in the unit circle."""
    t = np.arctan2(y, x) / _ANGLE_STEP_32
    return np.hypot(x, y) * np.cos((t - np.round(t)) * _ANGLE_STEP_32)


def example_71(x, y):
    return np.where((x >= 0) & (y >= 0), x + y, 0.0)


def example_72(x, y):
    return np.where((x > 0) & (y > 0), x, np.where(y < 0, y, 0.0))


def _far(got, want, tol):
    """Indices where got misses want by more than tol (elementwise)."""
    return np.nonzero(~(np.abs(np.asarray(got) - np.asarray(want)) <= tol))[0]


class _Workload:
    round_size = 1

    def functions(self):
        """PHFunction instances built in set-up, whose oracles a trace wraps."""
        return []

    def stdout_bytes(self, result):
        return 0

    def close(self):
        pass


# ---------------------------------------------------------------------------
# lift


class Lift(_Workload):
    """One operation lifts one seeded tuple through six maps.

    The tuple is two step functions with 500 interior breakpoints each, all
    distinct, so their common refinement has exactly 1001 pieces; the same
    tuple embedded at the left end of every piece gives two R^1001 elements.
    Both are lifted through every map: 2002 columns per map, 12 lifts per
    operation.  The R^m lift is the grid-embedded step lift, so the two must
    agree bitwise.
    """

    name = "lift"
    CUTS = 500
    MAPS = ("example-7.1", "example-7.2", "square-mean-sup", "poly200", "poly200-mirror", "saddle32")

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.h71 = hc.builtin("example-7.1")
        self.h72 = hc.builtin("example-7.2")
        self.hsq = hc.builtin("square-mean")
        self.verts = _rng(seed, self.name).uniform(-3.0, 3.0, size=(200, 2))
        self.phi = hc.SublinearMap(hc.VPolytope(self.verts), label="poly200")
        self.psi = hc.SuperlinearMap(hc.VPolytope(self.verts), label="poly200-mirror")
        self.saddle = _tangent_saddle()

    def functions(self):
        return [self.h71, self.h72, self.hsq]

    def make_input(self, i):
        rng = _rng(self.seed, self.name, i)
        k = self.CUTS
        cuts = (rng.choice(2**20 - 1, size=2 * k, replace=False) + 1.0) / 2.0**20
        bps = [np.concatenate(([0.0], np.sort(part), [1.0])) for part in (cuts[:k], cuts[k:])]
        vals = [rng.uniform(-5.0, 5.0, size=k + 1) for _ in bps]
        bp = np.union1d(bps[0], bps[1])
        cols = np.stack(
            [v[np.searchsorted(b, bp[:-1], side="right") - 1] for b, v in zip(bps, vals)]
        )
        return {
            "steps": [hc.StepFunction(b, v) for b, v in zip(bps, vals)],
            "rms": [hc.RmElement(c) for c in cols],
            "bp": bp,
            "cols": cols,
        }

    def run(self, inp):
        out = {}
        for lattice in ("steps", "rms"):
            fs = inp[lattice]
            out[lattice] = [
                hc.fc_semicontinuous(self.h71, fs),
                hc.fc_semicontinuous(self.h72, fs),
                hc.fc_semicontinuous(self.hsq, fs, side="sup"),
                hc.fc_sublinear(self.phi, fs),
                hc.fc_superlinear(self.psi, fs),
                hc.fc_saddle(self.saddle, fs),
            ]
        return out

    def _closed_form(self, name, got, x, y):
        r = np.hypot(x, y)
        scale = 1.0 + np.abs(x) + np.abs(y)
        if name == "example-7.1":
            return _far(got, example_71(x, y), 1e-9 * scale)
        if name == "example-7.2":
            return _far(got, example_72(x, y), 1e-9 * scale)
        if name == "square-mean-sup":
            gap = r - got
            return np.nonzero(~((gap >= -1e-12 * scale) & (gap <= SQUARE_MEAN_SUP_RES * r + 1e-12 * scale)))[0]
        if name == "saddle32":
            return _far(got, inscribed_32gon(x, y), 1e-12 * scale)
        inner = self.verts @ np.stack([x, y])
        want = inner.max(axis=0) if name == "poly200" else inner.min(axis=0)
        return _far(got, want, 1e-12 * (1.0 + np.abs(want)))

    def check(self, inp, out):
        x, y = inp["cols"]
        problems = []
        for name, on_steps, on_rm in zip(self.MAPS, out["steps"], out["rms"]):
            if not (
                np.array_equal(on_steps.breakpoints, inp["bp"])
                and np.array_equal(on_steps.values, on_rm.coords)
            ):
                problems.append(f"{name}: step lift differs from the grid-embedded lift")
            bad = self._closed_form(name, on_rm.coords, x, y)
            if bad.size:
                k = int(bad[0])
                problems.append(
                    f"{name}: {bad.size} columns off their closed form, first at "
                    f"({x[k]!r}, {y[k]!r}) -> {on_rm.coords[k]!r}"
                )
        return problems


# ---------------------------------------------------------------------------
# convex-saddle


def _regular_simplex(n):
    """n+1 unit vectors in R^n with equal pairwise angles."""
    centred = np.eye(n + 1) - 1.0 / (n + 1)
    _, _, vt = np.linalg.svd(centred)
    v = centred @ vt[:n].T
    return v / np.linalg.norm(v, axis=1)[:, None]


def _simplex(rng, n, center, radius):
    """A randomly turned, mildly irregular, never thin simplex."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return center + radius * rng.uniform(0.8, 1.2, size=(n + 1, 1)) * (_regular_simplex(n) @ q.T)


def _as_map(desc, sublinear):
    s = hc.Ball(desc[1], desc[2]) if desc[0] == "ball" else hc.VPolytope(desc[1])
    return hc.SublinearMap(s) if sublinear else hc.SuperlinearMap(s)


def ordered_pair(rng, n, size=8):
    """Two families that both represent h = support of a core simplex.

    phis: the core simplex itself, blown-up copies of it and balls holding
    it, so min phi_i = h.  psis: the core's vertices as singletons, plus balls
    and shrunken copies of the core that lie inside it, so max psi_j = h.
    Every superdifferential lies in every subdifferential: the pair is
    ordered, each feasible_point needs one round of projections, and the
    saddle has no gap, so fc_saddle must return h.
    """
    core = _simplex(rng, n, rng.uniform(-0.5, 0.5, n), 1.0)
    cen = core.mean(axis=0)
    # distance from the centroid to the nearest facet, through the
    # barycentric coordinate functions lambda_k(x) = a_k . x + b_k
    a = np.linalg.inv(np.vstack([core.T, np.ones(n + 1)]))[:, :n]
    inradius = (1.0 / (n + 1)) / np.linalg.norm(a, axis=1).max()
    phis = [("poly", core)]
    for i in range(1, size):
        if i % 2:
            phis.append(("poly", cen + rng.uniform(1.2, 2.0) * (core - cen)))
        else:
            c = cen + rng.uniform(-0.3, 0.3, n)
            phis.append(("ball", c, np.linalg.norm(core - c, axis=1).max() * rng.uniform(1.05, 1.5)))
    psis = [("poly", v[None, :]) for v in core]
    while len(psis) < size:
        # (1 - rho) p + rho S lies in the core for p in it and S inside it
        p = rng.dirichlet(np.ones(n + 1)) @ core
        rho = rng.uniform(0.1, 0.4)
        if len(psis) % 2:
            psis.append(("ball", (1.0 - rho) * p + rho * cen, rho * inradius))
        else:
            psis.append(("poly", (1.0 - rho) * p + rho * core))
    return core, phis, psis


def _support(desc, pts):
    """Support values of a set description at the columns of pts (n, k)."""
    if desc[0] == "ball":
        return desc[1] @ pts + desc[2] * np.linalg.norm(pts, axis=0)
    return (desc[1] @ pts).max(axis=0)


def hull_violation(verts, pts):
    """Smallest s such that every row of pts is within s (max-norm) of conv(verts).

    One linear program over convex weights, solved by scipy's HiGHS.
    """
    from scipy.optimize import linprog

    k, n = verts.shape
    m = pts.shape[0]
    nv = m * k + 1
    a_eq = np.zeros((m, nv))
    a_ub = np.zeros((2 * m * n, nv))
    b_ub = np.empty(2 * m * n)
    for p in range(m):
        a_eq[p, p * k : (p + 1) * k] = 1.0
        for d in range(n):
            row = 2 * (p * n + d)
            a_ub[row, p * k : (p + 1) * k] = verts[:, d]
            a_ub[row + 1, p * k : (p + 1) * k] = -verts[:, d]
            b_ub[row] = pts[p, d]
            b_ub[row + 1] = -pts[p, d]
    a_ub[:, -1] = -1.0
    cost = np.zeros(nv)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(m), bounds=(0, None), method="highs")
    return float(res.x[-1]) if res.status == 0 else np.inf


def set_violation(desc, pts):
    """How far the rows of pts stray outside the described set."""
    if desc[0] == "ball":
        return max(0.0, float((np.linalg.norm(pts - desc[1], axis=1) - desc[2]).max()))
    verts = desc[1]
    if verts.shape[0] == 1:
        return float(np.abs(pts - verts[0]).max())
    return hull_violation(verts, pts)


class ConvexSaddle(_Workload):
    """One operation builds three saddles and lifts a small tuple through each.

    The pairs are 8x8 ordered families in R^2, R^3 and R^4 (one each, so every
    operation costs about the same), each followed by fc_saddle on a tuple of
    n elements of R^8.  Nearly all of the time goes to saddle_build's 64
    feasible_point calls per pair, that is to project.
    """

    name = "convex-saddle"
    DIMS = (2, 3, 4)
    SIZE = 8
    COLS = 8
    MEMBER_TOL = 1e-7

    def __init__(self, seed, workdir):
        self.seed = int(seed)

    def make_input(self, i):
        pairs = []
        for n in self.DIMS:
            rng = _rng(self.seed, self.name, i, n)
            core, phis, psis = ordered_pair(rng, n, self.SIZE)
            cols = rng.uniform(-5.0, 5.0, size=(n, self.COLS))
            pairs.append(
                {
                    "core": core,
                    "phis": phis,
                    "psis": psis,
                    "cols": cols,
                    "phi_maps": [_as_map(d, True) for d in phis],
                    "psi_maps": [_as_map(d, False) for d in psis],
                    "tuple": [hc.RmElement(row) for row in cols],
                }
            )
        return pairs

    def run(self, inp):
        out = []
        for pair in inp:
            saddle = hc.saddle_build(pair["phi_maps"], pair["psi_maps"])
            out.append((saddle.coeffs, hc.fc_saddle(saddle, pair["tuple"]).coords))
        return out

    def check(self, inp, out):
        problems = []
        for pair, (coeffs, lifted) in zip(inp, out):
            n = pair["cols"].shape[0]
            tag = f"R^{n}"
            if coeffs.shape != (self.SIZE, self.SIZE, n):
                problems.append(f"{tag}: coefficient tensor has shape {coeffs.shape}")
                continue
            for i, desc in enumerate(pair["phis"]):
                v = set_violation(desc, coeffs[i])
                if not v <= self.MEMBER_TOL:
                    problems.append(f"{tag}: a[{i}, :] leaves subdiff(phi_{i}) by {v:.3e}")
            for j, desc in enumerate(pair["psis"]):
                v = set_violation(desc, coeffs[:, j])
                if not v <= self.MEMBER_TOL:
                    problems.append(f"{tag}: a[:, {j}] leaves superdiff(psi_{j}) by {v:.3e}")
            x = pair["cols"]
            inner = np.einsum("ijn,nk->ijk", coeffs, x)
            infsup = inner.max(axis=1).min(axis=0)
            supinf = inner.min(axis=0).max(axis=0)
            lo = np.max([-_support(d, -x) for d in pair["psis"]], axis=0)
            hi = np.min([_support(d, x) for d in pair["phis"]], axis=0)
            slack = 1e-8 * (1.0 + np.abs(x).sum(axis=0))
            if not (np.all(lo <= supinf + slack) and np.all(supinf <= infsup + slack) and np.all(infsup <= hi + slack)):
                problems.append(f"{tag}: max psi <= supinf <= infsup <= min phi fails")
            if _far(lifted, infsup, 1e-12 * (1.0 + np.abs(infsup))).size:
                problems.append(f"{tag}: fc_saddle differs from the min-max of its coefficients")
            if _far(lifted, (pair["core"] @ x).max(axis=0), slack).size:
                problems.append(f"{tag}: fc_saddle differs from the core simplex's support")
        return problems


# ---------------------------------------------------------------------------
# suite-cli


def call_cli(argv):
    """Run ``homocalc <argv>`` in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _parse_cli_vector(text):
    return np.array([float(t) for t in text.split(",")])


def _fc_columns(argv):
    """Columns the fc request lifts, rebuilt from its --f arguments."""
    fs = [argv[k + 1] for k, a in enumerate(argv) if a == "--f"]
    if "step" not in argv:
        return None, np.stack([_parse_cli_vector(f) for f in fs])
    parts = [[_parse_cli_vector(p) for p in f.split("|")] for f in fs]
    bp = np.unique(np.concatenate([b for b, _ in parts]))
    cols = np.stack([v[np.searchsorted(b, bp[:-1], side="right") - 1] for b, v in parts])
    return bp, cols


class SuiteCli(_Workload):
    """One operation is ``homocalc suite --seed s`` plus six short requests.

    All go through ``cli.main`` in-process with stdout captured.  The four
    suite seeds of a run come from --seed and repeat in rounds of four, so
    from the second round on every request has been made before and its
    bytes must match.
    """

    name = "suite-cli"
    round_size = 4

    def __init__(self, seed, workdir):
        self.suite_seeds = [int(s) for s in _rng(seed, self.name).integers(0, 2**31, size=self.round_size)]
        self.saddle_path = os.path.join(workdir, f"saddle32-{os.getpid()}.json")
        with open(self.saddle_path, "w", encoding="utf-8") as fh:
            json.dump(hc.saddle_to_json(_tangent_saddle()), fh)
        self.requests = [
            shlex.split(r)
            for r in (
                "eval --builtin example-7.1 --x 3,4",
                "eval --builtin example-7.2 --x 2,-1",
                "eval --builtin square-mean --x 3,4",
                "fc --builtin example-7.2 --lattice step --f 0,0.5,1|2,5 --f 0,0.25,1|1,-3",
                "fc --builtin example-7.1 --lattice rm --f 2,-1,0.5 --f 0,3,0.5",
            )
        ] + [["saddle-eval", "--family", self.saddle_path, "--x", "1,0.3"]]
        self.seen = {}

    def close(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.saddle_path)

    def make_input(self, i):
        return ["suite", "--seed", str(self.suite_seeds[i % self.round_size])]

    def run(self, inp):
        return [(tuple(argv), *call_cli(argv)) for argv in [inp, *self.requests]]

    def stdout_bytes(self, out):
        return sum(len(stdout.encode()) for _, _, stdout, _ in out)

    def _expected(self, argv, doc):
        """Problems with one parsed request output, against closed forms."""
        cmd = argv[0]
        if cmd == "suite":
            reports = doc.get("reports", [])
            if doc.get("passed") is not True or len(reports) != 9 or not all(r.get("passed") for r in reports):
                return ["suite did not pass"]
            return []
        if cmd == "saddle-eval":
            x = _parse_cli_vector(argv[argv.index("--x") + 1])
            want = inscribed_32gon(x[0], x[1])
            return [] if abs(doc["infsup"] - want) <= 1e-12 and abs(doc["supinf"] - want) <= 1e-12 else ["saddle-eval value"]
        form = {"example-7.1": example_71, "example-7.2": example_72, "square-mean": np.hypot}[argv[argv.index("--builtin") + 1]]
        if cmd == "eval":
            x = _parse_cli_vector(argv[argv.index("--x") + 1])
            return [] if abs(doc["value"] - form(x[0], x[1])) <= 1e-9 else ["eval value"]
        bp, cols = _fc_columns(argv)
        element = doc["element"]
        if bp is None:
            got = np.asarray(element["rm"], dtype=float)
        else:
            if element["step"]["breakpoints"] != bp.tolist():
                return ["fc breakpoints"]
            got = np.asarray(element["step"]["values"], dtype=float)
        return [] if got.shape == (cols.shape[1],) and not _far(got, form(*cols), 1e-9).size else ["fc values"]

    def check(self, inp, out):
        problems = []
        for argv, code, stdout, stderr in out:
            label = " ".join(argv[:3])
            if code != 0 or stderr:
                problems.append(f"{label}: exit {code}, stderr {stderr.strip()[:200]!r}")
                continue
            try:
                doc = json.loads(stdout, parse_constant=_reject_constant)
                problems += [f"{label}: {p}" for p in self._expected(argv, doc)]
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{label}: output unreadable ({type(exc).__name__}: {exc})")
            first = self.seen.setdefault(argv, stdout)
            if first != stdout:
                problems.append(f"{label}: bytes differ from the same request made earlier")
        return problems


WORKLOADS = {w.name: w for w in (Lift, ConvexSaddle, SuiteCli)}


def make(name, seed, workdir):
    warnings.simplefilter("ignore", hc.RepresentationWarning)
    return WORKLOADS[name](seed, workdir)
