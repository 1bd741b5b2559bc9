"""The names the benchmark reads from homocalc must exist.

The benchmark under bench/ imports the package and reads its attributes
(`hc.builtin`, `cli.main`, ...), names functions by dotted strings in its
trace tables, and filters warnings by class path.  Removing or renaming any
of them makes every benchmark run fail, so these tests parse bench/*.py with
`ast`, without importing or running it, and resolve each name on the
package.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import homocalc

BENCH = Path(__file__).resolve().parent.parent / "bench"
# tables in bench/tracing.py whose strings (dict values, for the dicts) are
# "module.function" names or module names
TRACE_TABLES = ("_MODULES", "_LIFTS", "_WATCHED", "_SELF_GROUPS", "_CALL_METRICS")
WARNING_PATH = re.compile(r"::homocalc\.(\w+)")


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(BENCH.glob("*.py"))}


def _aliases(tree):
    """{local name: homocalc module path} for every import of homocalc."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "homocalc":
                    out[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "homocalc":
            for a in node.names:
                out[a.asname or a.name] = f"{node.module}.{a.name}"
    return out


def _resolve(path):
    """The object at a dotted path below homocalc, or None."""
    parts = path.split(".")
    obj = homocalc
    for i, part in enumerate(parts[1:], start=1):
        if not hasattr(obj, part):
            try:
                obj = importlib.import_module(".".join(parts[: i + 1]))
                continue
            except ImportError:
                return None
        obj = getattr(obj, part)
    return obj


def _attribute_reads():
    reads = set()
    for name, tree in _trees().items():
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
                reads.add((name, f"{aliases[node.value.id]}.{node.attr}"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads |= {(name, f"homocalc.{m}") for m in WARNING_PATH.findall(node.value)}
    return sorted(reads)


def _trace_names():
    tree = _trees()["tracing.py"]
    names = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign) or not isinstance(node.targets[0], ast.Name):
            continue
        table = node.targets[0].id
        if table not in TRACE_TABLES:
            continue
        value = node.value
        parts = value.values if isinstance(value, ast.Dict) else [value]
        for part in parts:
            strings = [c.value for c in ast.walk(part) if isinstance(c, ast.Constant)]
            names |= {(table, s) for s in strings if isinstance(s, str)}
    return sorted(names)


def test_the_benchmark_reads_homocalc():
    reads = _attribute_reads()
    assert ("workloads.py", "homocalc.builtin") in reads
    assert ("workloads.py", "homocalc.cli.main") in reads
    assert {t for t, _ in _trace_names()} == set(TRACE_TABLES)


@pytest.mark.parametrize("where, path", _attribute_reads(), ids=lambda v: v)
def test_every_attribute_the_benchmark_reads_resolves(where, path):
    assert _resolve(path) is not None, f"bench/{where} reads {path}, which homocalc does not define"


@pytest.mark.parametrize("table, name", _trace_names(), ids=lambda v: v)
def test_every_traced_name_resolves(table, name):
    assert _resolve(f"homocalc.{name}") is not None, f"bench/tracing.py {table} names {name}"


def test_representation_warning_stays_exported():
    # bench/workloads.py and bench/test_bench.py filter it by name
    assert issubclass(homocalc.RepresentationWarning, UserWarning)
    assert homocalc.RepresentationWarning is homocalc.homog.RepresentationWarning


# bench/tracing.py's Tracer._on_return and wrap_oracle read these return
# shapes; a change to any of them fails here instead of in a benchmark run


def test_eval_family_detailed_returns_an_int_term_count():
    for name in ("example-7.1", "abs-sum"):
        _, terms = homocalc.eval_family_detailed(homocalc.builtin(name), [1.0, -2.0])
        assert type(terms) is int


@pytest.mark.parametrize(
    "fs",
    [
        [homocalc.RmElement([1.0, -2.0]), homocalc.RmElement([3.0, 0.5])],
        [homocalc.StepFunction([0.0, 0.5, 1.0], [1.0, -2.0]), homocalc.StepFunction([0.0, 1.0], [3.0])],
    ],
    ids=["rm", "step"],
)
def test_detailed_lift_returns_an_element_first(fs):
    element = homocalc.fc_semicontinuous_detailed(homocalc.builtin("example-7.2"), fs)[0]
    assert isinstance(element, (homocalc.RmElement, homocalc.StepFunction))
    assert (element.values if hasattr(element, "values") else element.coords).size >= 1


def test_common_refinement_returns_a_value_matrix_second():
    fs = [homocalc.StepFunction([0.0, 0.5, 1.0], [1.0, -2.0]), homocalc.StepFunction([0.0, 0.25, 1.0], [3.0, 4.0])]
    values = homocalc.common_refinement(fs)[1]
    assert values.ndim == 2 and values.shape == (2, 3)


def test_default_suite_reports_count_int_cases():
    reports = homocalc.default_suite(seed=0)
    assert reports and all(type(r.cases) is int for r in reports)


def test_builtin_oracle_is_assignable():
    h = homocalc.builtin("square-mean")
    oracle = h.oracle
    h.oracle = lambda pts: oracle(pts)
    assert h.oracle is not oracle and callable(h.oracle)
