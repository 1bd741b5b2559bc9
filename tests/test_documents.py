"""The JSON document readers, pinned on a seeded corpus of damaged documents.

Every document is a valid set, map, function, element or saddle document
with a few random mutations, or one of a few written documents.  Each
reader's outcome is the writer's JSON of what it built or the class and
text of what it raised, so the pin covers every message byte as well as
every accepted value.
"""

import ast
import contextlib
import copy
import hashlib
import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homocalc
import homocalc.cli
from homocalc.homog import FiniteFamily

_SOURCE = "doc.json"

_SETS = [
    {"polytope": {"vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]}},
    {"polytope": {"vertices": [[2, -1, 0.5]]}},
    {"ball": {"center": [0.0, 1.0], "radius": 2.0}},
    {"ball": {"center": [3], "radius": 0}},
]
_MAPS = [
    {"sublinear": {"subdiff": _SETS[0], "label": "tri"}},
    {"sublinear": {"subdiff": _SETS[2]}},
    {"superlinear": {"superdiff": _SETS[1], "label": "pt"}},
    {"superlinear": {"superdiff": _SETS[2], "label": 7}},
    {"sublinear": {"subdiff": _SETS[3], "label": "line"}},
]
_FUNCTIONS = [
    {"family": {"kind": "usc", "maps": [_MAPS[0], _MAPS[1]]}},
    {"family": {"kind": "lsc", "maps": [{"superlinear": {"superdiff": _SETS[2]}}]}},
    {"family": {"kind": "cts", "maps": {"inf": [_MAPS[1]], "sup": [{"superlinear": {"superdiff": _SETS[0]}}]}}},
    {"family": {"maps": {"builtin": "abs-sum"}}},
    {"family": {"kind": "usc", "maps": {"builtin": "example-7.1"}}},
]
_ELEMENTS = [
    {"rm": [1.0, -2.0, 0.5]},
    {"step": {"breakpoints": [0.0, 0.25, 1.0], "values": [3.0, -1.0]}},
]
_SADDLES = [
    {"saddle": {"coeffs": [[[1.0, 0.0], [0.5, 0.5]]], "phi_labels": ["a"], "psi_labels": ["p", "q"]}},
    {"saddle": {"coeffs": [[[1.0]], [[2.0]]]}},
]

_JUNK = [
    None, True, False, 0, 1, -1, 2.5, -0.0, float("nan"), float("inf"), -float("inf"), 10**400,
    "", "x", "usc", "lsc", "cts", "abs-sum", "nope",
    [], {}, [[]], [[[]]], [1.0], [1, 2], ["a", "b"], [[1.0, 2.0], [3.0]], {"builtin": 3},
]
# a key renamed to its sibling, so that a document of one shape reads as another
_SIBLING = {
    "polytope": "ball", "ball": "polytope", "vertices": "center", "center": "vertices",
    "sublinear": "superlinear", "superlinear": "sublinear", "subdiff": "superdiff", "superdiff": "subdiff",
    "inf": "sup", "sup": "inf", "rm": "step", "step": "rm", "breakpoints": "values", "values": "breakpoints",
    "phi_labels": "psi_labels", "psi_labels": "phi_labels", "family": "saddle", "saddle": "family",
    "maps": "kind", "kind": "maps", "coeffs": "radius", "radius": "coeffs", "builtin": "label",
}
_READERS = [
    ("set", homocalc.set_from_json, homocalc.set_to_json, _SETS),
    ("map", homocalc.map_from_json, homocalc.map_to_json, _MAPS),
    ("function", homocalc.function_from_json, None, _FUNCTIONS),
    ("element", homocalc.element_from_json, homocalc.element_to_json, _ELEMENTS),
    ("saddle", homocalc.saddle_from_json, homocalc.saddle_to_json, _SADDLES),
]
_BASES = _SETS + _MAPS + _FUNCTIONS + _ELEMENTS + _SADDLES
# documents for the raise sites that the seeded mutations miss
_WRITTEN = [
    ("function", {"family": {"kind": "usc", "maps": [_MAPS[0], _MAPS[2]]}}),
    ("function", {"family": {"kind": "lsc", "maps": [_MAPS[2], _MAPS[1]]}}),
    ("function", {"family": {"kind": "usc", "maps": [_MAPS[0], _MAPS[4]]}}),
    ("function", {"family": {"maps": {"builtin": "nope"}}}),
    ("saddle", {"saddle": {"coeffs": [[["1", True]]]}}),
    ("saddle", {"saddle": {"coeffs": [[[]]]}}),
    ("element", {"rm": [1.0, float("inf")]}),
]

_CORPUS_SIZE = 2000
_CORPUS_SHA256 = "13c0a7ee8eb8c2fe6761754661a449182ed44524b40d2852d0c4b369610721f2"


def _slots(node):
    """Every (container, key) below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


def _mutate(doc, rng):
    """doc with one random edit at a random slot; an edit that does not fit
    the slot's value puts a piece of a base document there instead."""
    slots = list(_slots(doc))
    if not slots or rng.random() < 0.03:
        return copy.deepcopy(rng.choice(_JUNK + _BASES))
    parent, key = rng.choice(slots)
    value = parent[key]
    op = rng.choice(["delete", "junk", "junk", "rename", "empty", "grow", "shrink", "wrap", "graft"])
    if op == "delete":
        del parent[key]
    elif op == "junk":
        parent[key] = copy.deepcopy(rng.choice(_JUNK))
    elif op == "rename" and isinstance(parent, dict):
        parent[_SIBLING.get(key, "x" + key)] = parent.pop(key)
    elif op == "empty":
        parent[key] = {} if isinstance(value, dict) else []
    elif op == "grow" and isinstance(value, list) and value:
        value.append(copy.deepcopy(rng.choice(value + _JUNK[3:8])))
    elif op == "shrink" and isinstance(value, list) and value:
        value.pop(rng.randrange(len(value)))
    elif op == "wrap":
        parent[key] = [value]
    else:
        donor = copy.deepcopy(rng.choice(_BASES))
        parent[key] = rng.choice([donor] + [v for p, k in _slots(donor) for v in [p[k]]])
    return doc


def _corpus():
    """(reader name, document) pairs: every base and written document, then
    seeded mutations of the bases."""
    rng = random.Random(20261020)
    docs = [(name, copy.deepcopy(doc)) for name, _, _, bases in _READERS for doc in bases] + _WRITTEN
    while len(docs) < _CORPUS_SIZE:
        name, _, _, bases = rng.choice(_READERS)
        doc = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.choice([1, 1, 2, 3])):
            doc = _mutate(doc, rng)
        docs.append((name, doc))
    return docs


def _function_json(h):
    sides = [h.inf_family, h.sup_family]
    maps = [[homocalc.map_to_json(m) for m in f.maps] if isinstance(f, FiniteFamily) else None for f in sides]
    return [repr(h), h.kind, h.dim, maps]


def _outcomes():
    readers = {name: (read, write or _function_json) for name, read, write, _ in _READERS}
    out = []
    for name, doc in _corpus():
        read, write = readers[name]
        try:
            out.append(["ok", write(read(doc, _SOURCE))])
        except Exception as exc:  # the pin records every way a reader can fail
            out.append([type(exc).__name__, str(exc)])
    return out


def test_the_readers_give_the_pinned_outcomes_on_a_seeded_corpus():
    text = json.dumps(_outcomes(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _CORPUS_SHA256


def test_what_a_reader_accepts_the_writer_gives_back():
    # the writer's JSON read again gives the same writer's JSON: every float
    # to the bit (json.dumps writes the shortest repr, the sign of zero too)
    checked = 0
    for name, read, write, _ in _READERS:
        if write is None:
            continue
        for kind, doc in _corpus():
            if kind != name:
                continue
            try:
                first = json.dumps(write(read(doc, _SOURCE)), sort_keys=True)
            except homocalc.CalculusError:
                continue
            assert json.dumps(write(read(json.loads(first), _SOURCE)), sort_keys=True) == first
            checked += 1
    assert checked > 100


def _cli_requests(kind, doc):
    """(argv less the file, document) of every request that reads doc or a
    document holding it from a --family file."""
    argvs = [
        ["eval", "--x", "1,-2"],
        ["fc", "--f", "1,-2", "--f", "0.5,3"],
        ["saddle-eval", "--x", "1,-2"],
        ["saddle-build"],
    ]
    requests = [(argv, doc) for argv in argvs]
    if kind == "set":
        pair = {"phis": [{"sublinear": {"subdiff": doc}}], "psis": [{"superlinear": {"superdiff": doc}}]}
        requests.append((["saddle-build"], pair))
    if kind == "map":
        side = "usc" if isinstance(doc, dict) and "sublinear" in doc else "lsc"
        requests.append((argvs[0], {"family": {"kind": side, "maps": [doc]}}))
        requests.append((["saddle-build"], {"phis": [doc], "psis": [doc]}))
    return requests


def test_every_corpus_document_gets_one_json_answer_from_the_cli(tmp_path, capsys):
    # no exception escapes cli.main and the exit code is 0, 2 or 3 (1 means
    # a check did not pass); on 0 stdout is JSON, on 2 or 3 stdout is empty
    # and stderr is one JSON error line
    path = tmp_path / "doc.json"
    codes = {}
    for kind, doc in _corpus():
        for argv, written in _cli_requests(kind, doc):
            path.write_text(json.dumps(written), encoding="utf-8")
            code = homocalc.cli.main([*argv, "--family", str(path)])
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), (argv, written, code, err)
            if code == 0:
                json.loads(out)
            else:
                assert out == "" and err.count("\n") == 1 and "error" in json.loads(err)
            codes[code] = codes.get(code, 0) + 1
    assert set(codes) <= {0, 2, 3} and codes[0] and codes[2]


def _schema_sites():
    """The distinct (path, reason) pairs of the corpus's SchemaErrors, with
    list indices written [i]."""
    sites = set()
    for kind, text in _outcomes():
        if kind == "SchemaError":
            path, reason = text.removeprefix(f"load: {_SOURCE}: ").split(": ", 1)
            path = re.sub(r"\[\d+\]", "[i]", path)
            sites.add((path, reason))
    return sites


# one (path, reason) per SchemaError raise site of the readers; a reason
# that names the offending value is matched by its start
_RAISE_SITES = [
    ("set", "expected an object"),
    ("set", "expected a 'polytope' or 'ball' key"),
    ("set.polytope", "expected {'vertices': [[...]]}"),
    ("set.polytope.vertices", "expected a nonempty list"),
    ("set.polytope.vertices[i]", "expected a list of numbers"),
    ("set.polytope.vertices", "rows have mixed lengths"),
    ("set.ball", "expected {'center': [...], 'radius': r}"),
    ("set.ball.center", "expected a list of numbers"),
    ("set.ball.radius", "expected a number >= 0"),
    ("map.superlinear.superdiff.ball.radius", "integer too large for a float"),
    ("set.polytope", "vertices must be finite"),
    ("set.polytope", "vertex array must be nonempty with shape (k, n)"),
    ("set.ball", "center must be a nonempty finite vector"),
    ("set.ball", "radius must be finite and >= 0"),
    ("map", "expected an object"),
    ("map", "expected a 'sublinear' or 'superlinear' key"),
    ("map.sublinear", "expected {'subdiff': <set>}"),
    ("map.superlinear", "expected {'superdiff': <set>}"),
    ("map.sublinear.label", "expected a string"),
    ("map.superlinear.label", "expected a string"),
    ("$", "expected a 'family' object"),
    ("family", "expected an object"),
    ("family.maps.builtin", "expected a string"),
    ("family.maps.builtin", "unknown name 'nope'; known: "),
    ("family.kind", "builtin 'abs-sum' has kind 'cts', not "),
    ("family.kind", "expected 'usc', 'lsc' or 'cts'"),
    ("family.maps", "expected a map list or {'builtin': name}"),
    ("family.maps", "continuous kind needs {'inf': [...], 'sup': [...]}"),
    ("family.maps.inf", "expected a nonempty list"),
    ("family.maps.sup", "expected a nonempty list"),
    ("family.maps", "inf and sup sides have different dims"),
    ("family.maps", "expected a nonempty list"),
    ("family.maps[i]", "expected a sublinear map"),
    ("family.maps[i]", "expected a superlinear map"),
    ("family.maps", "maps have mixed dimensions"),
    ("element", "expected an object"),
    ("element", "expected an 'rm' or 'step' key"),
    ("element.rm", "expected a list of numbers"),
    ("element.rm", "expected a nonempty list"),
    ("element.rm", "coords must be finite"),
    ("element.rm[i]", "integer too large for a float"),
    ("element.step", "expected {'breakpoints': [...], 'values': [...]}"),
    ("element.step.breakpoints", "expected a list of numbers"),
    ("element.step.values", "expected a list of numbers"),
    ("element.step", "need k+1 breakpoints and k values"),
    ("$", "expected a 'saddle' object"),
    ("saddle", "expected {'coeffs': [[[...]]]}"),
    ("saddle.coeffs", "expected a numeric 3-d array"),
    ("saddle.coeffs", "expected shape (P, Q, n)"),
    ("saddle.coeffs", "coefficients must be finite"),
    ("saddle.coeffs", "expected a list of numbers"),
    ("saddle.coeffs", "need dimension n >= 1"),
    ("saddle.coeffs[i][i][i]", "integer too large for a float"),
    ("saddle.phi_labels", "expected a list of strings"),
    ("saddle.psi_labels", "label count mismatch"),
]


def test_the_corpus_reaches_every_schema_error_of_the_readers():
    sites = _schema_sites()
    missed = [site for site in _RAISE_SITES if not any(p == site[0] and r.startswith(site[1]) for p, r in sites)]
    assert missed == []


def _schema_error_callers(tree):
    """The top-level definitions of a module that call SchemaError(...)."""
    return {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", None)) == "SchemaError"
    }


def test_only_documents_knows_the_document_format():
    # one document format: the math modules hold no reader or writer, and
    # the CLI raises a SchemaError itself only for JSON text it cannot parse
    src = Path(homocalc.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))}
    callers = {name: found for name, tree in trees.items() if (found := _schema_error_callers(tree))}
    assert sorted(callers) == ["cli.py", "documents.py"] and callers["cli.py"] == {"_read_json"}
    for name in ("convexsets.py", "homog.py", "lattice.py", "fcalc.py"):
        nodes = list(ast.walk(trees[name]))
        defined = {node.name for node in nodes if isinstance(node, ast.FunctionDef) and node.name.endswith("_json")}
        imported = {a.name for node in nodes if isinstance(node, ast.ImportFrom) for a in node.names}
        assert (name, defined, "SchemaError" in imported) == (name, set(), False)


# --- the document contract of cli.main, under hypothesis -----------------------

_DISK = {"sublinear": {"subdiff": {"ball": {"center": [0.0, 0.0], "radius": 1.0}}, "label": "disk"}}
_TRIANGLE = {"sublinear": {"subdiff": {"polytope": {"vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]}}}}
_POINT = {"superlinear": {"superdiff": {"polytope": {"vertices": [[0.5, 0.0]]}}, "label": "pt"}}
_SMALL_BALL = {"superlinear": {"superdiff": {"ball": {"center": [0.0, 0.25], "radius": 0.25}}}}
# (command less --family, document) of every document kind, each valid
_CONTRACT_BASES = [
    (["eval", "--x", "1,-2"], {"family": {"kind": "usc", "maps": [_DISK, _TRIANGLE]}}),
    (["fc", "--f", "1,-2", "--f", "0.5,3"], {"family": {"kind": "lsc", "maps": [_POINT, _SMALL_BALL]}}),
    (["fc", "--f", "1,-2", "--f", "0.5,3"], {"family": {"kind": "cts", "maps": {"inf": [_DISK], "sup": [_POINT]}}}),
    (["eval", "--x", "3,-4"], {"family": {"kind": "cts", "maps": {"builtin": "abs-sum"}}}),
    (["saddle-build"], {"phis": [_DISK, _TRIANGLE], "psis": [_POINT, _SMALL_BALL]}),
    (
        ["saddle-eval", "--x", "1,-2"],
        {"saddle": {"coeffs": [[[1.0, 0.0], [0.5, 0.5]], [[0.0, 1.0], [0.25, 0.0]]], "phi_labels": ["a", "b"]}},
    ),
]
# wrong types, NaN as a number and as a string, inf, ints beyond the float
# range, empty and ragged lists; "delete" drops the slot (a missing key).
# The valid numbers keep some documents valid, and the huge ones send
# some of those beyond the float range.
_CONTRACT_EDITS = [
    "x", "NaN", True, None, {}, float("nan"), float("inf"), -float("inf"), 10**400, -(10**400),
    [], [[]], [[1.0], [1.0, 2.0]], [1.0, [2.0]], "delete", "ragged",
    3, -0.0, 2.5, 5e-324, 1e308, -1e308,
]


def _edited(doc, data):
    """doc with one or two of _CONTRACT_EDITS, each at a slot drawn by data."""
    for _ in range(data.draw(st.integers(1, 2))):
        slots = list(_slots(doc))
        if not slots:
            break
        parent, key = data.draw(st.sampled_from(slots))
        edit = data.draw(st.sampled_from(_CONTRACT_EDITS))
        if edit == "delete":
            del parent[key]
        elif edit == "ragged":
            # a list one entry longer, or a value wrapped in a list
            value = parent[key]
            parent[key] = value + [value[-1] if value else 1.0] if isinstance(value, list) else [value]
        else:
            parent[key] = copy.deepcopy(edit)
    return doc


@pytest.fixture(scope="module")
def contract_file(tmp_path_factory):
    return tmp_path_factory.mktemp("contract") / "doc.json"


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_CONTRACT_BASES), st.data())
def test_every_mutated_document_keeps_the_cli_contract(contract_file, base, data):
    argv, doc = base
    doc = _edited(copy.deepcopy(doc), data)
    contract_file.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = homocalc.cli.main([*argv, "--family", str(contract_file)])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (doc, code)
    if code in (0, 1):
        assert err == "" and out.endswith("\n")
        json.loads(out)
    else:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1
        assert set(json.loads(err)) == {"error"}


def test_pair_from_json_refuses_sides_that_are_not_lists():
    for doc in ({"phis": {}, "psis": []}, {"phis": [], "psis": "x"}):
        with pytest.raises(homocalc.SchemaError, match="phis/psis: expected lists of maps$"):
            homocalc.documents.pair_from_json(doc, _SOURCE)


@pytest.mark.parametrize(
    "write, what",
    [
        (homocalc.set_to_json, homocalc.disk_map()),
        (homocalc.map_to_json, homocalc.Ball([0.0], 1.0)),
        (homocalc.element_to_json, [1.0, 2.0]),
    ],
    ids=["set", "map", "element"],
)
def test_each_writer_refuses_an_unsupported_type(write, what):
    kind = write.__name__.removesuffix("_to_json")
    with pytest.raises(TypeError, match=f"^unsupported {kind} type {type(what).__name__}$"):
        write(what)


@pytest.mark.parametrize(
    "doc", [_DISK, _TRIANGLE, _POINT, _SMALL_BALL], ids=["sub-ball", "sub-polytope", "super-polytope", "super-ball"]
)
def test_a_map_document_is_written_back_as_it_was_read(doc):
    # the tags of both map kinds, on both set kinds; an absent label reads as ""
    want = copy.deepcopy(doc)
    for body in want.values():
        body.setdefault("label", "")
    assert homocalc.map_to_json(homocalc.map_from_json(doc)) == want
    assert homocalc.map_to_json(homocalc.map_from_json(want)) == want
