"""The JSON documents that the command line reads and writes.

This module alone knows the document format.  The shapes, where <set>,
<map> and <element> stand for a document of that kind:

    set        {"polytope": {"vertices": [[...], ...]}}
               {"ball": {"center": [...], "radius": r}}
    map        {"sublinear": {"subdiff": <set>, "label": s}}
               {"superlinear": {"superdiff": <set>, "label": s}}
    function   {"family": {"kind": "usc" | "lsc", "maps": [<map>, ...]}}
               {"family": {"kind": "cts", "maps": {"inf": [<map>, ...], "sup": [<map>, ...]}}}
               {"family": {"kind": k, "maps": {"builtin": name}}}, kind optional
    element    {"rm": [...]}
               {"step": {"breakpoints": [...], "values": [...]}}
    saddle     {"saddle": {"coeffs": [[[...]]], "phi_labels": [...], "psi_labels": [...]}},
               labels optional
    pair       {"phis": [<map>, ...], "psis": [<map>, ...]}, saddle-build's input

A label s is a string, and may be absent.  A reader takes the
document's source (a file name or "<inline>") and raises
SchemaError(source, path, reason) for any other shape, for an integer too
large for a float (at that number's path), and for a value that the set,
element or saddle it builds refuses (such as NaN), with path starting at
the document root.
"""

import numpy as np

from .convexsets import Ball, VPolytope
from .errors import SchemaError, UnknownBuiltin
from .fcalc import SaddleFamily
from .homog import FiniteFamily, PHFunction, SublinearMap, SuperlinearMap, _SupportMap, builtin
from .lattice import RmElement, StepFunction


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float(v, source, path):
    """float(v) of a JSON number v; an integer too large for a float is a
    SchemaError at path."""
    try:
        return float(v)
    except OverflowError:
        raise SchemaError(source, path, "integer too large for a float") from None


def _numbers(obj, source, path):
    """obj as floats, if it is a list of JSON numbers."""
    if not isinstance(obj, list) or not all(_is_number(v) for v in obj):
        raise SchemaError(source, path, "expected a list of numbers")
    return [_float(v, source, f"{path}[{i}]") for i, v in enumerate(obj)]


def _floats_everywhere(obj, source, path):
    """Every number in the nested lists obj through _float, depth first, so
    the first integer too large for a float raises at its path."""
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            _floats_everywhere(v, source, f"{path}[{i}]")
    elif _is_number(obj):
        _float(obj, source, path)


def _nonempty_list(obj, source, path):
    if not isinstance(obj, list) or not obj:
        raise SchemaError(source, path, "expected a nonempty list")
    return obj


def _fields(obj, keys, source, path, reason):
    """The values of keys, if obj is an object that holds every one."""
    if not isinstance(obj, dict) or not all(key in obj for key in keys):
        raise SchemaError(source, path, reason)
    return [obj[key] for key in keys]


def _tagged(obj, tags, source, path, reason):
    """(tag, body) of the first of tags that the object obj holds."""
    _fields(obj, (), source, path, "expected an object")
    for tag in tags:
        if tag in obj:
            return tag, obj[tag]
    raise SchemaError(source, path, reason)


def _built(make, source, path, *args, **kwargs):
    """make(*args, **kwargs): a constructor's ValueError, such as a
    non-finite number, becomes a SchemaError at the body's path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(source, path, str(exc)) from exc


def set_to_json(s):
    if isinstance(s, VPolytope):
        return {"polytope": {"vertices": s.vertices.tolist()}}
    if isinstance(s, Ball):
        return {"ball": {"center": s.center.tolist(), "radius": s.radius}}
    raise TypeError(f"unsupported set type {type(s).__name__}")


def set_from_json(obj, source="<inline>", path="set"):
    tag, body = _tagged(obj, ("polytope", "ball"), source, path, "expected a 'polytope' or 'ball' key")
    where = f"{path}.{tag}"
    if tag == "polytope":
        (verts,) = _fields(body, ("vertices",), source, where, "expected {'vertices': [[...]]}")
        verts = _nonempty_list(verts, source, f"{where}.vertices")
        rows = [_numbers(row, source, f"{where}.vertices[{i}]") for i, row in enumerate(verts)]
        if len({len(r) for r in rows}) != 1:
            raise SchemaError(source, f"{where}.vertices", "rows have mixed lengths")
        return _built(VPolytope, source, where, rows)
    center, radius = _fields(body, ("center", "radius"), source, where, "expected {'center': [...], 'radius': r}")
    center = _numbers(center, source, f"{where}.center")
    if not _is_number(radius) or radius < 0:
        raise SchemaError(source, f"{where}.radius", "expected a number >= 0")
    return _built(Ball, source, where, center, _float(radius, source, f"{where}.radius"))


_MAP_CLASSES = {cls.key: cls for cls in (SublinearMap, SuperlinearMap)}


def map_to_json(m):
    if isinstance(m, _SupportMap):
        return {m.key: {m.set_key: set_to_json(m.set), "label": m.label}}
    raise TypeError(f"unsupported map type {type(m).__name__}")


def map_from_json(obj, source="<inline>", path="map"):
    key, body = _tagged(obj, _MAP_CLASSES, source, path, "expected a 'sublinear' or 'superlinear' key")
    cls, where = _MAP_CLASSES[key], f"{path}.{key}"
    (s,) = _fields(body, (cls.set_key,), source, where, f"expected {{'{cls.set_key}': <set>}}")
    s = set_from_json(s, source, f"{where}.{cls.set_key}")
    label = body.get("label", "")
    if not isinstance(label, str):
        raise SchemaError(source, f"{where}.label", "expected a string")
    return cls(s, label=label)


def _side_maps(objs, side, source, path):
    """The maps of the JSON list objs at path: sublinear ones for side
    "inf", superlinear ones for "sup"; another map is a SchemaError."""
    maps = [map_from_json(o, source, f"{path}[{i}]") for i, o in enumerate(objs)]
    want = SublinearMap if side == "inf" else SuperlinearMap
    for i, m in enumerate(maps):
        if not isinstance(m, want):
            raise SchemaError(source, f"{path}[{i}]", f"expected a {want.key} map")
    return maps


# the family sides of each kind; a "cts" family keeps each side's map list
# under its side's key in family.maps, the others keep theirs in family.maps
_SIDES = {"usc": ("inf",), "lsc": ("sup",), "cts": ("inf", "sup")}


def function_from_json(obj, source="<inline>"):
    (body,) = _fields(obj, ("family",), source, "$", "expected a 'family' object")
    _fields(body, (), source, "family", "expected an object")
    maps, kind = body.get("maps"), body.get("kind")
    if isinstance(maps, dict) and "builtin" in maps:
        name = maps["builtin"]
        if not isinstance(name, str):
            raise SchemaError(source, "family.maps.builtin", "expected a string")
        try:
            h = builtin(name)
        except UnknownBuiltin as exc:
            raise SchemaError(source, "family.maps.builtin", exc.message) from exc
        if kind is not None and kind != h.kind:
            raise SchemaError(source, "family.kind", f"builtin {name!r} has kind {h.kind!r}, not {kind!r}")
        return h
    if not isinstance(kind, str) or kind not in _SIDES:
        raise SchemaError(source, "family.kind", "expected 'usc', 'lsc' or 'cts'")
    if maps is None:
        raise SchemaError(source, "family.maps", "expected a map list or {'builtin': name}")
    sides = _SIDES[kind]
    if kind == "cts":
        lists = _fields(maps, sides, source, "family.maps", "continuous kind needs {'inf': [...], 'sup': [...]}")
        paths = [f"family.maps.{side}" for side in sides]
    else:
        lists, paths = [maps], ["family.maps"]
    # every list is checked before any map is read
    for objs, path in zip(lists, paths):
        _nonempty_list(objs, source, path)
    families, dims = {}, set()
    for side, objs, path in zip(sides, lists, paths):
        maps = _side_maps(objs, side, source, path)
        side_dims = {m.dim for m in maps}
        if len(side_dims) != 1:
            raise SchemaError(source, path, "maps have mixed dimensions")
        families[f"{side}_family"] = FiniteFamily(maps)
        dims |= side_dims
    if len(dims) != 1:
        raise SchemaError(source, "family.maps", "inf and sup sides have different dims")
    return PHFunction("user-family", dims.pop(), **families)


def pair_from_json(obj, source):
    """(phis, psis) of a pair document: sublinear and superlinear maps."""
    phis, psis = _fields(obj, ("phis", "psis"), source, "$", "expected {'phis': [maps], 'psis': [maps]}")
    if not isinstance(phis, list) or not isinstance(psis, list):
        raise SchemaError(source, "phis/psis", "expected lists of maps")
    return _side_maps(phis, "inf", source, "phis"), _side_maps(psis, "sup", source, "psis")


def element_to_json(f):
    if isinstance(f, RmElement):
        return {"rm": f.coords.tolist()}
    if isinstance(f, StepFunction):
        return {"step": {"breakpoints": f.breakpoints.tolist(), "values": f.values.tolist()}}
    raise TypeError(f"unsupported element type {type(f).__name__}")


def element_from_json(obj, source="<inline>", path="element"):
    tag, body = _tagged(obj, ("rm", "step"), source, path, "expected an 'rm' or 'step' key")
    where = f"{path}.{tag}"
    if tag == "rm":
        coords = _nonempty_list(_numbers(body, source, where), source, where)
        return _built(RmElement, source, where, coords)
    bp, values = _fields(
        body, ("breakpoints", "values"), source, where, "expected {'breakpoints': [...], 'values': [...]}"
    )
    bp = _numbers(bp, source, f"{where}.breakpoints")
    values = _numbers(values, source, f"{where}.values")
    return _built(StepFunction, source, where, bp, values)


def saddle_to_json(S):
    return {
        "saddle": {
            "coeffs": S.coeffs.tolist(),
            "phi_labels": list(S.phi_labels),
            "psi_labels": list(S.psi_labels),
        }
    }


def saddle_from_json(obj, source="<inline>"):
    (body,) = _fields(obj, ("saddle",), source, "$", "expected a 'saddle' object")
    (rows,) = _fields(body, ("coeffs",), source, "saddle", "expected {'coeffs': [[[...]]]}")
    try:
        coeffs = np.asarray(rows, dtype=float)
    except OverflowError:
        _floats_everywhere(rows, source, "saddle.coeffs")
        raise
    except (TypeError, ValueError):
        raise SchemaError(source, "saddle.coeffs", "expected a numeric 3-d array") from None
    if coeffs.ndim != 3:
        raise SchemaError(source, "saddle.coeffs", "expected shape (P, Q, n)")
    if not np.all(np.isfinite(coeffs)):
        raise SchemaError(source, "saddle.coeffs", "coefficients must be finite")
    for row in (row for plane in rows for row in plane):
        _numbers(row, source, "saddle.coeffs")
    labels = {}
    for key, count in (("phi_labels", coeffs.shape[0]), ("psi_labels", coeffs.shape[1])):
        if key in body:
            val = body[key]
            if not isinstance(val, list) or not all(isinstance(s, str) for s in val):
                raise SchemaError(source, f"saddle.{key}", "expected a list of strings")
            if len(val) != count:
                raise SchemaError(source, f"saddle.{key}", "label count mismatch")
            labels[key] = val
    return _built(SaddleFamily, source, "saddle.coeffs", coeffs, **labels)
