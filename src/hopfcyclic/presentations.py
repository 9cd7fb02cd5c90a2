"""Load and save algebra presentations in a structured text (JSON) format.

A Hopf presentation carries: name, field ({"kind": "rational"} or
{"kind": "cyclotomic", "order": m}), dim, basis, unit (scalar list),
product (rows [i, j, k, "c"]: e_i e_j gains c e_k), coproduct (rows
[i, j, k, "c"]: Delta(e_i) gains c e_j (x) e_k), counit (scalar list),
antipode (rows [i, j, "c"]: S(e_i) gains c e_j) and characters (named
scalar lists).  Indices are 0-based and omitted entries are zero.

An algebra block is the first half of a Hopf presentation: field, name,
dim, basis, unit and product; other keys are ignored.  Lie presentations
carry dim and brackets (rows [i, j, k, "c"]).  Pairing and action inputs
bundle an algebra block (and, for actions, a Hopf presentation) with
matrices, trace vectors and idempotents in the same scalar syntax.

Every [index..., "c"] table goes through ``_table``, so a malformed file
raises PresentationError and nothing else.
"""

from __future__ import annotations

import json

from .actions import HopfAction, Trace
from .enveloping import EnvelopingAlgebra, LieAlgebra
from .fields import field_from_spec
from .hopf import CharacterError, FiniteAlgebra, FiniteHopf


class PresentationError(Exception):
    """Malformed input, or an output file that cannot be written; the CLI
    maps this to exit code 2."""


def _fail(msg):
    raise PresentationError(msg)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        _fail(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail(f"{path} is not valid structured text: {exc}")


def _require(data, keys, path):
    """data[key] for each key; data must be a mapping that has them all."""
    if not isinstance(data, dict):
        _fail(f"{path}: expected a mapping with fields {', '.join(keys)}")
    for key in keys:
        if key not in data:
            _fail(f"{path}: missing field {key!r}")
    return [data[key] for key in keys]


def _field_of(data, path):
    try:
        return field_from_spec(data.get("field", {"kind": "rational"}))
    except (KeyError, TypeError, ValueError) as exc:
        _fail(f"{path}: bad field spec: {exc}")


def _positive_int(value, path, where):
    if type(value) is not int or value < 1:
        _fail(f"{path}: {where} must be a positive integer")


def _string(value, path, where):
    if not isinstance(value, str):
        _fail(f"{path}: {where} must be a string, not {value!r}")
    return value


def _scalar(field, text, path, where):
    try:
        return field.parse(_string(text, path, f"scalar in {where}"))
    except ValueError as exc:
        _fail(f"{path}: bad scalar {text!r} in {where}: {exc}")


def _scalar_list(field, rows, dim, path, where):
    if not isinstance(rows, list) or len(rows) != dim:
        _fail(f"{path}: {where} must be a list of {dim} scalars")
    return [_scalar(field, v, path, where) for v in rows]


def _index(v, bound, path, where):
    if type(v) is not int or not 0 <= v < bound:
        _fail(f"{path}: index {v!r} out of range in {where}")
    return v


def _table(field, rows, bounds, path, where, shape):
    """{index tuple: scalar} from rows [i_1, ..., i_n, "c"] with
    0 <= i_m < bounds[m]; repeated index tuples are summed, zeros dropped."""
    if not isinstance(rows, list):
        _fail(f"{path}: {where} must be a list of {shape} rows")
    out = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != len(bounds) + 1:
            _fail(f"{path}: {where} rows must be {shape}")
        key = tuple(_index(v, n, path, where) for v, n in zip(row, bounds))
        c = _scalar(field, row[-1], path, where)
        out[key] = out[key] + c if key in out else c
    return {key: c for key, c in out.items() if c}


def _nest(table, split):
    """{outer: {inner: c}} from {index tuple: c}; outer is key[:split]."""
    out = {}
    for key, c in table.items():
        outer, inner = (part[0] if len(part) == 1 else part
                        for part in (key[:split], key[split:]))
        out.setdefault(outer, {})[inner] = c
    return out


def _rows(field, nested):
    """Inverse of _nest: sorted rows [index..., "c"] of {outer: {inner: c}}."""
    def flat(key):
        return key if isinstance(key, tuple) else (key,)
    return [[*flat(outer), *flat(inner), field.format(c)]
            for outer in sorted(nested)
            for inner, c in sorted(nested[outer].items())]


def _algebra_parts(data, path):
    """(name, field, dim, basis, unit, product) of an algebra block; keys
    other than field, name, dim, basis, unit and product are ignored."""
    name, dim, basis, unit, product = _require(
        data, ("name", "dim", "basis", "unit", "product"), path)
    field = _field_of(data, path)
    _string(name, path, "name")
    _positive_int(dim, path, "dim")
    if not isinstance(basis, list) or len(basis) != dim or not all(
            isinstance(label, str) for label in basis):
        _fail(f"{path}: basis must list {dim} string labels")
    return (name, field, dim, basis,
            dict(enumerate(_scalar_list(field, unit, dim, path, "unit"))),
            _nest(_table(field, product, (dim,) * 3, path, "product",
                         "[i, j, k, scalar]"), 2))


def hopf_from_dict(data, path):
    *_, coproduct, counit, antipode = _require(
        data, ("name", "dim", "basis", "unit", "product", "coproduct",
               "counit", "antipode"), path)
    name, field, dim, basis, unit, product = _algebra_parts(data, path)
    characters = data.get("characters", {})
    if not isinstance(characters, dict):
        _fail(f"{path}: characters must map names to scalar lists")
    try:
        return FiniteHopf(
            name, field, basis, unit, product,
            _nest(_table(field, coproduct, (dim,) * 3, path, "coproduct",
                         "[i, j, k, scalar]"), 1),
            _scalar_list(field, counit, dim, path, "counit"),
            _nest(_table(field, antipode, (dim,) * 2, path, "antipode",
                         "[i, j, scalar]"), 1),
            characters={cname: _scalar_list(field, values, dim, path,
                                            f"character {cname}")
                        for cname, values in characters.items()})
    except CharacterError as exc:
        _fail(f"{path}: {exc}")


def load_hopf(path):
    return hopf_from_dict(_load_json(path), path)


def hopf_to_dict(H):
    field = H.field
    return {
        "name": H.name,
        "field": field.to_spec(),
        "dim": H.dim,
        "basis": list(H.basis),
        "unit": [field.format(H.unit.get(i, 0)) for i in range(H.dim)],
        "product": _rows(field, H.product),
        "coproduct": _rows(field, H.coproduct),
        "counit": [field.format(v) for v in H.counit],
        "antipode": _rows(field, H.antipode),
        "characters": {name: [field.format(v) for v in ch.values]
                       for name, ch in sorted(H.characters.items())},
    }


def dump_hopf(H, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(hopf_to_dict(H), fh, indent=1)
        fh.write("\n")


def load_lie(path):
    return lie_from_dict(_load_json(path), path)


def lie_from_dict(data, path):
    dim, rows = _require(data, ("dim", "brackets"), path)
    field = _field_of(data, path)
    if field.kind != "rational":
        _fail(f"{path}: a Lie presentation must be over the rationals")
    _positive_int(dim, path, "dim")
    brackets = _table(field, rows, (dim,) * 3, path, "brackets",
                      "[i, j, k, scalar]")
    try:
        return EnvelopingAlgebra(LieAlgebra(dim, _nest(brackets, 2)))
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def _algebra(data, path):
    """The FiniteAlgebra of an algebra block, which rejects a table that
    breaks the unit law or associativity.  A Hopf presentation read this
    way gives its algebra half alone."""
    name, field, _, basis, unit, product = _algebra_parts(data, path)
    try:
        return FiniteAlgebra(name, field, basis, unit, product)
    except ValueError as exc:
        _fail(f"{path}: {exc}")


def load_pairing_input(path):
    """Input for the idempotent pairing: an algebra block (field, name,
    dim, basis, unit and product; a Hopf presentation also serves, its
    other keys ignored), a cochain of even degree, an idempotent in M_q(A)
    and the amplification size q.

    cochain: {"degree": 2m, "entries": [[i0, ..., i2m, "c"], ...]}
    idempotent: [[row, col, basis-index, "c"], ...] inside M_q(A).
    """
    algebra, spec, rows, q = _require(
        _load_json(path), ("algebra", "cochain", "idempotent", "q"), path)
    A = _algebra(algebra, f"{path}: algebra")
    _positive_int(q, path, "q")
    degree, = _require(spec, ("degree",), f"{path}: cochain")
    if type(degree) is not int or degree not in (0, 2):
        _fail(f"{path}: cochain degree must be 0 or 2")
    phi = _table(A.field, spec.get("entries", []), (A.dim,) * (degree + 1),
                 path, "cochain", f"[{degree + 1} indices, scalar]")
    E = _table(A.field, rows, (q, q, A.dim), path, "idempotent",
               "[row, col, basis, scalar]")
    return A, phi, _nest(E, 2), q


def load_gamma_input(path):
    """Input for the characteristic-map check: a Hopf presentation, a
    character name, an algebra block, one action matrix per H-basis
    element ([row, col, "c"] rows) and a trace vector.  Returns (action,
    delta, trace); the action holds H and A."""
    hopf, character, algebra, action, trace = _require(
        _load_json(path), ("hopf", "character", "algebra", "action", "trace"),
        path)
    H = hopf_from_dict(hopf, f"{path}: hopf")
    try:
        delta = H.character(_string(character, path, "character"))
    except CharacterError as exc:
        _fail(f"{path}: {exc}")
    A = _algebra(algebra, f"{path}: algebra")
    if A.field != H.field:
        _fail(f"{path}: hopf and algebra must share a field")
    if not isinstance(action, list) or len(action) != H.dim:
        _fail(f"{path}: action must list one matrix per Hopf basis element")
    matrices = {i: _table(A.field, rows, (A.dim, A.dim), path, f"action[{i}]",
                          "[row, col, scalar]")
                for i, rows in enumerate(action)}
    trace = Trace(A, _scalar_list(A.field, trace, A.dim, path, "trace"))
    return HopfAction(H, A, matrices), delta, trace
