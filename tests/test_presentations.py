"""Structured-text input files: round trips and malformed-input errors."""

import json

import pytest

from conftest import DATA, GOLDENS
from hopfcyclic.cli import main
from hopfcyclic.hopf import check_hopf_axioms, cyclic_group_algebra, sweedler_h4
from hopfcyclic.presentations import (PresentationError, dump_hopf,
                                      hopf_from_dict, hopf_to_dict,
                                      load_gamma_input, load_hopf, load_lie,
                                      load_pairing_input)


def test_round_trip(tmp_path):
    for H in (sweedler_h4(), cyclic_group_algebra(3)):
        path = tmp_path / "h.json"
        dump_hopf(H, path)
        H2 = load_hopf(str(path))
        assert H2.dim == H.dim
        def drop_empty(d):
            return {k: v for k, v in d.items() if v}
        assert drop_empty(H2.product) == drop_empty(H.product)
        assert drop_empty(H2.coproduct) == drop_empty(H.coproduct)
        assert drop_empty(H2.antipode) == drop_empty(H.antipode)
        assert sorted(H2.characters) == sorted(H.characters)
        assert check_hopf_axioms(H2).ok


def test_shipped_examples_load(data_dir):
    H = load_hopf(str(data_dir / "sweedler-h4.json"))
    assert H.dim == 4 and "delta" in H.characters
    U = load_lie(str(data_dir / "axb-lie.json"))
    assert U.lie.dim == 2
    A, phi, E, q = load_pairing_input(str(data_dir / "pair-qz2.json"))
    assert q == 2 and E
    action, delta, trace = load_gamma_input(
        str(data_dir / "gamma-translation.json"))
    assert action.hopf.dim == 2 and action.algebra.dim == 2


def test_unreadable_file():
    with pytest.raises(PresentationError):
        load_hopf("/nonexistent/file.json")


def test_invalid_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json")
    with pytest.raises(PresentationError):
        load_hopf(str(p))


def base_dict():
    return hopf_to_dict(cyclic_group_algebra(2))


@pytest.mark.parametrize("mutate,msg", [
    (lambda d: d.pop("coproduct"), "missing"),
    (lambda d: d.__setitem__("dim", -1), "dim"),
    (lambda d: d.__setitem__("unit", ["1"]), "unit"),
    (lambda d: d["product"].append([0, 0, 9, "1"]), "index"),
    (lambda d: d["product"].append([0, 0]), "product"),
    (lambda d: d.__setitem__("counit", ["1", "pi"]), "scalar"),
    (lambda d: d.__setitem__("field", {"kind": "real"}), "field"),
])
def test_malformed_hopf_rejected(mutate, msg):
    d = base_dict()
    mutate(d)
    with pytest.raises(PresentationError) as err:
        hopf_from_dict(d, "<test>")
    assert msg.lower() in str(err.value).lower()


def test_invalid_character_rejected():
    d = base_dict()
    d["characters"] = {"bogus": ["1", "2"]}  # 2 is not a square root of 1
    with pytest.raises(PresentationError):
        hopf_from_dict(d, "<test>")


def test_lie_jacobi_failure_rejected(tmp_path):
    p = tmp_path / "lie.json"
    p.write_text(json.dumps(
        {"dim": 3, "brackets": [[0, 1, 0, "1"], [1, 2, 1, "1"]]}))
    with pytest.raises(PresentationError):
        load_lie(str(p))


def test_pairing_degree_validation(tmp_path):
    p = tmp_path / "pair.json"
    data = {"algebra": base_dict(), "q": 1,
            "cochain": {"degree": 1, "entries": []},
            "idempotent": []}
    p.write_text(json.dumps(data))
    with pytest.raises(PresentationError):
        load_pairing_input(str(p))


def test_cyclotomic_field_round_trip(tmp_path):
    from hopfcyclic.fields import CyclotomicField
    H = cyclic_group_algebra(4, field=CyclotomicField(4))
    path = tmp_path / "h.json"
    dump_hopf(H, path)
    H2 = load_hopf(str(path))
    assert H2.field.to_spec() == {"kind": "cyclotomic", "order": 4}
    assert check_hopf_axioms(H2).ok


def test_dump_reproduces_shipped_presentation_bytes(tmp_path):
    golden = GOLDENS / "cli" / "qz4-zeta4.json"
    out = tmp_path / "qz4.json"
    dump_hopf(load_hopf(str(golden)), out)
    assert out.read_bytes() == golden.read_bytes()


def _with(source, **fields):
    def build():
        data = json.loads((DATA / source).read_text())
        data.update(fields)
        return data
    return build


def _nonassociative_block():
    # a a = b, b a = a, a b = 0: (a a) a = a but a (a a) = 0
    product = [[0, i, i, "1"] for i in range(3)] + \
        [[i, 0, i, "1"] for i in (1, 2)] + [[1, 1, 2, "1"], [2, 1, 1, "1"]]
    return {"name": "nonassoc", "dim": 3, "basis": ["e", "a", "b"],
            "unit": ["1", "0", "0"], "product": product}


def _blank_cyclotomic_scalar():
    data = json.loads((GOLDENS / "cli" / "qz4-zeta4.json").read_text())
    data["product"][0][3] = ""
    return data


def _numeric_scalar():
    data = json.loads((DATA / "qz2.json").read_text())
    data["product"][0][3] = 1
    return data


def _algebra_over_zeta4():
    data = json.loads((DATA / "gamma-translation.json").read_text())
    return {**data["algebra"], "field": {"kind": "cyclotomic", "order": 4}}


# (case id, command, top-level JSON value of the --input file, message)
MALFORMED = [
    ("product-int", "check-hopf", _with("qz2.json", product=5),
     "product must be a list of [i, j, k, scalar] rows"),
    ("antipode-null", "check-hopf", _with("qz2.json", antipode=None),
     "antipode must be a list"),
    ("characters-list", "check-hopf",
     _with("qz2.json", characters=[["1", "1"]]), "characters must map"),
    ("numeric-scalar", "check-hopf", _numeric_scalar,
     "scalar in product must be a string, not 1"),
    ("blank-cyclotomic-scalar", "check-hopf", _blank_cyclotomic_scalar,
     "bad scalar '' in product: empty term in ''"),
    ("name-list", "check-hopf", _with("qz2.json", name=["x"]),
     "name must be a string"),
    ("dim-true", "check-hopf", _with("qz2.json", dim=True),
     "dim must be a positive integer"),
    ("field-int", "check-hopf", _with("qz2.json", field=5), "bad field spec"),
    ("order-true", "cohomology",
     _with("sweedler-h4.json", field={"kind": "cyclotomic", "order": True}),
     "cyclotomic order must be a positive integer, not True"),
    ("order-float", "cohomology",
     _with("sweedler-h4.json", field={"kind": "cyclotomic", "order": 2.5}),
     "cyclotomic order must be a positive integer, not 2.5"),
    ("order-string", "cohomology",
     _with("sweedler-h4.json", field={"kind": "cyclotomic", "order": "3"}),
     "cyclotomic order must be a positive integer, not '3'"),
    ("top-string", "check-hopf", lambda: "qz2", "expected a mapping"),
    ("brackets-int", "cyclic-relations", _with("axb-lie.json", brackets=4),
     "brackets must be a list"),
    ("lie-cyclotomic", "cyclic-relations",
     _with("axb-lie.json", field={"kind": "cyclotomic", "order": 4}),
     "over the rationals"),
    ("relations-top-int", "cyclic-relations", lambda: 5,
     "expected a mapping"),
    ("relations-top-string", "cyclic-relations", lambda: "brackets",
     "expected a mapping"),
    ("cochain-list", "pair", _with("pair-qz2.json", cochain=[1]),
     "cochain: expected a mapping"),
    ("idempotent-int", "pair", _with("pair-qz2.json", idempotent=5),
     "idempotent must be a list"),
    ("q-true", "pair", _with("pair-qz2.json", q=True),
     "q must be a positive integer"),
    ("pair-top-int", "pair", lambda: 5, "expected a mapping"),
    ("pair-nonassociative", "pair",
     _with("pair-qz2.json", algebra=_nonassociative_block(), q=1),
     "algebra: nonassoc: associativity fails at (1,1,1)"),
    ("action-rows-int", "gamma-check",
     _with("gamma-translation.json", action=[5, 5]),
     "action[0] must be a list"),
    ("character-list", "gamma-check",
     _with("gamma-translation.json", character=["counit"]),
     "character must be a string"),
    ("gamma-top-int", "gamma-check", lambda: 5, "expected a mapping"),
    ("gamma-fields-differ", "gamma-check",
     _with("gamma-translation.json", algebra=_algebra_over_zeta4()),
     "hopf and algebra must share a field"),
    ("action-too-short", "gamma-check",
     _with("gamma-translation.json", action=[[[0, 0, "1"], [1, 1, "1"]]]),
     "action must list one matrix per Hopf basis element"),
]


@pytest.mark.parametrize("command,build,message", [c[1:] for c in MALFORMED],
                         ids=[c[0] for c in MALFORMED])
def test_malformed_input_exits_2_with_one_error_line(capsys, tmp_path,
                                                     command, build, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(build()))
    assert main([command, "--input", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    lines = out.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")
    assert message in lines[0]


@pytest.mark.parametrize("command,source,argv", [
    ("pair", "pair-qz2.json", []),
    ("gamma-check", "gamma-translation.json", ["--max-degree", "2"]),
])
def test_algebra_block_needs_no_hopf_structure(capsys, tmp_path, command,
                                               source, argv):
    data = json.loads((DATA / source).read_text())
    for key in ("coproduct", "counit", "antipode", "characters"):
        del data["algebra"][key]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main([command, "--input", str(path), *argv]) == 0
    bare = capsys.readouterr()
    assert main([command, "--input", str(DATA / source), *argv]) == 0
    full = capsys.readouterr()
    assert bare.err == "" and bare.out == full.out
