"""The JSON reader and schema checker in trapquad.errors, checked against
jsonschema's draft-07 validator."""

import copy
import inspect
import json
import math
from pathlib import Path

import jsonschema
import pytest

from test_cli import BA_CONFIG, LU_CONFIG, write_counts_csv
from trapquad import errors
from trapquad.cli import main
from trapquad.errors import InvalidInputError, check_document, read_json

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trapquad"
SCHEMAS = {path.name.removesuffix(".schema.json"): json.loads(path.read_text())
           for path in (PACKAGE / "schemas").glob("*.schema.json")}
FIT_RESULT = {"$ref": "#/definitions/fit_result",
              "definitions": SCHEMAS["cli_output"]["definitions"]}

# one field's replacements: wrong types, out-of-range and malformed half-integers
REPLACEMENTS = ("x", "a/2", "7.5", "5/2", "-3", -3, 0, 0.5, 1.0, 2.5e6, -1e-9,
                None, True, [], [3], {}, {"7": 1.0})
ANNOTATIONS = {"$schema", "title", "description", "definitions"}


@pytest.fixture(scope="module")
def fit_output(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fit")
    out = tmp / "fit.json"
    assert main(["fit", "--data", write_counts_csv(tmp / "data.csv"), "--tau",
                 "1.2e-3", "--format", "json", "-o", str(out)]) == 0
    return json.loads(out.read_text())


def documents(fit_output):
    """(schema name, draft-07 schema, document) for every input format."""
    species = [json.loads((PACKAGE / "species" / f"{name}.json").read_text())
               for name in ("ba138", "lu176")]
    return ([("species", SCHEMAS["species"], doc) for doc in species]
            + [("run_config", SCHEMAS["run_config"], doc)
               for doc in (BA_CONFIG, LU_CONFIG)]
            + [("cli_output#/definitions/fit_result", FIT_RESULT, fit_output)])


def nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from nodes(value, path + (key,))


def edited(doc, path, edit):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    edit(parent, path[-1])
    return doc


def mutations(doc):
    """(label, document) pairs that each change one field of `doc`."""
    for path, node in nodes(doc):
        if isinstance(node, dict):
            yield f"{path} gains a key", edited(
                doc, path + ("typo_key",), lambda p, k: p.__setitem__(k, 1))
        if not path:
            continue
        for value in REPLACEMENTS:
            yield f"{path} = {value!r}", edited(
                doc, path, lambda p, k, v=value: p.__setitem__(k, v))
        yield f"{path} removed", edited(doc, path, lambda p, k: p.pop(k))


def raises(name, doc) -> bool:
    try:
        check_document(doc, name, "document")
    except InvalidInputError:
        return True
    return False


def test_agrees_with_jsonschema_on_single_field_edits(fit_output):
    checked = 0
    for name, schema, doc in documents(fit_output):
        validator = jsonschema.Draft7Validator(schema)
        assert validator.is_valid(doc) and not raises(name, doc)
        for label, bad in mutations(doc):
            checked += 1
            assert raises(name, bad) == (not validator.is_valid(bad)), (name, label)
    assert checked > 2000


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "1e400"])
def test_rejects_every_non_finite_number(fit_output, value):
    # the one intended difference: draft-07 accepts NaN, infinities and JSON
    # integers that no double holds (a 10**400 mass_u ended in OverflowError)
    for name, _, doc in documents(fit_output):
        for path, node in nodes(doc):
            if isinstance(node, float):
                bad = edited(doc, path, lambda p, k: p.__setitem__(k, value))
                assert raises(name, bad), (name, path)


def test_reads_every_keyword_the_bundled_schemas_use():
    def keywords(schema):
        found = set(schema)
        subs = [*schema.get("properties", {}).values(),
                *schema.get("definitions", {}).values(), *schema.get("oneOf", ())]
        subs += [schema[k] for k in ("items", "additionalProperties")
                 if isinstance(schema.get(k), dict)]
        return found.union(*map(keywords, subs))

    used = set().union(*map(keywords, SCHEMAS.values())) - ANNOTATIONS
    source = inspect.getsource(errors._check)
    assert used and not {kw for kw in used if f'"{kw}"' not in source}


def test_one_of_rejects_a_value_matching_two_forms():
    # no bundled schema has overlapping forms, so a small one stands in
    schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
    errors._check(2.5, schema, schema, "x", "doc")
    with pytest.raises(InvalidInputError, match="^x in doc matches more than one form: 3$"):
        errors._check(3, schema, schema, "x", "doc")


def test_messages_name_the_path():
    doc = copy.deepcopy(BA_CONFIG)
    doc["trap"]["secular_hz"]["omega_x"] = "fast"
    with pytest.raises(InvalidInputError,
                       match=r"^trap\.secular_hz\.omega_x in config must be a finite"):
        check_document(doc, "run_config", "config")
    del doc["trap"]["secular_hz"]["omega_y"]
    doc["trap"]["secular_hz"]["omega_q"] = 1.0
    with pytest.raises(InvalidInputError, match="'trap.secular_hz.omega_q'"):
        check_document(doc, "run_config", "config")


@pytest.mark.parametrize("text,match", [
    (None, "cannot read"), ("{", "not valid JSON"), ("[1, 2]", "JSON object"),
])
def test_read_json_errors(tmp_path, text, match):
    path = tmp_path / "doc.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(InvalidInputError, match=match):
        read_json(path, "test file")
