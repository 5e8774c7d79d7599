"""Exception types shared across the package, and the one reader and checker
of JSON input.

`read_json` reads a file that must hold a JSON object. `check_document`
checks a document against one of the bundled schemas/*.schema.json, using
the draft-07 keywords those schemas use; unlike draft-07, a "number" must be
a finite double. Both raise InvalidInputError with a message that names the key.
"""

import json
import re
import sys
from importlib import resources


class InvalidInputError(ValueError):
    """Raised when quantum numbers, units or configuration are malformed."""


class ResonanceError(ArithmeticError):
    """Raised when an off-resonant formula is evaluated too close to a resonance."""


class QuadratureConvergenceError(RuntimeError):
    """Raised when the noise average does not converge within 3073 nodes
    (x = b/sigma_B in [-6, 6] at step 1/256)."""


class IntegrationError(RuntimeError):
    """Raised when the Floquet oracle misses its accuracy targets: its series is
    unconverged at the harmonic cap, or its populations drift from unit sum."""


class FitError(RuntimeError):
    """Raised when a spectrum fit does not converge or has a degenerate covariance."""


def read_json(path, what: str) -> dict:
    """The JSON object in the file at `path` (a Path or package resource);
    `what` names the file in errors; an object that repeats a key is one."""
    def unique(pairs: list) -> dict:
        if len(doc := dict(pairs)) < len(pairs):
            key = next(key for key in doc if [k for k, _ in pairs].count(key) > 1)
            raise InvalidInputError(f"{what} repeats the key {key!r} in one object")
        return doc

    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=unique)
    except InvalidInputError:   # a ValueError, but not a syntax error
        raise
    except OSError as exc:
        raise InvalidInputError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise InvalidInputError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} must hold a JSON object")
    return doc


def check_document(doc, name: str, where: str):
    """Return `doc` if it satisfies the bundled schema `name`, else raise.

    `name` is a schema file's stem with an optional JSON pointer, such as
    "cli_output#/definitions/fit_result"; `where` names the document in
    errors.
    """
    stem, _, pointer = name.partition("#")
    root = json.loads(resources.files("trapquad").joinpath(
        "schemas", f"{stem}.schema.json").read_text(encoding="utf-8"))
    _check(doc, _resolve(root, pointer), root, "", where)
    return doc


def _resolve(root: dict, pointer: str) -> dict:
    for part in filter(None, pointer.split("/")):
        root = root[part]
    return root


def _is_type(value, kind: str) -> bool:
    if isinstance(value, bool):
        return kind == "boolean"
    if kind == "integer":
        return isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if kind == "number":
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, {"object": dict, "array": list, "string": str,
                              "boolean": bool}[kind])


def _same(a, b) -> bool:
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _check(value, schema: dict, root: dict, path: str, where: str) -> None:
    """Raise InvalidInputError if `value`, at `path` in the document, fails
    `schema`; keywords not listed here are annotations."""
    at = f"{path} in {where}" if path else where
    if "$ref" in schema:
        _check(value, _resolve(root, schema["$ref"].partition("#")[2]), root, path, where)
        return
    if "oneOf" in schema:
        errors = []
        for branch in schema["oneOf"]:
            try:
                _check(value, branch, root, path, where)
            except InvalidInputError as exc:
                errors.append(str(exc))
        if len(errors) == len(schema["oneOf"]):
            raise InvalidInputError(", or ".join(errors))
        if len(errors) < len(schema["oneOf"]) - 1:
            raise InvalidInputError(f"{at} matches more than one form: {value!r}")
    kind = schema.get("type")
    if kind is not None and not _is_type(value, kind):
        noun = "finite number" if kind == "number" else kind
        article = "an" if noun[0] in "aeiou" else "a"
        raise InvalidInputError(f"{at} must be {article} {noun}, not {value!r}")
    if "const" in schema and not _same(value, schema["const"]):
        raise InvalidInputError(f"{at} must be {schema['const']!r}, not {value!r}")
    if "enum" in schema and not any(_same(value, e) for e in schema["enum"]):
        raise InvalidInputError(f"{at} must be one of {schema['enum']}, not {value!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            raise InvalidInputError(f"{at} must be >= {schema['minimum']}, not {value!r}")
        if "maximum" in schema and value > schema["maximum"]:
            raise InvalidInputError(f"{at} must be <= {schema['maximum']}, not {value!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise InvalidInputError(
                f"{at} must be > {schema['exclusiveMinimum']}, not {value!r}")
    if (isinstance(value, str) and "pattern" in schema
            and not re.search(schema["pattern"], value)):
        raise InvalidInputError(f"{at} must match {schema['pattern']}, not {value!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            raise InvalidInputError(f"{at} needs at least {schema['minItems']} item(s)")
        for i, item in enumerate(value if "items" in schema else ()):
            _check(item, schema["items"], root, f"{path}[{i}]", where)
    if isinstance(value, dict):
        prefix = f"{path}." if path else ""
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        if extra is False:
            unknown = sorted(set(value) - set(props))
            if unknown:
                raise InvalidInputError(f"unknown key(s) in {where}: "
                                        + ", ".join(repr(prefix + k) for k in unknown))
        for key, item in value.items():
            sub = props.get(key, extra)
            if isinstance(sub, dict):
                _check(item, sub, root, prefix + key, where)
        for key in schema.get("required", ()):
            if key not in value:
                raise InvalidInputError(f"missing {prefix + key} in {where}")
