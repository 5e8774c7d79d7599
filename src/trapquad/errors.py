"""Exception types shared across the package, and the unknown-key check that
reads the bundled JSON schemas."""

import json
from importlib import resources


class InvalidInputError(ValueError):
    """Raised when quantum numbers, units or configuration are malformed."""


class ResonanceError(ArithmeticError):
    """Raised when an off-resonant formula is evaluated too close to a resonance."""


class QuadratureConvergenceError(RuntimeError):
    """Raised when the noise average does not converge within 4097 nodes."""


class IntegrationError(RuntimeError):
    """Raised when the time-dependent integrator misses its accuracy targets."""


class FitError(RuntimeError):
    """Raised when a spectrum fit does not converge or has a degenerate covariance."""


def bundled_schema(name: str) -> dict:
    """The bundled schemas/<name>.schema.json."""
    return json.loads(resources.files("trapquad").joinpath(
        "schemas", f"{name}.schema.json").read_text())


def reject_unknown_keys(block: dict, schema: dict, where: str) -> None:
    """Raise InvalidInputError on keys this block's schema does not list."""
    unknown = sorted(set(block) - set(schema["properties"]))
    if unknown:
        raise InvalidInputError(
            f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}"
        )
