"""Bundled species data: level structure, quadrupole moments, hyperfine energies.

Species files are versioned JSON documents (see schemas/species.schema.json);
a key that schema does not list is an error.
Angular momenta appear as strings like "7/2" or "3"; energies are in Hz.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .angular import HalfInt
from .coupling import LevelSpec
from .effects import ClockTransition
from .errors import InvalidInputError, bundled_schema, reject_unknown_keys
from .trap import CODATA2018

SCHEMA_VERSION = 1
BUNDLED = ("ba138", "lu176")


def parse_half_int(text: str | int | float) -> HalfInt:
    """Parse '5/2', '3', 3 or 2.5 into a HalfInt."""
    if isinstance(text, str):
        text = text.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            if den.strip() != "2":
                raise InvalidInputError(f"half-integer denominators must be 2: {text!r}")
            return HalfInt.from_twice(int(num))
        return HalfInt(int(text))
    return HalfInt(text)


@dataclass(frozen=True)
class Species:
    """A loaded species file."""

    name: str
    mass_kg: float
    nuclear_spin: HalfInt
    levels: dict[str, LevelSpec]
    transitions: dict[str, ClockTransition]

    def level(self, term: str) -> LevelSpec:
        try:
            return self.levels[term]
        except KeyError:
            raise InvalidInputError(
                f"species {self.name} has no level {term!r}; "
                f"available: {sorted(self.levels)}"
            ) from None

    def transition(self, label: str) -> ClockTransition:
        try:
            return self.transitions[label]
        except KeyError:
            raise InvalidInputError(
                f"species {self.name} has no transition {label!r}; "
                f"available: {sorted(self.transitions)}"
            ) from None


def _bundled_path(name: str):
    return resources.files("trapquad").joinpath("species", f"{name}.json")


def load_species(name_or_path: str | Path) -> Species:
    """Load a bundled species by short name or any species JSON by path."""
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"species file is not valid JSON: {exc}") from None
    else:
        key = str(name_or_path).lower()
        if key not in BUNDLED:
            raise InvalidInputError(
                f"unknown species {name_or_path!r}; bundled: {BUNDLED}"
            )
        raw = json.loads(_bundled_path(key).read_text())
    return parse_species(raw)


def parse_species(raw: dict) -> Species:
    if not isinstance(raw, dict):
        raise InvalidInputError("species file must hold a JSON object")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise InvalidInputError(
            f"unsupported species schema_version {version!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    schema = bundled_schema("species")
    reject_unknown_keys(raw, schema, "species file")
    entry_schema = {key: schema["properties"][key]["items"]
                    for key in ("levels", "transitions")}
    for key in ("name", "mass_u", "nuclear_spin", "levels"):
        if key not in raw:
            raise InvalidInputError(f"species file missing field {key!r}")
    nuclear_spin = parse_half_int(raw["nuclear_spin"])

    levels: dict[str, LevelSpec] = {}
    for entry in raw["levels"]:
        reject_unknown_keys(entry, entry_schema["levels"], "level entry")
        for key in ("term", "j", "theta_e_a02"):
            if key not in entry:
                raise InvalidInputError(f"level entry missing field {key!r}")
        energies = entry.get("hyperfine_f_energies_hz")
        if energies is not None:
            energies = {parse_half_int(f): float(e) for f, e in energies.items()}
        term = entry["term"]
        levels[term] = LevelSpec(
            nuclear_spin=nuclear_spin,
            electronic_j=parse_half_int(entry["j"]),
            theta_e_a02=float(entry["theta_e_a02"]),
            hyperfine_energies_hz=energies,
            label=f"{raw['name']} {term}",
        )

    transitions: dict[str, ClockTransition] = {}
    for entry in raw.get("transitions", []):
        reject_unknown_keys(entry, entry_schema["transitions"],
                            "transition entry")
        for key in ("label", "upper", "frequency_hz"):
            if key not in entry:
                raise InvalidInputError(f"transition entry missing field {key!r}")
        upper = entry["upper"]
        if upper not in levels:
            raise InvalidInputError(
                f"transition {entry['label']!r} references unknown level {upper!r}"
            )
        transitions[entry["label"]] = ClockTransition(
            level=levels[upper],
            frequency_hz=float(entry["frequency_hz"]),
            hyperfine_averaged=bool(entry.get("hyperfine_averaged", True)),
        )

    return Species(
        name=raw["name"],
        mass_kg=float(raw["mass_u"]) * CODATA2018.atomic_mass,
        nuclear_spin=nuclear_spin,
        levels=levels,
        transitions=transitions,
    )
