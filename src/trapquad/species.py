"""Bundled species data: level structure, quadrupole moments, hyperfine energies.

Species files are versioned JSON documents. `parse_species` checks each one
against schemas/species.schema.json through `errors.check_document`, so a
wrong type, a missing or unknown key, or a non-finite number is an
InvalidInputError; what the schema cannot say is checked here (a transition's
upper level, a repeated term or label) or by LevelSpec (one hyperfine energy
for each F of a level).
Angular momenta appear as strings like "7/2" or "3"; energies are in Hz.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .angular import HalfInt
from .coupling import LevelSpec
from .effects import ClockTransition
from .errors import InvalidInputError, check_document, read_json
from .trap import CODATA2018

BUNDLED = ("ba138", "lu176")


@dataclass(frozen=True)
class Species:
    """A loaded species file."""

    name: str
    mass_kg: float
    levels: dict[str, LevelSpec]
    transitions: dict[str, ClockTransition]

    def level(self, term: str) -> LevelSpec:
        return self._lookup(self.levels, term, "level")

    def transition(self, label: str) -> ClockTransition:
        return self._lookup(self.transitions, label, "transition")

    def _lookup(self, table: dict, key: str, what: str):
        """table[key], or an InvalidInputError that lists the keys there are."""
        try:
            return table[key]
        except KeyError:
            raise InvalidInputError(f"species {self.name} has no {what} {key!r}; "
                                    f"available: {sorted(table)}") from None


def load_species(name_or_path: str | Path) -> Species:
    """Load a bundled species by short name or any species JSON by path."""
    path = Path(name_or_path)
    if not (path.suffix == ".json" and path.exists()):
        key = str(name_or_path).lower()
        if key not in BUNDLED:
            raise InvalidInputError(
                f"unknown species {name_or_path!r}; bundled: {BUNDLED}"
            )
        path = resources.files("trapquad").joinpath("species", f"{key}.json")
    return parse_species(read_json(path, "species file"))


def _new_key(seen: dict, key, where: str, what: str):
    """`key`, unless `seen` holds it already: a second entry would replace
    the first without a word."""
    if key in seen:
        raise InvalidInputError(f"{where} in species file repeats {what} {key!r}")
    return key


def parse_species(raw: dict) -> Species:
    """A Species from a document that schemas/species.schema.json accepts."""
    check_document(raw, "species", "species file")
    nuclear_spin = HalfInt(raw["nuclear_spin"])

    levels: dict[str, LevelSpec] = {}
    for i, entry in enumerate(raw["levels"]):
        term = _new_key(levels, entry["term"], f"levels[{i}].term", "term")
        levels[term] = LevelSpec(
            nuclear_spin=nuclear_spin,
            electronic_j=entry["j"],
            theta_e_a02=entry["theta_e_a02"],
            hyperfine_energies_hz=entry.get("hyperfine_f_energies_hz"),
            label=f"{raw['name']} {term}",
        )

    transitions: dict[str, ClockTransition] = {}
    for i, entry in enumerate(raw.get("transitions", [])):
        upper = entry["upper"]
        if upper not in levels:
            raise InvalidInputError(
                f"transition {entry['label']!r} references unknown level {upper!r}"
            )
        label = _new_key(transitions, entry["label"], f"transitions[{i}].label",
                         "label")
        transitions[label] = ClockTransition(
            level=levels[upper], frequency_hz=entry["frequency_hz"])

    return Species(
        name=raw["name"],
        mass_kg=raw["mass_u"] * CODATA2018.atomic_mass,
        levels=levels,
        transitions=transitions,
    )
