import json
from pathlib import Path

import jsonschema
import pytest

from trapquad.errors import InvalidInputError
from trapquad.species import load_species, parse_half_int, parse_species

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "trapquad"
SCHEMA = json.loads((PACKAGE / "schemas" / "species.schema.json").read_text())


class TestBundledFiles:
    @pytest.mark.parametrize("name", ["ba138", "lu176"])
    def test_validates_against_published_schema(self, name):
        raw = json.loads((PACKAGE / "species" / f"{name}.json").read_text())
        jsonschema.validate(raw, SCHEMA)

    def test_lu_levels_complete(self):
        lu = load_species("lu176")
        assert set(lu.levels) == {"1S0", "3D1", "3D2", "1D2"}
        assert [f.twice for f in lu.level("3D1").f_values()] == [12, 14, 16]
        assert lu.level("3D2").theta_e_a02 == -1.77
        assert set(lu.transitions) == {"1S0-3D1", "1S0-3D2", "1S0-1D2"}

    def test_ba_has_no_hyperfine_structure(self):
        ba = load_species("ba138")
        assert ba.nuclear_spin == 0
        assert ba.level("D5/2").hyperfine_energies_hz is None


class TestParsing:
    def test_half_int_strings(self):
        assert parse_half_int("5/2").twice == 5
        assert parse_half_int("3").twice == 6
        assert parse_half_int(2.5).twice == 5
        with pytest.raises(InvalidInputError):
            parse_half_int("5/3")

    def test_unknown_species(self):
        with pytest.raises(InvalidInputError):
            load_species("unobtainium")

    def test_malformed_file_is_invalid_input(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("not json")
        with pytest.raises(InvalidInputError, match="JSON"):
            load_species(path)
        with pytest.raises(InvalidInputError, match="object"):
            parse_species([1, 2])

    def test_wrong_schema_version(self):
        with pytest.raises(InvalidInputError, match="schema_version"):
            parse_species({"schema_version": 0})

    def test_unknown_transition_level(self):
        raw = {
            "schema_version": 1, "name": "X", "mass_u": 1.0,
            "nuclear_spin": "0",
            "levels": [{"term": "S", "j": "0", "theta_e_a02": 0.0}],
            "transitions": [
                {"label": "t", "upper": "D", "frequency_hz": 1e14}
            ],
        }
        with pytest.raises(InvalidInputError, match="unknown level"):
            parse_species(raw)

    def test_unknown_keys_rejected_at_every_level(self):
        raw = {
            "schema_version": 1, "name": "X", "mass_u": 1.0,
            "nuclear_spin": "0",
            "levels": [{"term": "D", "j": "2", "theta_e_a02": 1.0}],
            "transitions": [
                {"label": "t", "upper": "D", "frequency_hz": 1e14}
            ],
        }
        assert parse_species(raw).transition("t").hyperfine_averaged
        typos = (
            {**raw, "nuclear_spn": "0"},
            {**raw, "levels": [{**raw["levels"][0], "theta_ea02": 1.0}]},
            {**raw, "transitions": [{**raw["transitions"][0],
                                     "hyperfine_averged": False}]},
        )
        for bad in typos:
            with pytest.raises(InvalidInputError, match="unknown key"):
                parse_species(bad)
