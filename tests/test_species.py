import json
import math
from pathlib import Path

import jsonschema
import pytest

from trapquad.errors import InvalidInputError
from trapquad.angular import HalfInt, doubled
from trapquad.species import load_species, parse_species

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
        assert ba.level("D5/2").nuclear_spin == 0
        assert ba.level("D5/2").hyperfine_energies_hz is None


class TestParsing:
    def test_half_int_strings(self):
        # species files, --manifold and the library read text by one rule
        assert HalfInt("5/2").twice == doubled(" 5/2 ") == 5
        assert doubled("3") == doubled("-6/2") + 12 == 6
        assert doubled(2.5) == 5
        with pytest.raises(InvalidInputError):
            doubled("5/3")

    @pytest.mark.parametrize("text", ["x", "2.5", "a/2", "5/", ""])
    def test_half_int_rejects_other_text(self, text):
        # "x" and "2.5" ended in int()'s ValueError, exit 1
        with pytest.raises(InvalidInputError, match="integer or n/2"):
            doubled(text)

    def test_hyperfine_key_must_be_half_int(self):
        raw = json.loads((PACKAGE / "species" / "lu176.json").read_text())
        raw["levels"][1]["hyperfine_f_energies_hz"]["x"] = 1.0
        with pytest.raises(InvalidInputError, match="'x'"):
            parse_species(raw)

    @pytest.mark.parametrize("edit", [
        lambda d: d["levels"][1].update(j="9" * 5000),
        lambda d: d.update(nuclear_spin="9" * 5000),
        lambda d: d["levels"][1]["hyperfine_f_energies_hz"].update({"9" * 5000: 1.0}),
    ], ids=["j", "nuclear-spin", "hyperfine-F"])
    def test_over_long_number_is_invalid_input(self, edit):
        # the schema's pattern passes it, and int() raised a bare ValueError
        with pytest.raises(InvalidInputError, match="^text of 5000 digits is too long"):
            parse_species(_lu_with(edit))

    def test_unknown_species(self):
        with pytest.raises(InvalidInputError):
            load_species("unobtainium")

    def test_unknown_level_or_transition_lists_what_there_is(self):
        lu = load_species("lu176")
        with pytest.raises(InvalidInputError, match=r"no level '3D3'; available: "
                           r"\['1D2', '1S0', '3D1', '3D2'\]"):
            lu.level("3D3")
        with pytest.raises(InvalidInputError, match=r"no transition '3D2'; available: "
                           r"\['1S0-1D2', '1S0-3D1', '1S0-3D2'\]"):
            lu.transition("3D2")

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
        assert parse_species(raw).transition("t").frequency_hz == 1e14
        typos = (
            {**raw, "nuclear_spn": "0"},
            {**raw, "levels": [{**raw["levels"][0], "theta_ea02": 1.0}]},
            {**raw, "transitions": [{**raw["transitions"][0],
                                     "hyperfine_averged": False}]},
        )
        for bad in typos:
            with pytest.raises(InvalidInputError, match="unknown key"):
                parse_species(bad)


def _lu_with(edit):
    raw = json.loads((PACKAGE / "species" / "lu176.json").read_text())
    edit(raw)
    return raw


class TestMalformedFiles:
    """Each of these ended in a traceback (exit 1), or exited 0 with NaN."""

    @pytest.mark.parametrize("edit,key", [
        (lambda d: d.update(mass_u="x"), "mass_u"),
        (lambda d: d["levels"][1].update(theta_e_a02=None), "levels[1].theta_e_a02"),
        (lambda d: d["levels"][1].update(j="a/2"), "levels[1].j"),
        (lambda d: d.update(nuclear_spin="7.5"), "nuclear_spin"),
        (lambda d: d["levels"][1].update(hyperfine_f_energies_hz=[1.0, 2.0, 3.0]),
         "levels[1].hyperfine_f_energies_hz"),
        (lambda d: d["transitions"][0].update(frequency_hz="abc"),
         "transitions[0].frequency_hz"),
        (lambda d: d["levels"].append(3), "levels[4]"),
        (lambda d: d.update(mass_u=math.nan), "mass_u"),
        (lambda d: d["transitions"][0].update(frequency_hz=math.nan),
         "transitions[0].frequency_hz"),
        (lambda d: d["levels"][1]["hyperfine_f_energies_hz"].update({"6": math.nan}),
         "levels[1].hyperfine_f_energies_hz.6"),
        (lambda d: d.update(levels={"term": "3D2"}), "levels"),
    ], ids=["mass-str", "theta-null", "j-str", "spin-str", "energies-list", "freq-str",
            "level-number", "mass-nan", "freq-nan", "energy-nan", "levels-object"])
    def test_message_names_the_key(self, tmp_path, edit, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_lu_with(edit)))
        with pytest.raises(InvalidInputError) as info:
            load_species(path)
        assert str(info.value).startswith(f"{key} in species file ")


class TestDuplicateEntries:
    """A second entry with the same key replaced the first without a word."""

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["levels"].append({**d["levels"][2], "theta_e_a02": 5.0}),
         "levels[4].term in species file repeats term '3D2'"),
        (lambda d: d["transitions"].append(dict(d["transitions"][1])),
         "transitions[3].label in species file repeats label '1S0-3D2'"),
        (lambda d: d["levels"][1]["hyperfine_f_energies_hz"].update({"12/2": 1.0}),
         "level 176Lu+ 3D1 has a hyperfine energy for F=6 more than once"),
    ], ids=["term", "label", "hyperfine-F"])
    def test_duplicate_is_named(self, tmp_path, edit, message):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(_lu_with(edit)))
        with pytest.raises(InvalidInputError) as info:
            load_species(path)
        assert str(info.value) == message
