from __future__ import annotations

import csv
import json
import unicodedata

import pytest
from hypothesis import given, strategies as st

from ctvm.errors import InputDataError
from ctvm.geofilter import RegionTable, load_region_table

from oracles import naive_resolve


class TestTableValidation:
    def test_duplicate_code_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            RegionTable((("CA", "California"), ("CA", "Canada")))

    def test_lowercase_code_rejected(self):
        with pytest.raises(ValueError, match="uppercase"):
            RegionTable((("ca", "California"),))

    def test_nonalpha_code_rejected(self):
        with pytest.raises(ValueError):
            RegionTable((("C4", "California"),))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            RegionTable((("CA", "  "),))


class TestBundledTable:
    def test_fifty_states(self, states):
        codes = [code for code, _ in states.entries]
        assert len(codes) == 50
        assert codes[:3] == ["CA", "NY", "TX"]

    def test_west_virginia_precedes_virginia(self, states):
        codes = [code for code, _ in states.entries]
        assert codes.index("WV") < codes.index("VA")

    def test_arkansas_precedes_kansas(self, states):
        codes = [code for code, _ in states.entries]
        assert codes.index("AR") < codes.index("KS")

    def test_contains(self, states):
        assert "CA" in states
        assert "ZZ" not in states


class TestLoadTable:
    def test_custom_file(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("# hdr\nBC,British Columbia\nON,Ontario\n")
        table = load_region_table(str(path))
        assert [code for code, _ in table.entries] == ["BC", "ON"]

    def test_missing_file(self):
        with pytest.raises(InputDataError):
            load_region_table("/no/such/regions.csv")

    def test_bad_row(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("CA\n")
        with pytest.raises(InputDataError):
            load_region_table(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text("# nothing\n")
        with pytest.raises(InputDataError):
            load_region_table(str(path))

    def test_blank_and_hash_lines_inside_a_quoted_name_are_kept(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text('XX,"Alpha\n\nBeta"\nYY,"Gamma\n#Delta"\n')
        table = load_region_table(str(path))
        assert table.entries == (("XX", "Alpha\n\nBeta"), ("YY", "Gamma\n#Delta"))
        with open(path, newline="") as fh:
            assert tuple(map(tuple, csv.reader(fh))) == table.entries

    def test_hash_line_with_a_quote_between_records_is_skipped(self, tmp_path):
        path = tmp_path / "regions.csv"
        path.write_text('AA,Alpha\n# a "quoted" note\n\nBB,Beta\n')
        table = load_region_table(str(path))
        assert table.entries == (("AA", "Alpha"), ("BB", "Beta"))

    def test_bad_csv_names_the_physical_line(self, tmp_path):
        path = tmp_path / "regions.csv"
        big = "x" * (csv.field_size_limit() + 1)
        path.write_text(f'# regions\nXX,"Alpha\n\nBeta"\nYY,"{big}"\n')
        with pytest.raises(InputDataError, match=r"bad CSV on line 5: field larger"):
            load_region_table(str(path))


class TestResolve:
    def test_code_as_token(self, states):
        assert states.resolve("San Francisco, CA") == "CA"

    def test_full_name_substring_case_insensitive(self, states):
        assert states.resolve("new york city") == "NY"
        assert states.resolve("CALIFORNIA") == "CA"

    def test_empty_location(self, states):
        assert states.resolve("") is None

    def test_code_must_be_whole_token_by_default(self, states):
        assert states.resolve("NYC") is None
        assert states.resolve("NYC", loose_abbrev=True) == "NY"

    def test_code_is_case_sensitive(self, states):
        assert states.resolve("tx") is None
        assert states.resolve("tx", loose_abbrev=True) is None

    def test_first_match_in_table_order_wins(self):
        table = RegionTable((("NJ", "New Jersey"), ("NY", "New York")))
        assert table.resolve("NY or NJ") == "NJ"
        flipped = RegionTable((("NY", "New York"), ("NJ", "New Jersey")))
        assert flipped.resolve("NY or NJ") == "NY"

    def test_name_shadowing_needs_table_order(self, states):
        # "west virginia" would be swallowed by the "virginia" substring
        # if VA came first; the bundled order prevents that
        assert states.resolve("west virginia") == "WV"
        assert states.resolve("Virginia Beach") == "VA"

    def test_substring_quirks_are_rule_faithful(self, states):
        # documented imprecision of the matching rule, kept on purpose
        assert states.resolve("Kansas City, MO") == "KS"
        assert states.resolve("Washington DC") == "WA"
        assert states.resolve("Germaine's Bakery") == "ME"
        assert states.resolve("LA") == "LA"

    @pytest.mark.parametrize("name_form", ["NFC", "NFD"])
    @pytest.mark.parametrize("location_form", ["NFC", "NFD"])
    def test_names_and_locations_fold_to_nfc(self, name_form, location_form):
        # "Québec" in NFD is "Que" + U+0301 + "bec", which str.lower alone
        # never finds in the NFC spelling, nor the NFC spelling in it
        table = RegionTable((("QC", unicodedata.normalize(name_form, "Québec")),))
        location = unicodedata.normalize(location_form, "Montréal, QUÉBEC")
        assert table.resolve(location) == "QC"
        assert naive_resolve(location, list(table.entries)) == "QC"

    def test_loose_mode_discriminators(self, states):
        assert states.resolve("COMPANY HQ") is None
        assert states.resolve("COMPANY HQ", loose_abbrev=True) == "NY"
        assert states.resolve("MAINE") == "ME"
        assert states.resolve("MAINE", loose_abbrev=True) == "IN"
        assert states.resolve("mICHIGAN") == "MI"
        assert states.resolve("mICHIGAN", loose_abbrev=True) == "GA"


def load_fixture(data_dir):
    with open(data_dir / "geo_locations.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestFixture:
    def test_has_fifty_rows(self, data_dir):
        assert len(load_fixture(data_dir)) == 50

    def test_strict_expectations(self, states, data_dir):
        for row in load_fixture(data_dir):
            assert states.resolve(row["location"]) == row["strict"], row

    def test_loose_expectations(self, states, data_dir):
        for row in load_fixture(data_dir):
            assert (
                states.resolve(row["location"], loose_abbrev=True)
                == row["loose"]
            ), row

    def test_oracle_agrees(self, states, data_dir):
        entries = list(states.entries)
        for row in load_fixture(data_dir):
            assert naive_resolve(row["location"], entries) == row["strict"]
            assert (
                naive_resolve(row["location"], entries, loose=True)
                == row["loose"]
            )


LOCATIONS = st.text(
    alphabet=st.sampled_from(list("ABCDEFGHIKLMNORSTUVWXY abcdefmntxy,.")),
    max_size=25,
)


class TestResolveProperties:
    @given(LOCATIONS, st.booleans())
    def test_matches_oracle(self, location, loose):
        states = load_region_table()
        assert states.resolve(location, loose_abbrev=loose) == naive_resolve(
            location, list(states.entries), loose=loose
        )

    @given(LOCATIONS, st.booleans())
    def test_result_is_none_or_known_code(self, location, loose):
        states = load_region_table()
        code = states.resolve(location, loose_abbrev=loose)
        assert code is None or code in states

    @given(LOCATIONS)
    def test_appending_entries_never_changes_existing_match(self, location):
        states = load_region_table()
        resolved = states.resolve(location)
        extended = RegionTable(states.entries + (("ZZ", "Zanzibar"),))
        if resolved is not None:
            assert extended.resolve(location) == resolved
