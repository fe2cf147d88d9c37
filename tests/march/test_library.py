"""Tests for repro.march.library (published complexity numbers)."""

import pytest

from repro.lint import lint_march
from repro.march import library

#: Published kN complexities of the classical tests.
EXPECTED_COMPLEXITY = {
    "MATS": 4,
    "MATS+": 5,
    "MATS++": 6,
    "March X": 6,
    "March Y": 8,
    "March C-": 10,
    "March C+": 14,
    "March A": 15,
    "March B": 17,
    "March U": 13,
    "March LR": 14,
    "March SR": 14,
    "March SS": 22,
    "PMOVI": 13,
    "11N": 11,
    "March G": 23,
    "March G+Del": 23,
    "March RAW": 26,
}


class TestLibraryComplexities:
    @pytest.mark.parametrize("name,expected",
                             sorted(EXPECTED_COMPLEXITY.items()))
    def test_published_complexity(self, name, expected):
        assert library.STANDARD_TESTS[name].complexity == expected

    def test_registry_complete(self):
        assert set(library.STANDARD_TESTS) == set(EXPECTED_COMPLEXITY)


class TestLibraryValidity:
    @pytest.mark.parametrize("name", sorted(EXPECTED_COMPLEXITY))
    def test_all_tests_valid(self, name):
        assert not lint_march(library.STANDARD_TESTS[name]).errors, name


class TestGetTest:
    def test_lookup(self):
        assert library.get_test("March C-") is library.MARCH_CM

    def test_unknown_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            library.get_test("March Z")
