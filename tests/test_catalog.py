"""Catalog table and lookup tests."""

import importlib.util
from pathlib import Path

import pytest

from gf2kq import _catalog_data as _data
from gf2kq.catalog import (
    EQUALLY_SPACED,
    GENERIC,
    TRINOMIAL,
    catalog_entries,
    catalog_lookup,
    family_degrees,
    search_least_irreducible,
)
from gf2kq.errors import CatalogError, InputError
from gf2kq.gf2 import BinaryPolynomial, is_irreducible
from gf2kq.synth import equally_spaced_split, trinomial_split


def test_lookup_bounds():
    with pytest.raises(InputError):
        catalog_lookup(1)
    with pytest.raises(InputError):
        catalog_lookup(513)
    with pytest.raises(InputError):
        catalog_lookup(8, "no_such_family")


def test_generic_entries_are_least_small():
    for n in range(2, 33):
        assert catalog_lookup(n).polynomial == search_least_irreducible(n)


def test_all_entries_irreducible_sampled():
    for n in list(range(2, 65)) + [127, 128, 255, 256, 511, 512]:
        assert is_irreducible(catalog_lookup(n).polynomial), n
    for n in family_degrees(TRINOMIAL):
        if n <= 64 or n in (255, 511):
            assert is_irreducible(catalog_lookup(n, TRINOMIAL).polynomial), n
    for n in family_degrees(EQUALLY_SPACED):
        if n <= 128:
            assert is_irreducible(catalog_lookup(n, EQUALLY_SPACED).polynomial), n


def test_family_tags_consistent_with_structure():
    for n in family_degrees(TRINOMIAL)[:40]:
        e = catalog_lookup(n, TRINOMIAL)
        assert trinomial_split(e.polynomial) is not None
    for n in family_degrees(EQUALLY_SPACED):
        e = catalog_lookup(n, EQUALLY_SPACED)
        assert equally_spaced_split(e.polynomial) is not None


def test_worked_modulus_is_pinned_for_degree_7():
    entries = catalog_entries(7)
    polys = {e.polynomial for e in entries}
    assert BinaryPolynomial.parse("7,5,3,1,0") in polys
    # lookup still returns the lexicographic minimum
    assert catalog_lookup(7).polynomial == BinaryPolynomial.parse("7,1,0")


def test_reducible_family_shapes_absent_from_catalog():
    # x^9+x^7+1 and x^8+x^6+x^4+x^2+1 have the family shapes but factor
    # over GF(2), so the catalog carries other members instead.
    nine = catalog_lookup(9, TRINOMIAL).polynomial
    assert nine != BinaryPolynomial.parse("9,7,0")
    assert is_irreducible(nine)
    with pytest.raises(CatalogError):
        catalog_lookup(8, EQUALLY_SPACED)


def test_no_trinomial_for_multiples_of_eight():
    for n in (8, 16, 24, 32, 64, 128, 256, 512):
        assert n not in family_degrees(TRINOMIAL)
        with pytest.raises(CatalogError):
            catalog_lookup(n, TRINOMIAL)


def test_equally_spaced_known_degrees():
    assert catalog_lookup(2, EQUALLY_SPACED).polynomial == BinaryPolynomial.parse("2,1,0")
    assert catalog_lookup(4, EQUALLY_SPACED).polynomial == BinaryPolynomial.parse("4,3,2,1,0")
    assert 10 in family_degrees(EQUALLY_SPACED)


def test_family_degrees_generic_is_complete():
    assert family_degrees(GENERIC) == list(range(2, 513))


def test_generator_tool_reproduces_family_tables():
    # tools/gen_catalog.py writes _catalog_data; rerun its family searches
    # for n <= 64 so the generator cannot drift from the shipped tables.
    path = Path(__file__).resolve().parent.parent / "tools" / "gen_catalog.py"
    spec = importlib.util.spec_from_file_location("gen_catalog", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    degrees = range(2, 65)
    assert [tool.least_trinomial_k(n) for n in degrees] == [_data.TRINOMIAL_K.get(n) for n in degrees]
    assert [tool.equally_spaced(n) for n in degrees] == [_data.EQUALLY_SPACED.get(n) for n in degrees]
