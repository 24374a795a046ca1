import math

import pytest

from qedvolterra import units


def test_time_unit_matches_codata_value():
    # hbar / (m_e c^2) in seconds, recomputed from the pinned CODATA inputs
    assert units.COMPTON_TIME_S == pytest.approx(1.28808867e-21, rel=1e-8)


def test_length_unit_is_reduced_compton_wavelength():
    assert units.COMPTON_LENGTH_M == pytest.approx(3.8615926796e-13, rel=1e-9)


def test_energy_round_trip():
    for e in (1.0, 0.375 / 137.036**2, 42.0):
        assert units.energy_from_ev(units.energy_to_ev(e)) \
            == pytest.approx(e, rel=1e-15)


def test_time_round_trip():
    assert units.time_from_si(units.time_to_si(7.5)) \
        == pytest.approx(7.5, rel=1e-15)


def test_length_round_trip():
    assert units.length_from_si(units.length_to_si(0.3)) \
        == pytest.approx(0.3, rel=1e-15)


def test_unit_energy_is_electron_rest_energy():
    assert units.energy_to_ev(1.0) == 510998.950


def test_constants_table_mentions_all_units():
    table = units.constants_table()
    for fragment in ("eV", " s", " m", "fine-structure"):
        assert fragment in table


def test_fine_structure_default():
    assert math.isclose(units.FINE_STRUCTURE, 1.0 / 137.035999)
