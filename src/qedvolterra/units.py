"""Conversions between the dimensionless unit system and SI / eV quantities.

The dimensionless system measures energies in units of the electron rest
energy m_e c^2, times in units of hbar/(m_e c^2), lengths in units of the
reduced Compton wavelength hbar/(m_e c) and momenta in units of m_e c.  The
only dimensionless parameter left in the dynamics is the fine-structure
constant alpha.
"""

# CODATA 2018 constants, 9 significant digits where available.
HBAR_J_S = 1.054571817e-34          # reduced Planck constant, J s (exact-derived)
ELECTRON_REST_ENERGY_EV = 510998.950  # m_e c^2, eV
EV_IN_J = 1.602176634e-19            # elementary charge, J/eV (exact)
SPEED_OF_LIGHT_M_S = 299792458.0     # m/s (exact)
FINE_STRUCTURE = 1.0 / 137.035999    # default alpha

ELECTRON_REST_ENERGY_J = ELECTRON_REST_ENERGY_EV * EV_IN_J
COMPTON_TIME_S = HBAR_J_S / ELECTRON_REST_ENERGY_J
COMPTON_LENGTH_M = COMPTON_TIME_S * SPEED_OF_LIGHT_M_S


def time_to_si(t_d: float) -> float:
    """Dimensionless time -> seconds (t_d = 1 is one Compton time)."""
    return t_d * COMPTON_TIME_S


def time_from_si(t_s: float) -> float:
    """Seconds -> dimensionless time."""
    return t_s / COMPTON_TIME_S


def energy_to_ev(e_d: float) -> float:
    """Dimensionless energy -> eV (e_d = 1 is the electron rest energy)."""
    return e_d * ELECTRON_REST_ENERGY_EV


def energy_from_ev(e_ev: float) -> float:
    """eV -> dimensionless energy."""
    return e_ev / ELECTRON_REST_ENERGY_EV


def length_to_si(x_d: float) -> float:
    """Dimensionless length -> meters."""
    return x_d * COMPTON_LENGTH_M


def length_from_si(x_m: float) -> float:
    """Meters -> dimensionless length."""
    return x_m / COMPTON_LENGTH_M


def constants_table() -> str:
    """Human-readable reference table of the pinned constants."""
    rows = [
        ("electron rest energy", f"{ELECTRON_REST_ENERGY_EV:.9g} eV"),
        ("unit of time", f"{COMPTON_TIME_S:.9g} s"),
        ("unit of length", f"{COMPTON_LENGTH_M:.9g} m"),
        ("default fine-structure constant", f"{FINE_STRUCTURE:.9g}"),
        ("hbar", f"{HBAR_J_S:.9g} J s"),
        ("eV", f"{EV_IN_J:.9g} J"),
    ]
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)
