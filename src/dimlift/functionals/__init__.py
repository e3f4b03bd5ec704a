"""Monotone quantities and inequality checks built on the lift machinery."""

from . import carleman, frequency, geometry, harmonic_map, sweeps, two_phase
from .carleman import *
from .frequency import *
from .geometry import *
from .harmonic_map import *
from .sweeps import *
from .two_phase import *

# each public name is listed once, in its own module's __all__
__all__ = [
    *carleman.__all__,
    *frequency.__all__,
    *geometry.__all__,
    *harmonic_map.__all__,
    *sweeps.__all__,
    *two_phase.__all__,
]
