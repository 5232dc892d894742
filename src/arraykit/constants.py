"""Shared numeric conventions.

C0 is fixed at 3e8 m/s rather than the CODATA value: the toolkit's frequency
anchors (15 mm cell <-> 20 GHz grating onset, 4*pi*A/lambda^2 = pi for the
square cell at 20 GHz) are defined with the round engineering constant.
"""

C0 = 3.0e8
"""Free-space wave speed, m/s."""

DB_FLOOR = -200.0
"""Substitute for -inf in every dB-valued output."""

VSWR_CAP = 100.0
"""Sentinel reported when |gamma| >= 1 (active mismatch gain)."""

DEFAULT_N_SCAN = 24
"""Default scan-space sampling density per lattice dimension."""

PATTERN_SAMPLE_CAP = 4_000_000
"""Most theta samples x aperture elements one pattern cut may evaluate.

The array factor forms a (theta, element) phase matrix per cut, so this
bounds its memory (~100 MB of temporaries) before anything is allocated.
"""
