"""Physical constants (CODATA 2018), documented to 9 significant figures.

SPEED_OF_LIGHT and PLANCK are exact by SI definition; HBAR is CODATA's
value of PLANCK/(2*pi) to 10 significant figures, truncated rather than
rounded (PLANCK/(2*pi) = 1.05457181765e-34).
"""

SPEED_OF_LIGHT = 299_792_458.0  # m/s   (exact;    2.99792458e8)
PLANCK = 6.626_070_15e-34       # J*s   (exact;    6.62607015e-34)
HBAR = 1.054_571_817e-34        # J*s   (          1.05457182e-34)
