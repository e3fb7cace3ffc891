"""Upper bounds on quantum evolution complexity via lattice optimization."""

__version__ = "0.1.0"
