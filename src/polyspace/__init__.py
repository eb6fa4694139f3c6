"""Polygon moduli spaces: Hopf lifts, frames, bending flows and exact
moment polytopes, with randomized verification suites and a CLI."""

from . import (bending, errors, frames, polygon, polytope, quat, reconstruct,
               verify)

__version__ = "0.1.0"
