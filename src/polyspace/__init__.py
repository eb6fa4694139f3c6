"""Polygon moduli spaces: Hopf lifts, frames, bending flows and exact
moment polytopes, with randomized verification suites and a CLI."""

from . import bending, errors, frames, polygon, polytope, quat, verify
from . import reconstruct as reconstruction
from .bending import (DiagonalRange, SphereProductPoint, bend, bend_range,
                      commute_defect, hamiltonian_flow, kahler_factor_probe,
                      km_complex, km_form, km_metric, so3_moment)
from .errors import PolyspaceError
from .frames import (Frame, GCPattern, conjugate_frame, frame_from_polygon,
                     frame_orthonormalize, frame_to_polygon, gc_pattern,
                     gram, moment_mu, torus_act, truncated_gram2, u2_act,
                     u2_moment)
from .polygon import (Polygon, SideLengths, closure_defect, diagonals,
                      enumerate_lined, even_diagonals, even_step,
                      is_feasible_lengths, is_generic_lengths, is_lined,
                      is_prodigal, is_proper, normalize, perimeter, reflect,
                      side_lengths, stratum_index, wall_distance)
from .polytope import (ClassificationReport, Halfspace, RationalPolytope,
                       classify_pentagon, count_sides, dh_interval_equality,
                       diag_slice, even_step_polytope, gc_membership,
                       in_hypersimplex, quad_interval)
from .quat import hopf, hopf_complex, hopf_section
from .reconstruct import (LDPoint, fiber_sample, sample_moduli,
                          section_sigma)
from .reconstruct import reconstruct as reconstruct_polygon

__version__ = "0.1.0"
