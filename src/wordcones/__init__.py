"""Reduced-word combinatorics and exact polyhedral geometry for the longest
element of the type-A Weyl group: Lusztig cones, chamber sets, partial
quivers, rectangle configurations, and the region atlas of the
piecewise-linear transition map between the two standard words."""

from .chambers import ChamberSet, chamber_sets, render_wiring
from .lusztig import LusztigCone, lusztig_cone, spanning_rays, transport_under_commutation
from .polyhedra import (DegenerateConeError, HCone, NonPointedError, VCone,
                        cone_equal, cone_from_rays, extreme_rays, hcone,
                        intersect, irredundant_h, nonneg_orthant, vcone)
from .quivers import (PartialQuiver, chamber_set_from_quiver,
                      enumerate_partial_quivers, quiver_from_chamber_set,
                      quivers_for_word)
from .rectangles import (Component, Configuration, Rectangle,
                         centre_and_central_line, components,
                         configuration_for_quiver, diagonal_counts,
                         generator_vector, phi_plus, quiver_vector,
                         rectangle_for_component, spanning_vectors)
from .regions import (RegionAtlas, braid_move_map, evaluate,
                      match_spanned_regions, orthant_restriction_analysis,
                      region_graph, simplicial_decomposition, standard_atlas,
                      transition_atlas)
from .words import (CommutationClass, Move, ReducedWord, apply_move,
                    class_graph, commutation_classes, enumerate_reduced_words,
                    find_move_path, is_reduced, parse_word,
                    positive_root_order, standard_words)

__version__ = "0.1.0"
