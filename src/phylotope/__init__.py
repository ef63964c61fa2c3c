"""Exact lattice polytopes of group-based Markov models on trees.

Build the network polytope of an abelian-core model on a tree, project it
to orbit-sum coordinates, glue trees and polytopes along leaves, check the
integer decomposition property, and cross-validate the monomial socket
parameterization against brute-force marginalization, all in exact
arithmetic over cyclotomic integers.
"""

from .cyclotomic import CycRational, CyclotomicInt, cyclotomic_polynomial
from .groups import (GroupModel, Permutation, abelian_model, parse_group_file,
                     parse_group_spec, preset_model)
from .trees import Tree, glue, parse_newick
from .polytope import (ModelPolytope, build_polytope, enumerate_networks,
                       enumerate_sockets, network_socket_bijection,
                       project_orbits, vertex_file_text)
from .fourier import (appendix_demo, f_o, l_chi, monomial_socket_vector,
                      params_to_matrices, raw_leaf_tensor, socket_coordinates,
                      what_dimension)
from .lattice import (AffineLattice, HRep, IdpReport, LatticePolytope,
                      decompose, facet_description, fiber_product,
                      glued_polytope, idp_check, lattice_points_in_dilate,
                      spanned_lattice)
from .verify import run_checks

__version__ = "0.1.0"
