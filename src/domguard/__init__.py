"""domguard: exact solvers, constructive certificates and bound audits for
graph protection invariants (domination, Roman, weak Roman and secure
domination), over bitmask graphs whose masks are Python ints; ``Graph`` caps
the order at ``VERTEX_CAP``."""

from .graph import (Graph, GraphError, VertexSet, VERTEX_CAP, cartesian_product,
                    complement, complete, corona, cycle, empty, generate, hamming,
                    has_hamiltonian_cycle, hypercube, is_connected, is_tree, join,
                    leaf_count, max_degree, min_degree, path, remove_edge,
                    spanning_tree, star)
from .graph6 import (EdgeListError, Graph6Error, parse_edge_list, parse_graph6,
                     parse_graph6_lines, write_edge_list, write_graph6)
from .protection import (GuardFunction, MoveWitness, ProtectionError, defense_moves,
                         is_df, is_k_dominating, is_rdf, is_secure_dominating,
                         is_wrdf, undefended)
from .solvers import (DEFAULT_LIMITS, LimitExceeded, SolveResult, SolverLimits,
                      chromatic_number, clique_cover, enumerate_gamma_sets, gamma,
                      gamma_k, gamma_roman, gamma_secure, gamma_weak_roman,
                      matching_number, solve, tau, two_packing)
from .constructions import (Certificate, ConstructionError, InapplicableError,
                            PeelDecomposition, PeelLevel, clique_cover_secure_set,
                            complement_secure_set, peel, product_secure_set,
                            product_wrdf_aaaa, product_wrdf_lift, tree_secure_set,
                            tree_wrdf_two_thirds, two_dominating_as_secure)
from .bounds import (BoundReport, BoundSpec, audit, conjecture_scan, family_value,
                     nordhaus_gaddum, product_audit, registry)

__all__ = [name for name in dir() if not name.startswith("_")]
