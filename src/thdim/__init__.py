"""thdim: decompose graphs into intersections of threshold graphs, bound the
threshold dimension from both sides, and compile verified depth-2 circuits
for clique-indicator Boolean functions."""

__version__ = "0.1.0"

from .graphs import (ExactLimitError, Graph, ParseError, complete_graph,
                     cycle_graph, degeneracy_ordering, disjoint_cliques,
                     empty_graph, girth, greedy_coloring, max_independent_set,
                     parse_edge_list, path_graph, petersen_graph, star_graph,
                     write_edge_list)
from .threshold import (ForbiddenSubgraph, LtfWitness, ThresholdGraph,
                        extract_ltf, format_threshold, parse_threshold,
                        recognize_threshold, threshold_supergraph, verify_ltf)
from .treedecomp import (TreeDecomposition, TreeDecompositionError,
                         format_tree_decomposition, heuristic_tree_decomposition,
                         validate_tree_decomposition)
from .decompose import (Decomposition, RandomizedSearchError,
                        SeparatingColoringFamily, build_separating_colorings,
                        decompose_degeneracy, decompose_treewidth,
                        decompose_vertex_cover, format_decomposition,
                        parse_decomposition, verify_decomposition)
from .maxdeg import (bipartite_coloring_family, bounded_partition, build_suitable_family,
                     decompose_maxdeg, decompose_split)
from .exactdim import (EXACT_DIMENSION_LIMIT, DimensionReport, compute_report,
                       exact_decomposition, exact_dimension,
                       lower_bound_clique_chromatic, upper_bound_ramsey_style)
from .circuits import (GraphicFunction, MajorityCircuit, compile_circuit,
                       format_circuit, ltfs_to_graph, parse_circuit,
                       to_2cnf, verify_circuit)
from .randgraphs import (ExperimentRow, gen_gnm, girth_degeneracy_check,
                         parse_experiment_spec, render_table, run_experiment)
