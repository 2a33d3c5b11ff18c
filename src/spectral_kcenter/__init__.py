"""Optimal k centers of undirected graphs under spectral perturbation
metrics and control-theoretic comparison heuristics, with an exact
closed-form oracle for path graphs."""

from .errors import (AssumptionError, DegenerateEigenvalueError, GenerationError,
                     GraphFormatError, IllPosedError, NumericError,
                     ParameterError, StabilityError)
from .graphs import (Graph, figure1_graph, laplacian, max_degree, parse_edge_list,
                     path_graph, random_connected_graph, random_tree, relabel,
                     serialize_edge_list, stochastic)
from .experiments import AgreementReport, agreement_rate
from .metrics import (Metric, MetricParams, SelectionResult,
                      eigvec_heuristic_score, mplse_score, msub_score,
                      msup_score, perturbed_laplacian, select_best)
from .path_theory import (RootSeries, charpoly_eps_slices_1port,
                          charpoly_eps_slices_2port, end_segment_charpoly,
                          inner_segment_charpoly, lambda_min_quadratic_1port,
                          lambda_min_quadratic_2port, lambda_min_series_kport,
                          optimal_ports, path_charpoly, path_charpoly_lowcoeffs,
                          path_eigenpair, perturbed_charpoly_1port,
                          perturbed_charpoly_2port, pseudo_toeplitz_lambda_min,
                          root_series_double, root_series_single,
                          tridiag_charpoly)
from .spectral import (EigenDecomposition, are_charging_energy,
                       gramian_extraction_energy, lyapunov_solve, sym_eigen)

__version__ = "0.1.0"
