"""Magnitude computation and verification for metric measure spaces."""

from .errors import (DisconnectedGraphError, GeodesicOverflowError,
                     MagnilabError, MetricValidationError, SingularMatrixError)
from .spaces import (Circle, FiniteMetricSpace, FlatTorusUnit, GeodesicGraph,
                     Interval, LineGaussian, LineLaplace, MagnitudeSeries,
                     SeriesTerm, Sphere2, ValidationReport, graph_metric,
                     load_distance_csv, load_edge_list, validate_metric)
from .finite_mag import (classical_magnitude, convergence_threshold,
                         neumann_partial, weighting_vector)
from .graph_mag import (count_geodesics, tilde_convergence_threshold,
                        tilde_magnitude, tilde_neumann_partial)
from .mc import SamplerSpec, estimate_partial_magnitude, estimate_term

__all__ = [
    "Circle", "DisconnectedGraphError", "FiniteMetricSpace", "FlatTorusUnit",
    "GeodesicGraph", "GeodesicOverflowError", "Interval", "LineGaussian",
    "LineLaplace", "MagnilabError", "MagnitudeSeries", "MetricValidationError",
    "SamplerSpec", "SeriesTerm", "SingularMatrixError", "Sphere2",
    "ValidationReport", "classical_magnitude",
    "convergence_threshold", "count_geodesics", "estimate_partial_magnitude",
    "estimate_term", "graph_metric", "load_distance_csv", "load_edge_list",
    "neumann_partial", "tilde_convergence_threshold", "tilde_magnitude",
    "tilde_neumann_partial", "validate_metric", "weighting_vector",
]

__version__ = "0.1.0"
