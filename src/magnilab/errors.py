"""Exception types shared across the package."""


class MagnilabError(Exception):
    """Base class for all package-specific errors."""


class MetricValidationError(MagnilabError):
    """A distance matrix or graph violates the metric-space contract."""


class DisconnectedGraphError(MetricValidationError):
    """A graph has at least one unreachable vertex pair."""

    def __init__(self, u, v):
        super().__init__(f"graph is disconnected: no path between vertices {u} and {v}")


class SingularMatrixError(MagnilabError):
    """A similarity matrix is numerically singular at the requested scale."""

    def __init__(self, condition_estimate: float):
        self.condition_estimate = condition_estimate
        super().__init__(
            f"similarity matrix numerically singular (condition estimate {condition_estimate:.3e})"
        )


class GeodesicOverflowError(MagnilabError):
    """Shortest-path counts exceed what a float64 can represent exactly."""
