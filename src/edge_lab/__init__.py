"""edge-lab: numerical exploration of gradient descent at the edge of stability.

Step-segment curvature averages and their telescoping balance,
mean-value localization of curvature to interior points, period-two
bifurcation from the gradient of the edge coupling, stability
mechanisms at the threshold, and the discrete two-trajectory strain
framework, all at desk scale with exact or tolerance-controlled checks.
"""

__version__ = "0.1.0"

from . import (bifurcation, edge_metrics, loss_models, numerics, stability_kv,
               trajectory)

__all__ = [
    "bifurcation",
    "edge_metrics",
    "loss_models",
    "numerics",
    "stability_kv",
    "trajectory",
    "__version__",
]
