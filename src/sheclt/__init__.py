"""Simulation laboratory for the stochastic heat equation with homogeneous
spatial noise: occupation-field limit statistics, analytic bounds, and
metric-entropy machinery."""

__version__ = "0.1.0"

from .spectral import CovarianceMeasure, DalangProfile  # noqa: F401
from .noise import Grid, RngStream  # noqa: F401
from .solver import SigmaFunction  # noqa: F401
from .occupation import LipFunction, TestFunction  # noqa: F401
