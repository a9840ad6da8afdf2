"""Scenario generation with principal component flows.

Learns distributions of fixed-length time-series scenarios with an affine
coupling normalizing flow, optionally composed with an isometric PCA
embedding so that manifold-shaped data can be modeled in a reduced space
without changing the likelihood.
"""

from .dataio import RawSeries, ScenarioSet, clean_and_slice, load_csv, scale, split, unscale
from .errors import PcflowError
from .evaluate import EvalReport, evaluate_sets, kde_pdf, ks_two_sample, marginal_stats, welch_psd
from .flow import CouplingLayer, FlowModel, Standardizer, build_flow, load_model, save_model
from .pca import PcaMap, embed, fit, project, truncate
from .train import TrainConfig, TrainLog, fit_fsnf, fit_pcf

__version__ = "0.1.0"

__all__ = [
    "RawSeries", "ScenarioSet", "clean_and_slice", "load_csv", "scale", "split", "unscale",
    "PcflowError",
    "EvalReport", "evaluate_sets", "kde_pdf", "ks_two_sample", "marginal_stats", "welch_psd",
    "CouplingLayer", "FlowModel", "Standardizer", "build_flow", "load_model", "save_model",
    "PcaMap", "embed", "fit", "project", "truncate",
    "TrainConfig", "TrainLog", "fit_fsnf", "fit_pcf",
    "__version__",
]
