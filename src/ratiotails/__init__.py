"""Price dynamics driven by the demand/supply ratio.

Simulation, closed-form densities and CDFs of the ratio of jointly normal
order flows at every correlation, tail-class prediction and estimation,
and recovery of the price-response family from observed price series.
"""

__version__ = "0.1.0"

from .density import (CurveMethod, DensityCurve, OrderFlowParams, PowerMap,
                      TailPrediction, TransformedDensity, positive_ratio_mass,
                      ratio_cdf, ratio_cdf_anticorr, ratio_density,
                      ratio_density_anticorr, tail_prediction,
                      transform_density)
from .fitting import (FitResult, WindowSpec, exponent_report, fit_g,
                      fit_price_series, relative_changes)
from .response import (AdmissibilityReport, Family, ResponseSpec,
                       ScaledResponse, TabulatedResponse, TailClass, TailKind,
                       check_admissibility, invert_monotone,
                       reciprocal_log_grid)
from .simulate import (PriceSeries, RatioSample, RejectionPolicy, SimConfig,
                       sample_bivariate, sample_ratio, simulate_gbm,
                       simulate_path, stream)
from .tails import (HillResult, RankRegression, TailReport, classify_tail,
                    hill, rank_regression, threshold_sweep)

__all__ = [
    "__version__",
    # response
    "Family", "ResponseSpec", "TabulatedResponse", "ScaledResponse",
    "TailClass", "TailKind", "AdmissibilityReport", "check_admissibility",
    "reciprocal_log_grid", "invert_monotone",
    # density
    "OrderFlowParams", "ratio_density_anticorr", "ratio_cdf_anticorr",
    "ratio_density", "ratio_cdf", "positive_ratio_mass", "PowerMap",
    "transform_density", "TransformedDensity", "TailPrediction",
    "tail_prediction", "CurveMethod", "DensityCurve",
    # simulate
    "SimConfig", "PriceSeries", "RatioSample", "RejectionPolicy",
    "sample_bivariate", "sample_ratio", "simulate_path", "simulate_gbm",
    "stream",
    # tails
    "HillResult", "hill", "RankRegression", "rank_regression",
    "TailReport", "classify_tail", "threshold_sweep",
    # fitting
    "WindowSpec", "relative_changes", "FitResult", "fit_g",
    "fit_price_series", "exponent_report",
]
