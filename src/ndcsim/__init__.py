"""Desk-scale nonlocal dispersion cancellation experiment toolkit."""

from .analyze import (
    GaussianFit,
    LinearFit,
    WasakResult,
    dispersion_from_slope,
    evaluate_wasak,
    fit_gaussian,
    fit_linear,
    variance_from_fit,
)
from .config import ExperimentConfig, RunSpec, parse_config
from .correlate import Histogram, coarse_offset, fine_histogram, g2_normalize
from .model import (
    DispersionLeg,
    SourceParams,
    WasakInputs,
    fwhm_from_sigma,
    source_variance_ps2,
    wasak_w,
    wasak_w_uncertainty,
)
from .pipeline import measure_peak, run_simulation
from .simulate import (DetectorSpec, PairEvents, TimerSpec, arm_shifts, detect, digitize,
                       generate_pairs, propagate)
from .streams import TagStream
from .tagio import read_tags, write_tags

__version__ = "0.1.0"
