"""ECG denoising with an ensemble Kalman filter over a Gaussian-wave beat
model, six classical baseline filters, calibrated noise mixing, and a
benchmark harness for PhysioNet-style records."""

from .core import RPeaks, Signal, slice_signal
from .enkf import FilterConfig, denoise
from .metrics import MetricReport, NoisyMix, calibrate_gain, corr, mix, prd, report, rmse, snr
from .model import GaussianWaveParams, default_morphology, detect_r_peaks, fit_params, mean_beat, observed_phase, synthesize

__all__ = [
    "FilterConfig",
    "GaussianWaveParams",
    "MetricReport",
    "NoisyMix",
    "RPeaks",
    "Signal",
    "calibrate_gain",
    "corr",
    "default_morphology",
    "denoise",
    "detect_r_peaks",
    "fit_params",
    "mean_beat",
    "mix",
    "observed_phase",
    "prd",
    "report",
    "rmse",
    "slice_signal",
    "snr",
    "synthesize",
]

__version__ = "0.1.0"
