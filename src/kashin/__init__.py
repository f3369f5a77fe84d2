"""Tight frames, uncertainty-principle calibration, conversion to
uniformly spread (Kashin) representations, and robust vector
quantization experiments."""

from .conversion import (
    ConversionConfig,
    KashinRepresentation,
    TruncationSpec,
    adjusted_parameters,
    effective_level,
    kashin_decode,
    kashin_encode,
)
from .errors import KashinError
from .frames import (
    FrameFamily,
    FrameMatrix,
    analysis,
    gen_partial_fourier,
    gen_random_orthogonal,
    gen_subgaussian,
    generate,
    measure_tightness,
    synthesis,
)
from .quantize import (
    DistortionReport,
    ErrorModel,
    QuantizerSpec,
    apply_error_model,
    dequantize,
    distortion_experiment,
    frame_baseline_quantize,
    quantize_coeffs,
    separation_experiment,
)
from .uncertainty import (
    UPParams,
    UPWitness,
    theoretical_eta,
    up_check_exact,
    up_estimate,
    uup_to_up,
)

__version__ = "0.1.0"

__all__ = [
    "ConversionConfig",
    "DistortionReport",
    "ErrorModel",
    "FrameFamily",
    "FrameMatrix",
    "KashinError",
    "KashinRepresentation",
    "QuantizerSpec",
    "TruncationSpec",
    "UPParams",
    "UPWitness",
    "adjusted_parameters",
    "analysis",
    "apply_error_model",
    "dequantize",
    "distortion_experiment",
    "effective_level",
    "frame_baseline_quantize",
    "gen_partial_fourier",
    "gen_random_orthogonal",
    "gen_subgaussian",
    "generate",
    "kashin_decode",
    "kashin_encode",
    "measure_tightness",
    "quantize_coeffs",
    "separation_experiment",
    "synthesis",
    "theoretical_eta",
    "up_check_exact",
    "up_estimate",
    "uup_to_up",
    "__version__",
]
