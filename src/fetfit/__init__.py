"""fetfit: feature-based compact-model parameter extraction.

An analytic surrogate FET model generates I-V and C-V curves from 14 named
parameters; a feature extractor reduces each curve set to 24 physics and
shape features; a small fully connected network regresses the parameters
back from the features; and a verification stage resimulates predictions and
scores them with relative RMS metrics.
"""

import logging

from .ann import (
    MLPConfig,
    MLPWeights,
    TrainConfig,
    forward,
    init_weights,
    load_model,
    loss_and_grad,
    predict_params,
    save_model,
    swish,
    train,
)
from .curve_io import (
    read_curve_csv,
    read_curveset_dir,
    write_curve_csv,
    write_curveset_dir,
    write_overlay_csv,
)
from .dataset import (
    Dataset,
    Normalizer,
    build_dataset,
    fit_normalizer,
    load_dataset,
    sample_params,
    save_dataset,
)
from .device import (
    Curve,
    CurveKind,
    CurveSet,
    ProcessKnobs,
    apply_knobs,
    cgg,
    differentiate,
    ids,
    simulate_curveset,
    simulate_ids_vds,
)
from .errors import (
    ConfigError,
    DataError,
    ExtractionError,
    FetfitError,
    InvalidParameterError,
    TrainingDivergedError,
)
from .features import (
    FEATURE_NAMES,
    FeatureConfig,
    extract_cv_features,
    extract_gm_features,
    extract_iv_features,
    featurize,
    rms,
    subthreshold_swing,
    trapz,
    vth_constant_current,
)
from .params import (
    DEFAULT_RANGES,
    PARAM_NAMES,
    REFERENCE_PARAMS,
    ModelParams,
    ParamRanges,
)
from .verify import (
    CurveError,
    VerifyReport,
    direct_fit,
    direct_fit_objective,
    holdout_round_trip,
    rms_percent,
    round_trip,
    round_trip_from_params,
    subthreshold_rms_percent,
    variability_suite,
)

__version__ = "0.1.0"

logging.getLogger(__name__).addHandler(logging.NullHandler())
