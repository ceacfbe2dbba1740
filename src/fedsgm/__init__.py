"""Sketched Gaussian mechanism: privacy accounting and federated training."""

__version__ = "0.1.0"

from .accountant import (  # noqa: F401
    AccountantParams,
    DpPoint,
    PipelineTrace,
    RdpPoint,
    baseline_gm_epsilon,
    calibrate_baseline_sigma,
    calibrate_sgm_sigma,
    f_alpha,
    rdp_bound_validity,
    rdp_to_dp,
    renyi_divergence_sgm,
    sgm_epsilon,
    sgm_optimal_alpha,
    sgm_pipeline,
    sgm_rdp_bound,
    sgm_step_dp,
    strong_compose,
    subsample_dp,
)
from .errors import (  # noqa: F401
    CalibrationError,
    ConfigurationError,
    DimensionMismatchError,
    FedSgmError,
    ParameterRegimeError,
    RenyiOrderDomainError,
    ResourceLimitError,
)
from .mechanism import (  # noqa: F401
    MechanismConfig,
    clip,
    noise_stream,
    ratio_sensitivity_bounds,
    sensitivity_ratio,
    sgm_apply,
)
from .optim import (  # noqa: F401
    AdamState,
    AmsGradState,
    adam_step,
    amsgrad_step,
    gd_step,
)
from .sketch import (  # noqa: F401
    IdentityCompressor,
    SketchMatrix,
    SketchSpec,
    identity_compressor,
    sample_sketch,
)
from .tasks import (  # noqa: F401
    Partition,
    Task,
    estimate_G_and_sigma_s,
    iid_partition,
    intrinsic_dimension,
    label_skew_partition,
    make_federated_quadratic,
    make_logreg,
    make_quadratic,
    power_law_spectrum,
)
from .fedsim import (  # noqa: F401
    FedConfig,
    FederationResult,
    RoundRecord,
    client_local_update,
    client_privatize,
    client_sampler,
    run_federation,
    server_round,
    write_manifest,
    write_round_csv,
)
