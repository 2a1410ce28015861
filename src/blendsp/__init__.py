"""Learning region-graph structured predictors by blending inference sweeps
with gradient steps on a decomposed convex upper bound of the
temperature-extended log-loss."""

from .inference import (
    Guarantees,
    MessageState,
    compute_beliefs,
    guarantees,
    inference_sweep,
    lambda_update,
    marginal_residual,
    mu_message,
)
from .learner import (
    PredictResult,
    TrainerConfig,
    TrainState,
    predict,
    predict_all,
    train,
    w_gradient,
    w_step,
)
from .model import CountingNumbers, ModelError, Region, RegionGraph, Sample
from .objective import (
    ObjectiveReport,
    dual_objective,
    duality_report,
    moment_mismatch,
    primal_objective,
    region_loss,
)

__version__ = "0.1.0"
