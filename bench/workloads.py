"""The benchmark workloads: command flags and expected outcomes.

Each round of a workload runs ``blendsp train``, then ``infer`` on the test
model and ``gap`` on the train model with the trained weights, in that
order.  A workload without ``infer`` or ``gap`` flags skips that command.
The function of the same name in ``corpora`` builds the workload's corpus.
"""

from __future__ import annotations

WORKLOADS = {
    "denoise10": {
        "train": ["--eps", "1", "--C", "0.3", "--residual-tol", "1e-8", "--max-iters", "1000"],
        "infer": [],
        "gap": ["--eps", "1", "--C", "0.3"],
        "train_exit": 0,
        "max_error_share": 0.02,
        "setup_reps": 15,
        "probe_reps": 5,
    },
    "highorder": {
        "train": ["--C", "0.3"],
        "infer": [],
        "gap": ["--C", "0.3"],
        "train_exit": 0,
        "setup_reps": 15,
        "probe_reps": 5,
    },
    # The large case: convergence takes thousands of iterations, so train
    # runs a fixed budget and ends with exit code 2.
    "denoise40": {
        "train": ["--C", "0.3", "--max-iters", "3"],
        "train_exit": 2,
        "train_budget": 3,
        "strict_descent": True,
        "tied_pairs": True,
        "setup_reps": 3,
        "probe_reps": 1,
    },
}

# Every workload trains and scores with these.
EPS = 1.0
C = 0.3
INFER_MAX_SWEEPS = 200
