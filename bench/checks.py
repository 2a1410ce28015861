"""Output checks of the benchmark workloads.

Every check reads the program's output files and printed reports with its
own small parsers and compares them against the generated ground truth, an
independent solve of the same problem, or a property the method must have.
No check compares against a stored copy of earlier output.

``check_round`` returns the names of the operations that failed and a list
of problems.  An operation fails when it did not deliver what it is for (a
``gap`` run that does not certify); a problem is a wrong output of an
operation that did not fail, and makes the run incorrect.
"""

from __future__ import annotations

import math

# A primal may rise between logged iterations by no more than this share of
# its value: the log prints 12 significant digits.
PRIMAL_RISE_TOL = 1e-11
# gap and train solve the messages of one convex problem independently.
PRIMAL_MATCH_TOL = 1e-9
# The two shared feature pairs have gradients that are exact negatives.
TIED_WEIGHT_TOL = 1e-9


def report_values(stdout: str) -> dict[str, str]:
    """``key=value`` fields of a printed report; the last one of a key wins."""
    return dict(tok.split("=", 1) for tok in stdout.split() if "=" in tok)


def log_rows(text: str) -> list[list[float]]:
    """Rows of a training log: iter primal dual gap residual gradnorm eta."""
    return [[float(tok) for tok in line.split()] for line in text.splitlines() if line.strip()]


def weights(text: str) -> list[float]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "BLENDSP-W 1":
        raise ValueError("weights file has no BLENDSP-W 1 header")
    out = []
    for line in lines[1:]:
        toks = line.split()
        if len(toks) == 2 and "=" not in line:
            if int(toks[0]) != len(out):
                raise ValueError("weights file ids are not dense")
            out.append(float(toks[1]))
    return out


def labels(text: str) -> dict[int, list[int]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "BLENDSP-L 1":
        raise ValueError("labels file has no BLENDSP-L 1 header")
    out = {}
    for line in lines[1:]:
        toks = line.split()
        if toks:
            out[int(toks[0])] = [int(t) for t in toks[1:]]
    return out


def infer_lines(stdout: str) -> list[tuple[int, float, int]]:
    """(sample, residual, sweeps) of infer's per-sample lines."""
    out = []
    for line in stdout.splitlines():
        if line.startswith("sample="):
            fields = dict(tok.split("=", 1) for tok in line.split())
            out.append((int(fields["sample"]), float(fields["residual"]), int(fields["sweeps"])))
    return out


def line_search_trials(eta: float, max_backtracks: int = 50) -> int:
    """Objective trials of one logged step: m + 1 for eta = 0.5^m, and
    max_backtracks + 1 for a stall (eta = 0)."""
    if eta == 0.0:
        return max_backtracks + 1
    return round(-math.log2(eta)) + 1


def _errors(pred: dict[int, list[int]], truth: list[list[int]]) -> int:
    if sorted(pred) != list(range(len(truth))):
        raise ValueError(f"labels cover samples {sorted(pred)}, expected 0..{len(truth) - 1}")
    wrong = 0
    for sid, want in enumerate(truth):
        got = pred[sid]
        if len(got) != len(want):
            raise ValueError(f"sample {sid}: {len(got)} labels, expected {len(want)}")
        wrong += sum(g != w for g, w in zip(got, want))
    return wrong


def _check_train(spec, cmds, files, problems):
    train = cmds["train"]
    if train["code"] != spec["train_exit"]:
        problems.append(f"train exited {train['code']}, expected {spec['train_exit']}")
    rows = log_rows(files["train.log"])
    if not rows:
        problems.append("train log is empty")
        return
    if not all(math.isfinite(x) for row in rows for x in row):
        problems.append("train log holds a value that is not finite")
    if [int(r[0]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.append("train log iterations are not 1..n")
    rep = report_values(train["stdout"])
    if int(rep.get("iterations", -1)) != len(rows):
        problems.append(f"train reports iterations={rep.get('iterations')}, log has {len(rows)}")
    budget = spec.get("train_budget")
    if budget is not None and len(rows) != budget:
        problems.append(f"train ran {len(rows)} iterations, its budget is {budget}")
    primal = [r[1] for r in rows]
    if spec.get("strict_descent"):
        if any(b >= a for a, b in zip(primal, primal[1:])):
            problems.append("train primal does not strictly decrease")
    else:
        rise = max(
            ((b - a) / max(1.0, abs(a)) for a, b in zip(primal, primal[1:])), default=0.0
        )
        if rise > PRIMAL_RISE_TOL:
            problems.append(f"train primal rises by {rise:.3g} of its value")
    losses = [float(v) for v in rep.get("per_sample_loss", "").split(",") if v]
    if not losses or not all(math.isfinite(v) and v >= 0 for v in losses):
        problems.append("train per-sample losses are not all finite and >= 0")
    w = weights(files["weights.bsw"])
    if not all(math.isfinite(x) for x in w):
        problems.append("trained weights are not all finite")
    if spec.get("tied_pairs"):
        scale = max(abs(x) for x in w) or 1.0
        for a, b in ((0, 1), (2, 3)):
            if abs(w[a] + w[b]) > TIED_WEIGHT_TOL * scale:
                problems.append(f"weights w{a}={w[a]!r} and w{b}={w[b]!r} are not opposite")
        if not (w[1] > 0 and w[2] > 0):
            problems.append("weights w1 and w2 are not both positive")


def _check_infer(spec, cmds, files, truth, problems):
    infer = cmds["infer"]
    if infer["code"] != 0:
        problems.append(f"infer exited {infer['code']}")
        return
    pred = labels(files["pred.labels"])
    lines = infer_lines(infer["stdout"])
    if [s for s, _, _ in lines] != sorted(pred):
        problems.append("infer printed other samples than it wrote")
    wrong = _errors(pred, truth["truth"])
    total = sum(len(t) for t in truth["truth"])
    if "max_error_share" in spec and wrong > spec["max_error_share"] * total:
        problems.append(f"infer labels have {wrong} of {total} pixels wrong")
    if "observed" in truth:
        raw = _errors(dict(enumerate(truth["observed"])), truth["truth"])
        if wrong >= raw:
            problems.append(f"infer labels have {wrong} errors, the observations {raw}")


def _check_gap(cmds, failed, problems):
    gap = cmds["gap"]
    if gap["code"] != 0:
        problems.append(f"gap exited {gap['code']}")
        return
    rep = report_values(gap["stdout"])
    train_primal = float(report_values(cmds["train"]["stdout"])["primal"])
    primal = float(rep["primal"])
    if abs(primal - train_primal) > PRIMAL_MATCH_TOL * abs(train_primal):
        problems.append(f"gap primal {primal!r} differs from train primal {train_primal!r}")
    if rep.get("certified") != "true":
        failed.append("gap")


def check_round(spec: dict, result: dict, truth: dict) -> tuple[list[str], list[str]]:
    """Check one round of a workload.  ``result["commands"]`` maps each
    command to its exit code and stdout, ``result["files"]`` each output
    file to its text."""
    cmds, files = result["commands"], result["files"]
    failed: list[str] = []
    problems: list[str] = []
    try:
        _check_train(spec, cmds, files, problems)
        if "infer" in cmds:
            _check_infer(spec, cmds, files, truth, problems)
        if "gap" in cmds:
            _check_gap(cmds, failed, problems)
    except (KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return failed, problems
