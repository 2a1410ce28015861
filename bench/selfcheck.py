"""Show that every output check fires on a deliberately corrupted output.

Usage: python3 bench/selfcheck.py [RUN_DIR ...]

Each RUN_DIR is an untraced run's output directory under .bench_out/
(default: every one there).  The script re-checks the genuine first round,
which must pass, then applies one corruption at a time and requires the
check it targets to report it.  Exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

from checks import check_round, labels, weights
from run import OUT, _round_files
from workloads import WORKLOADS

# the expected outcome of a gap report corrupted to no longer certify
GAP_FAILS = "gap fails"


def _log(fn):
    """Corrupt the train log's rows in place with fn."""
    def corrupt(text):
        rows = [line.split() for line in text.splitlines()]
        fn(rows)
        return "".join(" ".join(r) + "\n" for r in rows)
    return corrupt


def _raise_primal(rows):
    mid = len(rows) // 2
    rows[mid][1] = repr(float(rows[mid - 1][1]) * (1 + 1e-6) + 1e-6)


def _weights(edits):
    """Set weights by index; edits maps index -> fn(old weights) -> value."""
    def corrupt(text):
        w = weights(text)
        new = list(w)
        for i, fn in edits.items():
            new[i] = fn(w)
        meta = "".join(line + "\n" for line in text.splitlines() if "=" in line)
        return "BLENDSP-W 1\n" + "".join(f"{k} {v!r}\n" for k, v in enumerate(new)) + meta
    return corrupt


def _labels_text(pred: dict) -> str:
    return "BLENDSP-L 1\n" + "".join(
        f"{sid} " + " ".join(map(str, pred[sid])) + "\n" for sid in sorted(pred)
    )


def _flip(share: float):
    """Flip one more than ``share`` of all binary labels."""
    def corrupt(text):
        pred = labels(text)
        todo = int(share * sum(len(v) for v in pred.values())) + 1
        for sid in sorted(pred):
            for i in range(len(pred[sid])):
                if todo:
                    pred[sid][i] = 1 - pred[sid][i]
                    todo -= 1
        return _labels_text(pred)
    return corrupt


def _report(key: str, fn):
    """Rewrite one ``key=value`` line of a printed report."""
    return lambda text: re.sub(
        rf"^{key}=(\S+)$", lambda m: f"{key}={fn(m.group(1))}", text, flags=re.M
    )


def corruptions(spec: dict, truth: dict) -> list[tuple]:
    """(description, place, name, expected problem text, corrupting fn).

    ``place`` is "files" for the output file ``name``, or "stdout" or
    "code" for the printed report or exit code of the command ``name``.
    """
    rise = "does not strictly decrease" if spec.get("strict_descent") else "primal rises"
    out = [
        ("train log with a rising primal", "files", "train.log", rise, _log(_raise_primal)),
        ("train log missing its last line", "files", "train.log", "iterations=",
         _log(lambda rows: rows.pop())),
        ("train log with a nan", "files", "train.log", "not finite",
         _log(lambda rows: rows[0].__setitem__(3, "nan"))),
        ("train with another exit code", "code", "train", "train exited", lambda c: c + 1),
        ("train report with a negative sample loss", "stdout", "train", "per-sample losses",
         _report("per_sample_loss", lambda v: "-1," + v)),
        ("weights file with an inf", "files", "weights.bsw", "not all finite",
         _weights({0: lambda w: float("inf")})),
    ]
    if spec.get("train_budget"):
        out.append(("train log one iteration short of its budget", "files", "train.log",
                    "its budget", _log(lambda rows: rows.pop())))
    if spec.get("tied_pairs"):
        out += [
            ("weights file with w0 != -w1", "files", "weights.bsw", "are not opposite",
             _weights({0: lambda w: -w[1] * (1 + 1e-6)})),
            ("weights file with w2 < 0", "files", "weights.bsw", "not both positive",
             _weights({2: lambda w: -abs(w[2]), 3: lambda w: abs(w[2])})),
        ]
    if "infer" in spec:
        out.append(("infer with another exit code", "code", "infer", "infer exited",
                    lambda c: 1))
        if "max_error_share" in spec:
            out.append(("labels file with too many flipped pixels", "files", "pred.labels",
                        "pixels wrong", _flip(spec["max_error_share"])))
        if "observed" in truth:
            observed = _labels_text(dict(enumerate(truth["observed"])))
            out.append(("labels file equal to the raw observations", "files", "pred.labels",
                        "the observations", lambda text: observed))
        out.append(("labels file missing a sample", "files", "pred.labels",
                    "unreadable output", lambda text: "".join(text.splitlines(True)[:-1])))
    if "gap" in spec:
        out += [
            ("gap report whose primal differs from train's", "stdout", "gap",
             "differs from train primal",
             _report("primal", lambda v: repr(float(v) * (1 + 1e-7)))),
            ("gap report that does not certify", "stdout", "gap", GAP_FAILS,
             _report("certified", lambda v: "false")),
        ]
    return out


def selfcheck(run_dir: Path) -> int:
    name = run_dir.name.rsplit("-seed", 1)[0]
    spec = WORKLOADS[name]
    truth = json.loads((run_dir / "truth.json").read_text())
    rnd = run_dir / "round0"
    result = json.loads((rnd / "round.json").read_text())
    result["files"] = _round_files(rnd)
    base_failed, base_problems = check_round(spec, result, truth)
    print(f"{run_dir.name}: genuine output: failed={base_failed} problems={base_problems}")
    missed = 1 if base_problems else 0
    for what, place, key, expect, corrupt in corruptions(spec, truth):
        if expect == GAP_FAILS and "gap" in base_failed:
            print(f"  skipped: {what} (the genuine gap already fails)")
            continue
        bad = copy.deepcopy(result)
        target, field = (bad["files"], key) if place == "files" else (bad["commands"][key], place)
        target[field] = corrupt(target[field])
        failed, problems = check_round(spec, bad, truth)
        caught = "gap" in failed if expect == GAP_FAILS else any(expect in p for p in problems)
        print(f"  {'caught' if caught else 'MISSED'}: {what}"
              + (f" -> {problems or failed}" if caught else ""))
        missed += not caught
    return missed


def main(argv: list[str]) -> int:
    dirs = [Path(a) for a in argv] or sorted(
        d for d in OUT.glob("*-seed*")
        if (d / "round0" / "round.json").exists()
        and "setup_s" in json.loads((d / "round0" / "round.json").read_text())
    )
    if not dirs:
        print("no untraced run outputs found; run bench/run.py first", file=sys.stderr)
        return 1
    missed = sum(selfcheck(d) for d in dirs)
    print(f"selfcheck: {missed} corruption(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
