"""Benchmark of the blendsp command line, end to end and layer by layer.

Usage:
    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds the workload's corpus from --seed, then runs rounds of ``blendsp
train``, ``infer`` and ``gap``, each round in a fresh process with BLAS
pinned to one thread, until --seconds have passed (at least one round).
Every output is checked.  Times are host seconds: CPU seconds at a fixed
host speed (see hostspeed.py).  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics of one traced round with
--trace 1.  Corpora, outputs and traces go to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_round, infer_lines, line_search_trials, log_rows
from workloads import INFER_MAX_SWEEPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEADLINE_S = 170.0

PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
}
UNITS = {"setup_s": "s", "train_s": "s", "infer_s": "s", "gap_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _round(name: str, corpus: Path, rnd: Path, trace: bool, timeout: float) -> dict:
    rnd.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), name, str(corpus), str(rnd), str(int(trace))],
        env=_env(),
        timeout=timeout,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"round process exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    result = json.loads((rnd / "round.json").read_text())
    result["files"] = _round_files(rnd)
    return result


def _round_files(rnd: Path) -> dict:
    """Text of the output files a round wrote."""
    names = ("train.log", "weights.bsw", "pred.labels")
    return {f: (rnd / f).read_text() for f in names if (rnd / f).exists()}


def _layer_metrics(spec: dict, result: dict) -> dict:
    layers = dict(result["layers"])
    rows = log_rows(result["files"]["train.log"])
    layers["learner.iterations"] = len(rows)
    layers["learner.line_search_trials"] = sum(line_search_trials(r[6]) for r in rows)
    if "infer" in spec:
        sweeps = [s for _, _, s in infer_lines(result["commands"]["infer"]["stdout"])]
        layers["learner.predict_sweeps"] = sum(sweeps)
        layers["learner.predict_capped"] = sum(s >= INFER_MAX_SWEEPS for s in sweeps)
    layers["trace.probe_s"] = result["probe_s"]
    return layers


def _report_overhead(name: str, result: dict, out: Path) -> None:
    """Traced command times against the last untraced run of the workload."""
    last = OUT / f"{name}-last.json"
    if not last.exists():
        print("trace overhead: no untraced run of this workload on record")
        return
    untraced = json.loads(last.read_text())
    overhead = {}
    for cmd, rec in result["commands"].items():
        base = untraced.get(f"{cmd}_s")
        if base:
            overhead[cmd] = rec["seconds"] / base - 1.0
            print(f"trace overhead {cmd}: {rec['seconds']:.4f} s traced, "
                  f"{base:.4f} s untraced ({100 * overhead[cmd]:+.2f}%)")
    (out / "overhead.json").write_text(json.dumps(overhead, indent=1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    if not (SRC / "blendsp" / "cli.py").is_file():
        print(f"error: no blendsp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(PINNED)
    import corpora

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    out = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)
    corpus = out / "corpus"
    truth = getattr(corpora, args.workload)(corpus, args.seed)
    (out / "truth.json").write_text(json.dumps(truth))

    rounds, attempted, failed, problems = [], 0, 0, []
    measuring = time.perf_counter()
    while True:
        before = time.perf_counter()
        remaining = DEADLINE_S - (before - started)
        try:
            result = _round(args.workload, corpus, out / f"round{len(rounds)}",
                            bool(args.trace), remaining)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        round_failed, round_problems = check_round(spec, result, truth)
        attempted += len(result["commands"])
        failed += len(round_failed)
        problems += round_problems
        rounds.append(result)
        now = time.perf_counter()
        if args.trace or now - measuring >= args.seconds:
            break
        if DEADLINE_S - (now - started) < 1.5 * (now - before):
            break

    if args.trace:
        metrics = {k: {"value": v, "unit": "s" if k.endswith("_s") else "count"}
                   for k, v in _layer_metrics(spec, rounds[0]).items()}
        _report_overhead(args.workload, rounds[0], out / "round0")
    else:
        per_round = {"setup_s": [statistics.median(r["setup_s"]) for r in rounds],
                     "peak_rss_mb": [r["peak_rss_mb"] for r in rounds]}
        for cmd in rounds[0]["commands"]:
            per_round[f"{cmd}_s"] = [r["commands"][cmd]["seconds"] for r in rounds]
        medians = {k: statistics.median(v) for k, v in per_round.items()}
        raw = {f"{cmd} {kind}": statistics.median(r["commands"][cmd][f"{kind}_s"] for r in rounds)
               for cmd in rounds[0]["commands"] for kind in ("cpu", "wall")}
        metrics = {k: {"value": medians[k], "unit": UNITS[k]} for k in UNITS if k in medians}
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-last.json").write_text(json.dumps(medians))

    print(f"workload={args.workload} seed={args.seed} rounds={len(rounds)} "
          f"trace={args.trace} out={out.relative_to(ROOT)}")
    for problem in problems:
        print(f"check failed: {problem}")
    for key, m in metrics.items():
        print(f"{key} {m['value']} {m['unit']}")
    if not args.trace:
        print("not metrics: " + ", ".join(f"{k} {v:.3f} s" for k, v in raw.items()))
    print(f"attempted={attempted} failed={failed}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
