"""Count the minor page faults and CPU seconds of each benchmark command.

Usage: python3 tools/faults.py

For each benchmark workload, builds its corpus at seed 1 with
``bench/corpora.py`` in a temporary directory, then starts one process per
heap policy that does what a benchmark round does: ``setup_reps`` of
``bench/child.py``'s model loads, then ``train``, ``infer`` and ``gap``
in-process through ``blendsp.cli.main`` with the flags of
``bench/workloads.py``, under the benchmark's pinned environment.  It
prints one line per command with the process's minor faults (``ru_minflt``)
and CPU seconds over that command.  The policies are ``pinned``, the
commands as they run, and ``default``, the same commands with
``cli._pin_heap`` replaced by a no-op: the C library's default thresholds,
which library calls run under.  The program is whichever ``blendsp``
Python imports (set ``PYTHONPATH``); ``bench/`` is the one next to this
script, which it only reads.
"""

from __future__ import annotations

import contextlib
import gc
import io
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import corpora  # noqa: E402
from child import _load  # noqa: E402
from run import PINNED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = ("denoise10", "highorder")
POLICIES = ("pinned", "default")


def round_process(workload: str, corpus: Path, policy: str) -> None:
    """One benchmark-style round in this process; print each command's
    faults and CPU seconds."""
    from blendsp import cli

    if policy == "default":
        cli._pin_heap = lambda: None
    spec = WORKLOADS[workload]
    for _ in range(spec["setup_reps"]):
        _load(corpus / "train.bsp")
        gc.collect()
    train_bsp, weights = str(corpus / "train.bsp"), str(corpus / "weights.bsw")
    commands = [
        ("train", ["train", "--model", train_bsp, *spec["train"],
                   "--out", weights, "--log", str(corpus / "train.log")]),
        ("infer", ["infer", "--model", str(corpus / "test.bsp"), "--weights", weights,
                   *spec["infer"], "--out", str(corpus / "pred.labels")]),
        ("gap", ["gap", "--model", train_bsp, "--weights", weights, *spec["gap"]]),
    ]
    for name, argv in commands:
        faults, cpu = resource.getrusage(resource.RUSAGE_SELF).ru_minflt, time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        cpu = time.process_time() - cpu
        print(f"{workload} {policy:7} {name:5} exit={code} minflt={faults} cpu_s={cpu:.3f}")


def main(argv: list[str]) -> int:
    if argv:
        round_process(argv[0], Path(argv[1]), argv[2])
        return 0
    env = dict(os.environ, **PINNED)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in RUNS:
            corpus = Path(tmp) / workload
            with contextlib.redirect_stdout(io.StringIO()):
                getattr(corpora, workload)(corpus, 1)
            for policy in POLICIES:
                sys.stdout.flush()
                subprocess.run(
                    [sys.executable, __file__, workload, str(corpus), policy], env=env, check=True
                )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
