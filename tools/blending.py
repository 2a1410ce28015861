"""Print README's "Blending, measured" table: training cost by inference block.

Usage: python3 tools/blending.py [RUNS]

Builds the ``denoise10`` and ``highorder`` corpora at seed 1 with
``bench/corpora.py`` in a temporary directory and runs ``blendsp train``
in-process through ``blendsp.cli.main`` at the flags of
``bench/workloads.py``: with the default growing block, and with
``--sweeps-per-step N`` for N = 1, 2, 3, 5, 10 and 50 (near-nested
inference).  Each cell of the Markdown table it prints is iterations /
block sweeps / line-search trials / CPU seconds of one such command: the
counts summed over the ``IterationRecord``s the library ``train`` logs
(they are the same in every run), the CPU the minimum over RUNS runs
(default 3) of the command's process time.  The program is whichever ``blendsp`` Python imports (set
``PYTHONPATH``); ``bench/`` is the one next to this script, which it only
reads.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpora  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CORPORA = ("denoise10", "highorder")
BLOCKS = (None, 1, 2, 3, 5, 10, 50)  # None: the default growing block; 50: near-nested


def measure(work: Path, workload: str, block: int | None, runs: int) -> str:
    """One table cell: iterations / sweeps / trials / minimum CPU seconds."""
    from blendsp import cli

    argv = ["train", "--model", str(work / "train.bsp"), *WORKLOADS[workload]["train"],
            "--out", str(work / "weights.bsw")]
    if block is not None:
        argv += ["--sweeps-per-step", str(block)]
    original, cpu, counts = cli.train, [], set()

    def train(*args, log_fn=None, **kwargs):
        records = []
        state = original(*args, log_fn=records.append, **kwargs)
        counts.add((len(records), sum(r.sweeps for r in records), sum(r.trials for r in records)))
        return state

    for _ in range(runs):
        with mock.patch.object(cli, "train", train), contextlib.redirect_stdout(io.StringIO()):
            start = time.process_time()
            cli.main(argv)
            cpu.append(time.process_time() - start)
    (iterations, sweeps, trials), = counts  # deterministic: one set of counts
    return f"{iterations} / {sweeps} / {trials} / {min(cpu):.3f}"


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs = int(argv[0]) if argv else 3
    import numpy as np

    cells = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in CORPORA:
            work = Path(tmp) / workload
            getattr(corpora, workload)(work, 1)
            for block in BLOCKS:
                cells[workload, block] = measure(work, workload, block, runs)
    py = ".".join(map(str, sys.version_info[:3]))
    print(f"iterations / block sweeps / trials / CPU s (minimum of {runs} runs; "
          f"Python {py}, numpy {np.__version__})")
    print()
    print("| block | " + " | ".join(f"`{w}`" for w in CORPORA) + " |")
    print("|---|" + "---|" * len(CORPORA))
    for block in BLOCKS:
        name = "default (growing)" if block is None else f"N = {block}"
        print(f"| {name} | " + " | ".join(cells[w, block] for w in CORPORA) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
