"""Write the benchmark workloads' outputs into one directory, to compare two
versions of the program byte for byte.

Usage: python3 tools/outputs.py OUT

Builds the ``denoise10`` corpus at seed 1 and the ``highorder`` corpus at
seeds 1 and 7 with ``bench/corpora.py`` (``denoise10`` ignores the seed, and
``highorder``'s seed relabels only its test set), runs ``train``,
``infer``, ``gap``, ``gap --c-scheme bethe`` and ``gap --c-file``
(``gap-cfile``: counting numbers of 0.5 for every region, read from
``half.counts``, which it writes next to the corpus) in-process with the
flags of ``bench/workloads.py``, a fixed-count ``train --sweeps-per-step 3
--max-iters 40`` (``train-fixed``, the block path without the growing
rule), and ``train --c-scheme bethe --max-iters 60`` (``train-bethe``, the
default block where descent fails, so it stays one sweep), and writes into
``OUT/<workload>-seed<seed>/`` each command's stdout (the corpus directory
replaced by ``<dir>``, the exit code on a last line) as
``<command>.stdout``, and ``train.log``, ``weights.bsw``, ``pred.labels``,
``train-fixed.log``, ``weights-fixed.bsw``, ``train-bethe.log`` and
``weights-bethe.bsw``.  It also writes ``counts.txt``, one line per command
of the counts its output does not show, taken from the library calls the
command makes: for each ``train`` (library ``train``), its iterations, the
summed line-search trials and block sweeps of its ``IterationRecord``s, the
final ``TrainState.block``, the extrapolations accepted and rejected and
the stalled weight steps (records with eta = 0); for ``infer`` and each
``gap`` (library ``sweep_until_consistent``), the summed engine sweeps,
accepted extrapolations, capped rows (a residual above the call's
tolerance, or NaN) and residual measurements.
The program is whichever ``blendsp`` Python imports (set ``PYTHONPATH``);
``bench/`` is the one next to this script, which it only reads.  Two runs
compare with ``diff -r``.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpora  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = [("denoise10", 1), ("highorder", 1), ("highorder", 7)]
KEPT = (
    "train.log", "weights.bsw", "pred.labels", "train-fixed.log", "weights-fixed.bsw",
    "train-bethe.log", "weights-bethe.bsw",
)


def counted(command: str, counts: list[str]):
    """A context in which the library call that ``command`` makes appends
    its line of ``counts.txt`` to ``counts``."""
    from blendsp import cli, learner

    if command.startswith("train"):
        original = cli.train

        def train(*args, log_fn=None, **kwargs):
            records = []

            def log(record):
                records.append(record)
                if log_fn is not None:
                    log_fn(record)

            state = original(*args, log_fn=log, **kwargs)
            outcomes = [r.extrapolated for r in records]
            counts.append(
                f"{command} iterations={len(records)} trials={sum(r.trials for r in records)} "
                f"sweeps={sum(r.sweeps for r in records)} block={state.block} "
                f"accepted={outcomes.count(True)} rejected={outcomes.count(False)} "
                f"stalled={sum(r.eta == 0 for r in records)}"
            )
            return state

        return mock.patch.object(cli, "train", train)
    module = learner if command == "infer" else cli  # predict_all's engine call, or gap's
    original = module.sweep_until_consistent

    def engine(layout, lam, theta, eps, cvals, max_sweeps, tol):
        res = original(layout, lam, theta, eps, cvals, max_sweeps, tol)
        counts.append(
            f"{command} sweeps={res.sweeps.sum()} extrapolations={res.extrapolations.sum()} "
            f"capped={(~(res.residual <= tol)).sum()} measured={res.measured.sum()}"
        )
        return res

    return mock.patch.object(module, "sweep_until_consistent", engine)


def run(workload: str, seed: int, work: Path, out: Path) -> None:
    """Build one corpus in ``work``, run its commands there and copy what
    they wrote, printed and counted into ``out``."""
    from blendsp.cli import main
    from blendsp.fileio import parse_model

    getattr(corpora, workload)(work, seed)
    spec = WORKLOADS[workload]
    train_bsp, weights = str(work / "train.bsp"), str(work / "weights.bsw")
    with open(train_bsp) as fh:
        regions = parse_model(fh).graph.region_count
    (work / "half.counts").write_text("".join(f"{r} 0.5\n" for r in range(regions)))
    commands = [
        ("train", ["train", "--model", train_bsp, *spec["train"],
                   "--out", weights, "--log", str(work / "train.log")]),
        ("infer", ["infer", "--model", str(work / "test.bsp"), "--weights", weights,
                   *spec["infer"], "--out", str(work / "pred.labels")]),
        ("gap", ["gap", "--model", train_bsp, "--weights", weights, *spec["gap"]]),
        ("gap-bethe", ["gap", "--model", train_bsp, "--weights", weights, *spec["gap"],
                       "--c-scheme", "bethe"]),
        ("gap-cfile", ["gap", "--model", train_bsp, "--weights", weights, *spec["gap"],
                       "--c-file", str(work / "half.counts")]),
        ("train-fixed", ["train", "--model", train_bsp, *spec["train"],
                         "--sweeps-per-step", "3", "--max-iters", "40",
                         "--out", str(work / "weights-fixed.bsw"),
                         "--log", str(work / "train-fixed.log")]),
        ("train-bethe", ["train", "--model", train_bsp, *spec["train"],
                         "--c-scheme", "bethe", "--max-iters", "60",
                         "--out", str(work / "weights-bethe.bsw"),
                         "--log", str(work / "train-bethe.log")]),
    ]
    out.mkdir(parents=True)
    counts = []
    for name, argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), counted(name, counts):
            code = main(argv)
        text = buf.getvalue().replace(str(work), "<dir>")
        (out / f"{name}.stdout").write_text(f"{text}[exit {code}]\n")
    (out / "counts.txt").write_text("".join(f"{line}\n" for line in counts))
    for name in KEPT:
        shutil.copyfile(work / name, out / name)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        for workload, seed in RUNS:
            name = f"{workload}-seed{seed}"
            run(workload, seed, Path(tmp) / name, out / name)
            print(f"wrote {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
