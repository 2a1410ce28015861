"""Write the benchmark workloads' outputs into one directory, to compare two
versions of the program byte for byte.

Usage: python3 tools/outputs.py OUT

Builds the ``denoise10`` and ``highorder`` corpora at seeds 1 and 7 with
``bench/corpora.py``, runs ``train``, ``infer``, ``gap`` and ``gap
--c-scheme bethe`` in-process with the flags of ``bench/workloads.py``, and
writes into ``OUT/<workload>-seed<seed>/`` each command's stdout (the
corpus directory replaced by ``<dir>``, the exit code on a last line) as
``<command>.stdout``, and ``train.log``, ``weights.bsw`` and ``pred.labels``.
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

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import corpora  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS = [(workload, seed) for workload in ("denoise10", "highorder") for seed in (1, 7)]
KEPT = ("train.log", "weights.bsw", "pred.labels")


def run(workload: str, seed: int, work: Path, out: Path) -> None:
    """Build one corpus in ``work``, run its commands there and copy what
    they wrote and printed into ``out``."""
    from blendsp.cli import main

    getattr(corpora, workload)(work, seed)
    spec = WORKLOADS[workload]
    train_bsp, weights = str(work / "train.bsp"), str(work / "weights.bsw")
    commands = [
        ("train", ["train", "--model", train_bsp, *spec["train"],
                   "--out", weights, "--log", str(work / "train.log")]),
        ("infer", ["infer", "--model", str(work / "test.bsp"), "--weights", weights,
                   *spec["infer"], "--out", str(work / "pred.labels")]),
        ("gap", ["gap", "--model", train_bsp, "--weights", weights, *spec["gap"]]),
        ("gap-bethe", ["gap", "--model", train_bsp, "--weights", weights, *spec["gap"],
                       "--c-scheme", "bethe"]),
    ]
    out.mkdir(parents=True)
    for name, argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        text = buf.getvalue().replace(str(work), "<dir>")
        (out / f"{name}.stdout").write_text(f"{text}[exit {code}]\n")
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
