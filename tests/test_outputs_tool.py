"""``tools/outputs.py`` counts what the library calls of ``train``, ``infer``
and ``gap`` do.

A ``counted`` wrapper that no longer fits the signature of the library call
it wraps fails here instead of in a comparison of two versions' outputs.
"""

import re
import sys
from pathlib import Path

from blendsp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_outputs_tool_counts_train_infer_and_gap(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ and bench/ as they are
    import outputs

    corpus = tmp_path / "corpus"
    args = ["--width", "3", "--height", "3", "--flip-prob", "0.2", "--num-train", "2",
            "--num-test", "1", "--tying", "full", "--seed", "3", "--out", str(corpus)]
    assert main(["gen-denoise", *args]) == 0
    capsys.readouterr()
    weights = str(tmp_path / "weights.bsw")
    commands = [
        ("train", ["train", "--model", str(corpus / "train.bsp"), "--C", "0.3",
                   "--max-iters", "20", "--out", weights]),
        ("infer", ["infer", "--model", str(corpus / "test.bsp"), "--weights", weights,
                   "--out", str(tmp_path / "pred.labels")]),
        ("gap", ["gap", "--model", str(corpus / "train.bsp"), "--weights", weights,
                 "--C", "0.3"]),
    ]
    counts, stdout = [], {}
    for name, argv in commands:
        with outputs.counted(name, counts):
            assert main(argv) in (0, 2)
        stdout[name] = capsys.readouterr().out
    assert len(counts) == len(commands)
    train = re.fullmatch(
        r"train iterations=(\d+) trials=\d+ sweeps=\d+ block=\d+ accepted=\d+ rejected=\d+"
        r" stalled=(\d+)",
        counts[0],
    )
    assert train is not None
    assert 0 <= int(train[2]) <= int(train[1])
    assert re.search(rf"^iterations={train[1]} ", stdout["train"], re.M)
    # one test sample and two train samples, each measured before any sweep
    for line, (name, _), rows in zip(counts[1:], commands[1:], (1, 2)):
        engine = re.fullmatch(
            rf"{name} sweeps=(\d+) extrapolations=\d+ capped=\d+ measured=(\d+)", line
        )
        assert engine is not None
        assert rows <= int(engine[2]) <= int(engine[1]) + rows
