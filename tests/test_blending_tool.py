"""``tools/blending.py`` reads its counts from the records the library
``train`` logs: a wrapper that no longer fits ``train``'s signature fails
here instead of in CI's printed table."""

import re
import sys
from pathlib import Path

from blendsp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_blending_tool_counts_a_fixed_block(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave tools/ and bench/ as they are
    import blending

    args = ["--width", "3", "--height", "3", "--flip-prob", "0.2", "--num-train", "2",
            "--num-test", "1", "--tying", "full", "--seed", "3", "--out", str(tmp_path)]
    assert main(["gen-denoise", *args]) == 0
    capsys.readouterr()
    for block in (None, 2):
        cell = blending.measure(tmp_path, "denoise10", block, 2)
        iterations, sweeps, trials, cpu = re.fullmatch(
            r"(\d+) / (\d+) / (\d+) / (\d+\.\d{3})", cell).groups()
        assert int(iterations) >= 1 and int(trials) >= int(iterations)
        if block == 2:
            assert int(sweeps) == 2 * int(iterations)
    assert capsys.readouterr().out == ""  # the commands' own output is not printed
