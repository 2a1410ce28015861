"""The benchmark's layer probes (``bench/child.py``) run against the library.

A probe that names a function the library no longer has, or calls it the
wrong way, fails here instead of in a benchmark run.
"""

import json
import math
import sys
from pathlib import Path

from blendsp.cli import main

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_layer_probes_run_on_a_small_corpus(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    import child

    corpus = tmp_path / "corpus"
    args = ["--width", "3", "--height", "3", "--flip-prob", "0.2", "--num-train", "2",
            "--num-test", "1", "--tying", "full", "--seed", "3", "--out", str(corpus)]
    assert main(["gen-denoise", *args]) == 0
    train = ["--model", str(corpus / "train.bsp"), "--C", "0.3", "--max-iters", "5"]
    assert main(["train", *train, "--out", str(tmp_path / "weights.bsw")]) in (0, 2)
    capsys.readouterr()

    tracer = child.Tracer()
    layers = child._probe({"probe_reps": 1}, corpus, tmp_path, tracer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(layers) <= {m["name"] for m in declared}
    assert "inference.region_update_s" in layers and "learner.w_step_s" in layers
    assert all(math.isfinite(v) and v >= 0 for v in layers.values())
    assert all(span["end"] is not None for span in tracer.spans)
