"""One round of a workload in a fresh process.

Usage: python3 bench/child.py WORKLOAD CORPUS_DIR ROUND_DIR TRACE

Untraced (TRACE=0): times the load alone ``setup_reps`` times, then runs
``blendsp train``, ``infer`` and ``gap`` in-process through
``blendsp.cli.main``, each timed as a whole in host seconds (see
``hostspeed.py``), with its CPU and wall time kept beside.  Traced (TRACE=1):
runs the same commands inside spans, then probes each layer by timing calls
to its exported names.  Either way the round writes ``round.json`` into ROUND_DIR,
and the traced round also ``trace.json`` with every span.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import line_search_trials
from hostspeed import HostClock
from workloads import C, EPS, WORKLOADS


class Tracer:
    """Spans (name, start, end, parent) kept in memory, written at the end.

    Start and end read the process's CPU clock, which steal on a shared host
    does not stretch.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.process_time(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.process_time()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]


class _NoTrace:
    @contextlib.contextmanager
    def span(self, name: str):
        yield None


def _commands(spec: dict, corpus: Path, rnd: Path) -> list[tuple[str, list[str]]]:
    train_bsp, weights = str(corpus / "train.bsp"), str(rnd / "weights.bsw")
    cmds = [
        ("train", ["train", "--model", train_bsp, *spec["train"],
                   "--out", weights, "--log", str(rnd / "train.log")]),
    ]
    if "infer" in spec:
        cmds.append(("infer", ["infer", "--model", str(corpus / "test.bsp"),
                               "--weights", weights, *spec["infer"],
                               "--out", str(rnd / "pred.labels")]))
    if "gap" in spec:
        cmds.append(("gap", ["gap", "--model", train_bsp, "--weights", weights, *spec["gap"]]))
    return cmds


def _load(path: Path):
    """The load every command pays before its first sweep."""
    from blendsp.fileio import parse_model

    with open(path) as fh:
        parsed = parse_model(fh)
    parsed.graph.layout()
    for sample in parsed.samples:
        sample.compiled()
    return parsed


def _run_commands(spec, corpus, rnd, tracer) -> dict:
    from blendsp.cli import main

    clock, out = HostClock(), {}
    for name, argv in _commands(spec, corpus, rnd):
        buf = io.StringIO()
        with tracer.span(f"cli.{name}"), contextlib.redirect_stdout(buf), clock.running():
            wall = time.perf_counter()
            code, cpu, seconds = clock.time(main, argv)
            wall = time.perf_counter() - wall
        out[name] = {"code": code, "stdout": buf.getvalue(), "seconds": seconds,
                     "cpu_s": cpu, "wall_s": wall}
    return out


def _probe(spec: dict, corpus: Path, rnd: Path, tracer: Tracer) -> dict:
    """Time calls into each layer's exported names; return per-layer values."""
    import blendsp
    from blendsp import fileio

    reps = spec["probe_reps"]
    for _ in range(reps):
        with tracer.span("fileio.parse_model"), open(corpus / "train.bsp") as fh:
            parsed = fileio.parse_model(fh)
        graph, samples = parsed.graph, parsed.samples
        with tracer.span("model.RegionGraph.layout"):
            graph.layout()
        with tracer.span("model.Sample.compiled"):
            compiled = [s.compiled() for s in samples]
    with open(rnd / "weights.bsw") as fh:
        w, _ = fileio.parse_weights(fh)
    for _ in range(reps):
        with tracer.span("model.CompiledSample.theta_vec"):
            for cs in compiled:
                cs.theta_vec(w, include_loss=True)

    counting = blendsp.CountingNumbers.ones(graph)
    sample = samples[0]
    state = blendsp.MessageState(graph)
    for region in range(graph.region_count):
        if graph.parents[region]:
            with tracer.span("inference.lambda_update"):
                blendsp.lambda_update(graph, sample, region, state, w, EPS, counting)
    for _ in range(reps):
        with tracer.span("inference.inference_sweep"):
            blendsp.inference_sweep(graph, sample, state, w, EPS, counting)
        with tracer.span("inference.compute_beliefs"):
            beliefs = blendsp.compute_beliefs(graph, sample, state, w, EPS, counting)
        with tracer.span("inference.marginal_residual"):
            blendsp.marginal_residual(graph, beliefs)

    states = [blendsp.MessageState(graph) for _ in samples]
    nf = parsed.num_features
    for _ in range(reps):
        with tracer.span("objective.duality_report"):
            blendsp.duality_report(graph, samples, states, w, EPS, counting, C, nf)
    grad = blendsp.w_gradient(graph, samples, states, w, EPS, counting, C, nf)
    config = blendsp.TrainerConfig(eps=EPS, C=C)
    for _ in range(reps):
        with tracer.span("learner.w_step"):
            step = blendsp.w_step(graph, samples, states, w, grad, EPS, counting, C, config)

    med = lambda name: statistics.median(tracer.durations(name))
    return {
        "fileio.parse_s": med("fileio.parse_model"),
        "model.layout_s": med("model.RegionGraph.layout"),
        "model.compile_s": med("model.Sample.compiled"),
        "model.theta_vec_s": med("model.CompiledSample.theta_vec"),
        "inference.region_update_s": med("inference.lambda_update"),
        "inference.sweep_s": med("inference.inference_sweep"),
        "inference.beliefs_s": med("inference.compute_beliefs"),
        "inference.residual_s": med("inference.marginal_residual"),
        "objective.duality_report_s": med("objective.duality_report"),
        "learner.w_step_s": med("learner.w_step"),
        "learner.line_search_evals": 1 + line_search_trials(float(step.eta)),
    }


def main(argv: list[str]) -> int:
    name, corpus, rnd, trace = argv[0], Path(argv[1]), Path(argv[2]), argv[3] == "1"
    spec = WORKLOADS[name]
    result: dict = {}
    if trace:
        tracer = Tracer()
        with tracer.span("round"):
            result["commands"] = _run_commands(spec, corpus, rnd, tracer)
            with tracer.span("probes"):
                result["layers"] = _probe(spec, corpus, rnd, tracer)
        (rnd / "trace.json").write_text(json.dumps({"spans": tracer.spans}, indent=1))
        result["probe_s"] = tracer.durations("probes")[0]
    else:
        clock, setup = HostClock(), []
        for _ in range(spec["setup_reps"]):
            setup.append(clock.time(_load, corpus / "train.bsp")[2])
            gc.collect()
        result["setup_s"] = setup
        result["commands"] = _run_commands(spec, corpus, rnd, _NoTrace())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    (rnd / "round.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
