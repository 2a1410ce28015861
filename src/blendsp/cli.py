"""Batch command line: generate corpora, train, infer, evaluate, report gaps.

Every subcommand is a pure function of its input files, flags and seed, and
prints the seed it ran with.  Exit codes: 0 success (or converged), 1 usage
or input error, 2 non-convergence within the iteration budget.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import DenoiseSpec, make_denoise_dataset, pixel_error
from .fileio import (
    ModelError,
    ParseError,
    ParsedModel,
    parse_bitmap,
    parse_counts,
    parse_labels,
    parse_model,
    parse_weights,
    write_labels,
    write_model,
    write_weights,
)
from .inference import guarantees, sweep_until_consistent
from .learner import TrainerConfig, predict_all, train
from .model import CountingNumbers
from .objective import BatchObjective

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

C_SCHEME_HELP = (
    "counting numbers: ones, bethe, or file (from --c-file; a --c-file alone "
    "selects file); default: the model's COUNTS section, or ones when it has none"
)


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# flag types; argparse names the flag and the type: "invalid finite value"
def finite(text: str) -> float:
    if not math.isfinite(float(text)):
        raise ValueError(text)
    return float(text)


def count(text: str) -> int:
    if int(text) < 0:
        raise ValueError(text)
    return int(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="blendsp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    g = sub.add_parser("gen-denoise", help="generate a synthetic denoising corpus")
    g.add_argument("--width", type=int, required=True)
    g.add_argument("--height", type=int, required=True)
    noise = g.add_mutually_exclusive_group(required=True)
    noise.add_argument("--flip-prob", type=float)
    noise.add_argument("--gaussian-sigma", type=float)
    noise.add_argument("--bimodal", action="store_true")
    g.add_argument("--num-train", type=int, required=True)
    g.add_argument("--num-test", type=int, required=True)
    g.add_argument("--tying", choices=("shared", "full"), default="shared")
    g.add_argument("--base-image", type=Path, default=None, help="text bitmap of 0/1 rows")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=Path, required=True)

    t = sub.add_parser("train", help="train weights on a model file")
    t.add_argument("--model", type=Path, required=True)
    t.add_argument("--eps", type=finite, default=1.0)
    t.add_argument("--C", type=float, default=1.0)
    t.add_argument("--c-scheme", choices=("ones", "bethe", "file"), help=C_SCHEME_HELP)
    t.add_argument("--c-file", type=Path, default=None)
    t.add_argument(
        "--sweeps-per-step",
        type=int,
        default=None,
        help="fixed sweeps per weight step; default: sweep each sample until its "
        "residual <= 0.1*||g||, at most 10",
    )
    t.add_argument("--max-iters", type=count, default=1000)
    t.add_argument("--tol", type=finite, default=1e-8, help="relative primal decrease")
    t.add_argument("--residual-tol", type=finite, default=1e-6)
    t.add_argument("--grad-tol", type=finite, default=1e-6)
    t.add_argument(
        "--threads",
        type=int,
        default=1,
        help="deprecated and ignored: output is identical for every value",
    )
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", type=Path, required=True, help="weights file")
    t.add_argument("--log", type=Path, default=None, help="per-iteration progress log")

    i = sub.add_parser("infer", help="predict labels for every sample in a model file")
    i.add_argument("--model", type=Path, required=True)
    i.add_argument("--weights", type=Path, required=True)
    i.add_argument("--eps-infer", type=finite, default=1.0)
    i.add_argument("--c-scheme", choices=("ones", "bethe", "file"), help=C_SCHEME_HELP)
    i.add_argument("--c-file", type=Path, default=None)
    i.add_argument("--max-sweeps", type=count, default=200)
    i.add_argument("--seed", type=int, default=0)
    i.add_argument("--out", type=Path, required=True, help="labels file")

    e = sub.add_parser("eval", help="pixel error between two labels files")
    e.add_argument("--pred", type=Path, required=True)
    e.add_argument("--truth", type=Path, required=True)
    e.add_argument("--seed", type=int, default=0)

    d = sub.add_parser("gap", help="duality report for a model and weights")
    d.add_argument("--model", type=Path, required=True)
    d.add_argument("--weights", type=Path, required=True)
    d.add_argument("--eps", type=finite, default=1.0)
    d.add_argument("--C", type=float, default=1.0)
    d.add_argument("--c-scheme", choices=("ones", "bethe", "file"), help=C_SCHEME_HELP)
    d.add_argument("--c-file", type=Path, default=None)
    d.add_argument("--max-sweeps", type=count, default=200)
    d.add_argument("--residual-tol", type=finite, default=1e-8)
    d.add_argument("--seed", type=int, default=0)
    return parser


def _load_model(args) -> tuple[ParsedModel, CountingNumbers]:
    """The model file and the counting numbers that ``--c-scheme`` selects
    (with ``file``, read from ``--c-file``: COUNTS lines, see FORMAT.md).
    A ``--c-file`` alone selects ``file``; without either, the model's own
    COUNTS section, or ``ones`` when it has none."""
    scheme = args.c_scheme or ("file" if args.c_file is not None else None)
    if scheme == "file" and args.c_file is None:
        raise ModelError("--c-scheme file requires --c-file")
    if scheme != "file" and args.c_file is not None:
        raise ModelError(f"--c-file requires --c-scheme file, not {scheme}")
    with open(args.model) as fh:
        parsed = parse_model(fh)
    counting = parsed.counting if scheme is None else scheme
    if scheme == "file":
        with open(args.c_file) as fh:
            counting = parse_counts(fh, parsed.graph.region_count)
    return parsed, CountingNumbers.of(parsed.graph, counting)


def _load_weights(path: Path, parsed: ParsedModel) -> np.ndarray:
    with open(path) as fh:
        w, _ = parse_weights(fh)
    if len(w) != parsed.num_features:
        raise ModelError(
            f"feature count mismatch: weights have {len(w)}, model has "
            f"{parsed.num_features}"
        )
    return w


def _cmd_gen_denoise(args) -> int:
    base = None
    if args.base_image is not None:
        with open(args.base_image) as fh:
            base = parse_bitmap(fh)
    spec = DenoiseSpec(
        width=args.width,
        height=args.height,
        num_train=args.num_train,
        num_test=args.num_test,
        flip_prob=args.flip_prob,
        gaussian_sigma=args.gaussian_sigma,
        bimodal=args.bimodal,
        tying=args.tying,
        seed=args.seed,
        base_image=base,
    )
    ds = make_denoise_dataset(spec)
    args.out.mkdir(parents=True, exist_ok=True)
    counting = None
    for name, samples in (("train", ds.train), ("test", ds.test)):
        parsed = ParsedModel(ds.graph, samples, counting, ds.num_features)
        with open(args.out / f"{name}.bsp", "w") as fh:
            write_model(parsed, fh)
    truth = {s.id: ds.base_image.ravel() for s in ds.test}
    with open(args.out / "truth.labels", "w") as fh:
        write_labels(truth, fh)
    n = args.width * args.height
    pairwise = ds.graph.region_count - n
    print(f"seed={args.seed}")
    print(
        f"regions={ds.graph.region_count} ({n} singleton + {pairwise} pairwise) "
        f"edges={len(ds.graph.edges)} features={ds.num_features} "
        f"train={len(ds.train)} test={len(ds.test)}"
    )
    print(f"wrote {args.out}/train.bsp {args.out}/test.bsp {args.out}/truth.labels")
    return EXIT_OK


def _cmd_train(args) -> int:
    parsed, counting = _load_model(args)
    config = TrainerConfig(
        eps=args.eps,
        C=args.C,
        counting=counting,
        sweeps_per_step=args.sweeps_per_step,
        max_outer_iters=args.max_iters,
        primal_rel_tol=args.tol,
        residual_tol=args.residual_tol,
        grad_norm_tol=args.grad_tol,
    )
    print(f"seed={args.seed}")
    _print_warnings(parsed, args.eps, counting)
    log_handle = open(args.log, "w") if args.log is not None else None
    try:
        log_fn = (
            (lambda rec: log_handle.write(rec.format_line() + "\n")) if log_handle else None
        )
        state = train(
            parsed.graph,
            parsed.samples,
            config,
            num_features=parsed.num_features,
            log_fn=log_fn,
        )
    finally:
        if log_handle:
            log_handle.close()
    with open(args.out, "w") as fh:
        write_weights(
            state.w,
            fh,
            {"eps": repr(args.eps), "C": repr(args.C), "scheme": counting.scheme},
        )
    if state.report is not None:
        print(state.report.to_text())
    print(f"iterations={state.iteration} converged={'yes' if state.converged else 'no'}")
    return EXIT_OK if state.converged else EXIT_NOT_CONVERGED


def _print_warnings(parsed: ParsedModel, eps: float, counting: CountingNumbers) -> None:
    """One ``warning:`` line per guarantee that eps and the counting numbers
    lose on the model (``inference.Guarantees``); the non-convex line alone
    when descent is lost, since that voids the other two."""
    verdict = guarantees(parsed.graph, eps, counting)
    if not verdict.descent:
        print("warning: non-convex counting numbers; bounds and certification disabled")
        return
    if not verdict.certificate:
        print("warning: eps or a counting number is zero; gap uncertified")
    if not verdict.bound:
        print("warning: counting numbers do not fractionally cover the variables; "
              "the primal may lie below the loss")


def _cmd_infer(args) -> int:
    parsed, counting = _load_model(args)
    w = _load_weights(args.weights, parsed)
    print(f"seed={args.seed}")
    results = predict_all(
        parsed.graph, parsed.samples, w, args.eps_infer, counting, max_sweeps=args.max_sweeps
    )
    for sample, result in zip(parsed.samples, results):
        print(f"sample={sample.id} residual={result.residual:.6g} sweeps={result.sweeps}")
    _print_capped(sum(r.capped for r in results), len(results), args.max_sweeps)
    with open(args.out, "w") as fh:
        write_labels({s.id: r.labels for s, r in zip(parsed.samples, results)}, fh)
    print(f"wrote {args.out}")
    return EXIT_OK


def _print_capped(capped: int, samples: int, max_sweeps: int) -> None:
    """Say how many samples stopped at the sweep cap still inconsistent."""
    if capped:
        print(f"capped={capped} samples={samples} max_sweeps={max_sweeps}")


def _cmd_eval(args) -> int:
    with open(args.pred) as fh:
        pred = parse_labels(fh)
    with open(args.truth) as fh:
        truth = parse_labels(fh)
    if set(pred) != set(truth):
        raise ModelError("prediction and truth files cover different sample ids")
    ids = sorted(pred)
    wrong, pct = pixel_error([pred[i] for i in ids], [truth[i] for i in ids])
    print(f"seed={args.seed}")
    print(f"samples={len(ids)} errors={wrong} percent={pct:.6g}")
    return EXIT_OK


def _cmd_gap(args) -> int:
    parsed, counting = _load_model(args)
    w = _load_weights(args.weights, parsed)
    print(f"seed={args.seed}")
    _print_warnings(parsed, args.eps, counting)
    objective = BatchObjective(
        parsed.graph, parsed.samples, args.eps, counting, args.C, parsed.num_features
    )
    lam = np.zeros((len(parsed.samples), objective.layout.message_total))
    thetas = objective.stack.rows(w)
    block = sweep_until_consistent(
        objective.layout, lam, thetas, args.eps, objective.cvals, args.max_sweeps, args.residual_tol
    )
    capped = ~(block.residual <= args.residual_tol)  # at the cap, or NaN
    _print_capped(int(capped.sum()), len(parsed.samples), args.max_sweeps)
    potentials = thetas + block.message_part
    report, _ = objective.report(lam, thetas, w, potentials, block.lse, block.beliefs)
    print(report.to_text())
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "gen-denoise": _cmd_gen_denoise,
        "train": _cmd_train,
        "infer": _cmd_infer,
        "eval": _cmd_eval,
        "gap": _cmd_gap,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
