"""The verdict on (eps, counting numbers), ``inference.Guarantees``, and the
warning lines that ``train`` and ``gap`` print from it."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import TrainerConfig, guarantees, train
from blendsp.cli import main

from test_cli import gen
from test_learner import small_corpora
from util import exact_loss


def cover_sums(graph, c):
    """Per variable, the sum of c_r over the regions that contain it."""
    total = np.zeros(graph.variable_count)
    for reg in graph.regions:
        for v in reg.variables:
            total[v] += c[reg.id]
    return total


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.3, 1.0]),
       st.sampled_from(["drawn", "scaled", "negative"]))
def test_the_primal_bounds_the_loss_wherever_the_verdict_says_bound(seed, eps, kind):
    # drawn: c_r in [0.05, 1.5], covering or not; scaled: the same, divided
    # by the smallest cover sum, so some variable is covered exactly once;
    # negative: one c_r negated
    rng = np.random.default_rng(seed)
    for graph, samples in small_corpora(rng):
        c = rng.uniform(0.05, 1.5, graph.region_count)
        if kind == "scaled":
            c /= cover_sums(graph, c).min()
        elif kind == "negative":
            c[rng.integers(graph.region_count)] *= -1.0
        verdict = guarantees(graph, eps, c)
        nonnegative, cover = bool((c >= 0).all()), cover_sums(graph, c).min()
        assert verdict.descent == verdict.certificate == nonnegative
        if not nonnegative or cover < 1 - 1e-9:
            assert not verdict.bound
        elif cover >= 1 - 1e-13:
            assert verdict.bound
        if not verdict.bound:
            continue
        C = 0.5
        cfg = TrainerConfig(eps=eps, C=C, counting=c, max_outer_iters=15)
        state = train(graph, samples, cfg)
        exact = sum(exact_loss(graph, s, state.w, eps) for s in samples)
        exact += 0.5 * C * float(state.w @ state.w)
        assert state.report.primal >= exact - 1e-9 * max(1.0, abs(exact))


def warnings_of(tmp_path, capsys, *flags):
    """The ``warning:`` lines of ``train`` and of ``gap`` on a 4x4 corpus."""
    out = tmp_path / "corpus"
    if not out.exists():
        gen(tmp_path, "corpus")
    weights = tmp_path / "w.bsw"
    model = ["--model", str(out / "train.bsp")]
    capsys.readouterr()
    assert main(["train", *model, *flags, "--max-iters", "3", "--out", str(weights)]) in (0, 2)
    trained = capsys.readouterr().out.splitlines()
    assert main(["gap", *model, "--weights", str(weights), *flags, "--max-sweeps", "5"]) == 0
    gapped = capsys.readouterr().out.splitlines()
    return [[line for line in lines if line.startswith("warning:")] for lines in (trained, gapped)]


def test_train_and_gap_print_one_warning_per_lost_guarantee(tmp_path, capsys):
    cfile = tmp_path / "counts.txt"
    cfile.write_text("".join(f"{r} 0.3\n" for r in range(40)))  # 16 pixels, 24 pairs
    for flags, lost in (
        (["--c-file", str(cfile)], ["fractionally cover"]),
        (["--c-scheme", "bethe"], ["non-convex"]),
        (["--eps", "0"], ["gap uncertified"]),
        (["--c-scheme", "ones"], []),
    ):
        for lines in warnings_of(tmp_path, capsys, *flags):
            assert len(lines) == len(lost)
            for line, text in zip(lines, lost):
                assert text in line
