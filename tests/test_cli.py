import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from blendsp import CountingNumbers, cli, inference, learner
from blendsp.cli import main
from blendsp.fileio import parse_labels, parse_model, parse_weights, write_model
from blendsp.inference import MessageState, sweep_until_consistent
from blendsp.model import ThetaStack
from blendsp.objective import duality_report


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def gen(tmp_path, name, extra=()):
    out = tmp_path / name
    code = main(
        [
            "gen-denoise",
            "--width", "4", "--height", "4",
            "--flip-prob", "0.2",
            "--num-train", "3",
            "--num-test", "2",
            "--tying", "full",
            "--seed", "9",
            "--out", str(out),
            *extra,
        ]
    )
    assert code == 0
    return out


def test_gen_denoise_writes_corpus(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    text = capsys.readouterr().out
    assert "seed=9" in text
    assert "16 singleton + 24 pairwise" in text
    parsed = parse_model((out / "train.bsp").read_text())
    assert len(parsed.samples) == 3
    truth = parse_labels((out / "truth.labels").read_text())
    assert set(truth) == {0, 1}


def test_gen_denoise_conflicting_noise_flags(tmp_path, capsys):
    code = main(
        [
            "gen-denoise",
            "--width", "4", "--height", "4",
            "--flip-prob", "0.2",
            "--gaussian-sigma", "0.3",
            "--num-train", "1",
            "--num-test", "1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 1


def test_gen_denoise_same_seed_identical_files(tmp_path):
    a = gen(tmp_path, "a")
    b = gen(tmp_path, "b")
    for name in ("train.bsp", "test.bsp", "truth.labels"):
        assert sha(a / name) == sha(b / name)


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["train", "--bogus-flag", "1"]) == 1


def test_full_pipeline_train_infer_eval_gap(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    weights = tmp_path / "w.bsw"
    log = tmp_path / "train.log"
    code = main(
        [
            "train",
            "--model", str(out / "train.bsp"),
            "--eps", "1", "--C", "0.5",
            "--max-iters", "500",
            "--residual-tol", "1e-8",
            "--seed", "1",
            "--out", str(weights),
            "--log", str(log),
        ]
    )
    assert code == 0  # converged
    text = capsys.readouterr().out
    assert "certified=true" in text
    w, meta = parse_weights(weights.read_text())
    assert meta["scheme"] == "ones"
    assert len(w) == parse_model((out / "train.bsp").read_text()).num_features

    # log format: iter primal dual gap residual gradnorm eta
    lines = log.read_text().splitlines()
    assert len(lines) >= 2
    first = lines[0].split()
    assert len(first) == 7 and first[0] == "1"
    primals = [float(line.split()[1]) for line in lines]
    assert all(b <= a + 1e-10 for a, b in zip(primals, primals[1:]))

    pred = tmp_path / "pred.labels"
    code = main(
        [
            "infer",
            "--model", str(out / "test.bsp"),
            "--weights", str(weights),
            "--eps-infer", "1",
            "--max-sweeps", "100",
            "--out", str(pred),
        ]
    )
    assert code == 0
    assert "residual=" in capsys.readouterr().out

    code = main(["eval", "--pred", str(pred), "--truth", str(out / "truth.labels")])
    assert code == 0
    assert "percent=" in capsys.readouterr().out

    code = main(
        [
            "gap",
            "--model", str(out / "train.bsp"),
            "--weights", str(weights),
            "--eps", "1", "--C", "0.5",
        ]
    )
    assert code == 0
    report = capsys.readouterr().out
    assert "certified=true" in report
    gap = float(next(l for l in report.splitlines() if l.startswith("gap=")).split("=")[1])
    assert abs(gap) <= 1e-4


def test_gap_with_fresh_messages_uncertified(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    weights = tmp_path / "w.bsw"
    main(
        [
            "train",
            "--model", str(out / "train.bsp"),
            "--max-iters", "3",
            "--out", str(weights),
        ]
    )
    capsys.readouterr()
    code = main(
        [
            "gap",
            "--model", str(out / "train.bsp"),
            "--weights", str(weights),
            "--max-sweeps", "0",
        ]
    )
    assert code == 0
    report = capsys.readouterr().out
    assert "certified=false" in report
    for field in ("primal=", "dual=", "gap="):
        value = float(next(l for l in report.splitlines() if l.startswith(field)).split("=")[1])
        assert np.isfinite(value)


@pytest.mark.parametrize("scheme", ["ones", "bethe"])
def test_gap_prints_the_library_report(tmp_path, capsys, scheme):
    # gap's report is duality_report's at the messages its engine run leaves
    out = gen(tmp_path, "corpus")
    weights = tmp_path / "w.bsw"
    main(["train", "--model", str(out / "train.bsp"), "--max-iters", "5", "--out", str(weights)])
    capsys.readouterr()
    gap = ["gap", "--model", str(out / "train.bsp"), "--weights", str(weights), "--C", "0.5"]
    assert main([*gap, "--c-scheme", scheme]) == 0
    text = capsys.readouterr().out
    parsed = parse_model((out / "train.bsp").read_text())
    graph, samples = parsed.graph, parsed.samples
    w = parse_weights(weights.read_text())[0]
    counting = CountingNumbers.of(graph, scheme)
    layout = graph.layout()
    theta = ThetaStack(samples, layout).rows(w)
    lam = np.zeros((len(samples), layout.message_total))
    res = sweep_until_consistent(layout, lam, theta, 1.0, counting.values, 200, 1e-8)
    assert res.sweeps.all()
    states = [MessageState(graph, row) for row in lam]
    want = duality_report(graph, samples, states, w, 1.0, counting, 0.5, parsed.num_features)
    assert text[text.index("primal="):] == want.to_text() + "\n"


def test_infer_and_gap_say_when_the_sweep_cap_is_hit(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    weights = tmp_path / "w.bsw"
    main(["train", "--model", str(out / "train.bsp"), "--max-iters", "3", "--out", str(weights)])
    capsys.readouterr()
    infer = ["infer", "--model", str(out / "test.bsp"), "--weights", str(weights)]
    assert main([*infer, "--max-sweeps", "2", "--out", str(tmp_path / "p.labels")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[2] for l in lines if l.startswith("sample=")] == ["sweeps=2"] * 2
    assert "capped=2 samples=2 max_sweeps=2" in lines

    gap = ["gap", "--model", str(out / "train.bsp"), "--weights", str(weights)]
    assert main([*gap, "--max-sweeps", "0"]) == 0
    assert "capped=3 samples=3 max_sweeps=0" in capsys.readouterr().out.splitlines()
    # samples that converge before the cap print no capped line
    assert main([*gap, "--residual-tol", "1e-3"]) == 0
    assert "capped=" not in capsys.readouterr().out


def test_train_exit_two_on_iteration_budget(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    code = main(
        [
            "train",
            "--model", str(out / "train.bsp"),
            "--max-iters", "2",
            "--out", str(tmp_path / "w.bsw"),
        ]
    )
    assert code == 2
    assert "converged=no" in capsys.readouterr().out


def test_train_negative_sweeps_per_step_is_usage_error(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    argv = ["train", "--model", str(out / "train.bsp"), "--out", str(tmp_path / "w.bsw")]
    capsys.readouterr()
    for value in ("-1", "0"):
        assert main([*argv, "--sweeps-per-step", value]) == 1
        captured = capsys.readouterr()
        assert f"argument --sweeps-per-step: invalid positive value: '{value}'" in captured.err
        assert captured.out == ""
    assert not (tmp_path / "w.bsw").exists()


def test_train_eps_zero_notes_uncertified(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    code = main(
        [
            "train",
            "--model", str(out / "train.bsp"),
            "--eps", "0",
            "--max-iters", "40",
            "--out", str(tmp_path / "w.bsw"),
        ]
    )
    assert code in (0, 2)
    text = capsys.readouterr().out
    assert "gap uncertified" in text
    assert "certified=false" in text


def test_train_bethe_scheme_warns(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    code = main(
        [
            "train",
            "--model", str(out / "train.bsp"),
            "--c-scheme", "bethe",
            "--max-iters", "20",
            "--out", str(tmp_path / "w.bsw"),
        ]
    )
    assert code in (0, 2)
    assert "non-convex" in capsys.readouterr().out


def test_weights_model_mismatch_is_error(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    bad = tmp_path / "bad.bsw"
    bad.write_text("BLENDSP-W 1\n0 1.0\n")
    code = main(
        [
            "infer",
            "--model", str(out / "test.bsp"),
            "--weights", str(bad),
            "--out", str(tmp_path / "p.labels"),
        ]
    )
    assert code == 1
    assert "feature count mismatch" in capsys.readouterr().err


def test_infer_and_gap_reject_a_nan_weight(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    weights = tmp_path / "w.bsw"
    main(["train", "--model", str(out / "train.bsp"), "--max-iters", "3", "--out", str(weights)])
    lines = weights.read_text().splitlines()
    lines[2] = lines[2].split()[0] + " nan"
    weights.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    infer = ["infer", "--model", str(out / "test.bsp"), "--out", str(tmp_path / "p.labels")]
    assert main([*infer, "--weights", str(weights)]) == 1
    captured = capsys.readouterr()
    assert "line 3: weight values must be finite" in captured.err
    assert "residual=" not in captured.out
    assert main(["gap", "--model", str(out / "train.bsp"), "--weights", str(weights)]) == 1
    captured = capsys.readouterr()
    assert "line 3: weight values must be finite" in captured.err
    assert "certified=" not in captured.out


def test_eval_mismatched_ids_is_error(tmp_path, capsys):
    p = tmp_path / "p.labels"
    t = tmp_path / "t.labels"
    p.write_text("BLENDSP-L 1\n0 1 0\n")
    t.write_text("BLENDSP-L 1\n1 1 0\n")
    assert main(["eval", "--pred", str(p), "--truth", str(t)]) == 1


def test_eval_identical_files_zero_percent(tmp_path, capsys):
    p = tmp_path / "p.labels"
    p.write_text("BLENDSP-L 1\n0 1 0 1\n1 0 0 0\n")
    assert main(["eval", "--pred", str(p), "--truth", str(p)]) == 0
    assert "errors=0 percent=0" in capsys.readouterr().out


def test_missing_model_file_is_usage_error(tmp_path, capsys):
    code = main(
        ["train", "--model", str(tmp_path / "nope.bsp"), "--out", str(tmp_path / "w")]
    )
    assert code == 1


def test_train_threads_flag_identical_weights(tmp_path):
    out = gen(tmp_path, "corpus")
    digests = []
    for threads, name in ((1, "w1.bsw"), (4, "w4.bsw")):
        code = main(
            [
                "train",
                "--model", str(out / "train.bsp"),
                "--max-iters", "60",
                "--threads", str(threads),
                "--out", str(tmp_path / name),
            ]
        )
        assert code in (0, 2)
        digests.append(sha(tmp_path / name))
    assert digests[0] == digests[1]


def test_gen_denoise_bimodal_and_gaussian_flags(tmp_path):
    for extra in (["--bimodal"], ["--gaussian-sigma", "0.3"]):
        out = tmp_path / extra[0].strip("-")
        code = main(
            [
                "gen-denoise",
                "--width", "3", "--height", "3",
                "--num-train", "2", "--num-test", "1",
                "--seed", "2",
                "--out", str(out),
                *extra,
            ]
        )
        assert code == 0
        assert (out / "train.bsp").exists()


def test_gen_denoise_ten_by_ten_summary(tmp_path, capsys):
    code = main(
        [
            "gen-denoise",
            "--width", "10", "--height", "10",
            "--flip-prob", "0.2",
            "--num-train", "10", "--num-test", "10",
            "--seed", "0",
            "--out", str(tmp_path / "big"),
        ]
    )
    assert code == 0
    assert "100 singleton + 180 pairwise" in capsys.readouterr().out


def test_train_with_counting_file(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    parsed = parse_model((out / "train.bsp").read_text())
    cfile = tmp_path / "counts.txt"
    cfile.write_text(
        "".join(f"{r} 1.0\n" for r in range(parsed.graph.region_count))
    )
    code = main(
        [
            "train",
            "--model", str(out / "train.bsp"),
            "--c-file", str(cfile),
            "--max-iters", "400",
            "--residual-tol", "1e-8",
            "--out", str(tmp_path / "w.bsw"),
        ]
    )
    assert code == 0
    assert "certified=true" in capsys.readouterr().out


def primal_line(text):
    return next(line for line in text.splitlines() if line.startswith("primal="))


def test_model_counts_section_is_the_default_counting(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    parsed = parse_model((out / "train.bsp").read_text())
    regions = parsed.graph.region_count
    counted = tmp_path / "counted.bsp"
    with open(counted, "w") as fh:
        write_model(replace(parsed, counting=CountingNumbers.of(parsed.graph, [0.5] * regions)), fh)
    cfile = tmp_path / "counts.txt"
    cfile.write_text("".join(f"{r} 0.5\n" for r in range(regions)))
    capsys.readouterr()

    def train(model, *flags):
        weights = tmp_path / "w.bsw"
        argv = ["train", "--model", str(model), "--max-iters", "50", *flags]
        assert main([*argv, "--out", str(weights)]) in (0, 2)
        return primal_line(capsys.readouterr().out), parse_weights(weights.read_text())[1]

    from_section, meta = train(counted)
    assert meta["scheme"] == "model"
    from_file, _ = train(out / "train.bsp", "--c-file", str(cfile))
    assert from_section == from_file
    # no section: ones; an explicit scheme wins over the section
    ones_default, meta = train(out / "train.bsp")
    assert meta["scheme"] == "ones"
    assert ones_default != from_section
    assert train(counted, "--c-scheme", "ones")[0] == ones_default
    # a --c-file wins over the section too
    ones_file = tmp_path / "ones.txt"
    ones_file.write_text("".join(f"{r} 1\n" for r in range(regions)))
    assert train(counted, "--c-file", str(ones_file))[0] == ones_default


def assert_counting_flags_rejected(tmp_path, capsys, command, flags, message):
    out = gen(tmp_path, "corpus")
    model = out / ("test.bsp" if command == "infer" else "train.bsp")
    written = tmp_path / ("w.bsw" if command == "train" else "p.labels")
    argv = [command, "--model", str(model), *flags]
    if command != "gap":
        argv += ["--out", str(written)]
    if command != "train":
        argv += ["--weights", str(zero_weights(tmp_path, out))]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage: blendsp {command} ") and message in err
    assert not written.exists()


@pytest.mark.parametrize("command", ["train", "infer", "gap"])
def test_c_file_next_to_another_scheme_is_rejected(tmp_path, capsys, command):
    # one spelling of file counting numbers: --c-file alone
    cfile = tmp_path / "counts.txt"
    cfile.write_text("")
    assert_counting_flags_rejected(
        tmp_path, capsys, command,
        ["--c-scheme", "bethe", "--c-file", str(cfile)],
        "argument --c-file: not allowed with argument --c-scheme",
    )


@pytest.mark.parametrize("command", ["train", "infer", "gap"])
def test_c_scheme_file_without_a_c_file_is_rejected(tmp_path, capsys, command):
    # "file" is no scheme: the file is named by --c-file alone
    assert_counting_flags_rejected(
        tmp_path, capsys, command,
        ["--c-scheme", "file"],
        "argument --c-scheme: invalid choice: 'file'",
    )


def test_c_scheme_help_names_the_counts_default(capsys):
    for command in ("train", "infer", "gap"):
        assert main([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "default: the model's COUNTS section, or ones when it has none" in text


def test_main_sets_the_heap_policy_through_mallopt(tmp_path, monkeypatch):
    calls = []
    libc = SimpleNamespace(mallopt=lambda param, value: calls.append((param, value)) or 1)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)
    gen(tmp_path, "corpus")
    assert calls == [
        (cli.M_MMAP_THRESHOLD, cli.HEAP_MMAP_BYTES),
        (cli.M_TRIM_THRESHOLD, cli.HEAP_TRIM_BYTES),
    ]


@pytest.mark.parametrize("libc", ["unloadable", "not a library", "no mallopt"])
def test_main_runs_without_mallopt(tmp_path, capsys, monkeypatch, libc):
    out = gen(tmp_path, "corpus")
    argv = ["train", "--model", str(out / "train.bsp"), "--max-iters", "3"]
    capsys.readouterr()
    pinned = main([*argv, "--out", str(tmp_path / "pinned.bsw")])
    pinned_out = capsys.readouterr().out

    def cdll(name):
        if libc == "unloadable":
            raise OSError("no C library")
        if libc == "not a library":
            raise TypeError("not a library handle")
        return SimpleNamespace()

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert main([*argv, "--out", str(tmp_path / "w.bsw")]) == pinned == 2
    assert capsys.readouterr().out == pinned_out
    assert sha(tmp_path / "w.bsw") == sha(tmp_path / "pinned.bsw")


def test_train_counting_file_wrong_coverage_is_error(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    cfile = tmp_path / "counts.txt"
    cfile.write_text("0 1.0\n")
    code = main(
        [
            "train",
            "--model", str(out / "train.bsp"),
            "--c-file", str(cfile),
            "--out", str(tmp_path / "w.bsw"),
        ]
    )
    assert code == 1


def test_train_zero_sample_model_writes_zero_weights(tmp_path, capsys):
    model = tmp_path / "empty.bsp"
    model.write_text(
        "BLENDSP 1\nREGIONS\n0 1 0 2\nEDGES\nFEATURES\n0 0 1 -1\nSAMPLES\n"
    )
    weights = tmp_path / "w.bsw"
    code = main(["train", "--model", str(model), "--out", str(weights)])
    assert code == 0
    w, _ = parse_weights(weights.read_text())
    np.testing.assert_array_equal(w, [0.0])


def zero_weights(tmp_path, out):
    path = tmp_path / "zero.bsw"
    parsed = parse_model((out / "train.bsp").read_text())
    path.write_text("BLENDSP-W 1\n" + "".join(f"{k} 0\n" for k in range(parsed.num_features)))
    return path


@pytest.mark.parametrize(
    "bad, line, message",
    [
        ("1 nan", 2, "counting number values must be finite"),
        ("1 inf", 2, "counting number values must be finite"),
        ("x 1.0", 2, "expected integer region id"),
        ("0 2.0", 2, "duplicate counting number for region 0"),
    ],
)
@pytest.mark.parametrize("command", ["train", "infer", "gap"])
def test_bad_counting_file_names_its_line(tmp_path, capsys, bad, line, message, command):
    out = gen(tmp_path, "corpus")
    regions = parse_model((out / "train.bsp").read_text()).graph.region_count
    rows = [f"{r} 1.0" for r in range(regions)]
    rows[line - 1] = bad
    cfile = tmp_path / "counts.txt"
    cfile.write_text("\n".join(rows) + "\n")
    model = out / ("test.bsp" if command == "infer" else "train.bsp")
    argv = [command, "--model", str(model), "--c-file", str(cfile)]
    labels = tmp_path / "p.labels"
    if command != "gap":
        argv += ["--out", str(tmp_path / "w.bsw") if command == "train" else str(labels)]
    if command != "train":
        argv += ["--weights", str(zero_weights(tmp_path, out))]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"error: line {line}: {message}" in captured.err
    assert "primal=" not in captured.out and "residual=" not in captured.out
    assert not labels.exists()


def test_negative_C_is_rejected_before_any_sweep(tmp_path, capsys, monkeypatch):
    out = gen(tmp_path, "corpus")
    weights = zero_weights(tmp_path, out)

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept with C < 0")

    monkeypatch.setattr(learner, "sweep_vec", no_sweep)
    monkeypatch.setattr(cli, "sweep_until_consistent", no_sweep)
    log = tmp_path / "t.log"
    capsys.readouterr()
    for C in ("-1", "nan", "inf"):
        train = ["train", "--model", str(out / "train.bsp"), "--C", C, "--out", str(tmp_path / "w"),
                 "--log", str(log)]
        assert main(train) == 1
        captured = capsys.readouterr()
        assert "C must be nonnegative" in captured.err
        assert captured.out == "" and not log.exists()  # checked before any output
        gap = ["gap", "--model", str(out / "train.bsp"), "--weights", str(weights), "--C", C]
        assert main(gap) == 1
        captured = capsys.readouterr()
        assert "C must be nonnegative" in captured.err
        assert "capped=" not in captured.out and "primal=" not in captured.out


@pytest.mark.parametrize("command, flag", [("train", "--eps"), ("infer", "--eps-infer"), ("gap", "--eps")])
def test_negative_eps_is_rejected_before_any_sweep(tmp_path, capsys, monkeypatch, command, flag):
    out = gen(tmp_path, "corpus")
    weights = zero_weights(tmp_path, out)

    def no_sweep(*args, **kwargs):
        raise AssertionError(f"swept with {flag} -1")

    monkeypatch.setattr(learner, "sweep_vec", no_sweep)
    monkeypatch.setattr(inference, "_sweep", no_sweep)  # predict_all's engine
    monkeypatch.setattr(cli, "sweep_until_consistent", no_sweep)
    argv = [command, "--model", str(out / ("test.bsp" if command == "infer" else "train.bsp"))]
    if command != "train":
        argv += ["--weights", str(weights)]
    if command != "gap":
        argv += ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([*argv, flag, "-1"]) == 1
    captured = capsys.readouterr()
    assert "error: eps must be nonnegative" in captured.err
    assert "warning:" not in captured.out
    assert "primal=" not in captured.out and "residual=" not in captured.out
    assert not (tmp_path / "out").exists()


def test_missing_true_labels_are_rejected_before_any_sweep(tmp_path, capsys, monkeypatch):
    out = gen(tmp_path, "corpus")
    weights = zero_weights(tmp_path, out)
    text = (out / "train.bsp").read_text()
    model = tmp_path / "unlabelled.bsp"
    model.write_text("".join(
        line for line in text.splitlines(keepends=True) if not line.startswith(("TRUTH", "LOSS"))
    ))
    assert main(["infer", "--model", str(model), "--weights", str(weights),
                 "--out", str(tmp_path / "p.labels")]) == 0  # prediction needs no labels

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept without true labels")

    monkeypatch.setattr(learner, "sweep_vec", no_sweep)
    monkeypatch.setattr(cli, "sweep_until_consistent", no_sweep)
    capsys.readouterr()
    log = tmp_path / "t.log"
    for argv in (["train", "--out", str(tmp_path / "w"), "--log", str(log)],
                 ["gap", "--weights", str(weights)]):
        assert main([*argv, "--model", str(model)]) == 1
        captured = capsys.readouterr()
        assert "error: sample 0: no true labels" in captured.err
        assert "capped=" not in captured.out and "primal=" not in captured.out
        if argv[0] == "train":
            assert captured.out == "" and not log.exists()  # checked before any output
    assert not (tmp_path / "w").exists()


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("train", "--eps", "nan", "argument --eps: invalid finite value: 'nan'"),
        ("train", "--eps", "inf", "argument --eps: invalid finite value: 'inf'"),
        ("infer", "--eps-infer", "nan", "argument --eps-infer: invalid finite value: 'nan'"),
        ("infer", "--max-sweeps", "-1", "argument --max-sweeps: invalid count value: '-1'"),
        ("gap", "--eps", "nan", "argument --eps: invalid finite value: 'nan'"),
        ("gap", "--max-sweeps", "-1", "argument --max-sweeps: invalid count value: '-1'"),
        ("train", "--residual-tol", "nan", "argument --residual-tol: invalid finite value: 'nan'"),
        ("train", "--grad-tol", "inf", "argument --grad-tol: invalid finite value: 'inf'"),
        ("train", "--max-iters", "-5", "argument --max-iters: invalid count value: '-5'"),
        ("gap", "--residual-tol", "nan", "argument --residual-tol: invalid finite value: 'nan'"),
        ("train", "--sweeps-per-step", "0", "argument --sweeps-per-step: invalid positive value: '0'"),
    ],
)
def test_non_finite_reals_and_negative_sweep_caps_name_their_flag(
    tmp_path, capsys, monkeypatch, command, flag, value, message
):
    out = gen(tmp_path, "corpus")
    weights = zero_weights(tmp_path, out)

    def no_sweep(*args, **kwargs):
        raise AssertionError(f"swept with {flag} {value}")

    monkeypatch.setattr(learner, "sweep_vec", no_sweep)
    monkeypatch.setattr(learner, "sweep_until_consistent", no_sweep)
    monkeypatch.setattr(cli, "sweep_until_consistent", no_sweep)
    argv = [command, "--model", str(out / ("test.bsp" if command == "infer" else "train.bsp"))]
    if command != "train":
        argv += ["--weights", str(weights)]
    if command != "gap":
        argv += ["--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main([*argv, flag, value]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "primal=" not in captured.out and "residual=" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_gaussian_sigma_names_its_flag(tmp_path, capsys, value):
    out = tmp_path / "corpus"
    argv = ["gen-denoise", "--width", "4", "--height", "4", "--gaussian-sigma", value,
            "--num-train", "1", "--num-test", "1", "--out", str(out)]
    assert main(argv) == 1
    assert f"argument --gaussian-sigma: invalid finite value: '{value}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_overflowing_weights_report_nan_rows_as_capped(tmp_path, capsys):
    out = gen(tmp_path, "corpus")
    parsed = parse_model((out / "test.bsp").read_text())
    weights = tmp_path / "huge.bsw"
    weights.write_text(
        "BLENDSP-W 1\n" + "".join(f"{k} 1e308\n" for k in range(parsed.num_features))
    )
    labels = tmp_path / "p.labels"
    argv = ["infer", "--model", str(out / "test.bsp"), "--weights", str(weights)]
    assert main([*argv, "--out", str(labels)]) == 0
    text = capsys.readouterr().out
    assert "residual=nan" in text
    assert "capped=2 samples=2 max_sweeps=200" in text
    assert main(["gap", "--model", str(out / "train.bsp"), "--weights", str(weights)]) == 0
    text = capsys.readouterr().out
    assert "capped=3 samples=3 max_sweeps=200" in text
    assert "marginal_residual=nan" in text and "certified=false" in text
