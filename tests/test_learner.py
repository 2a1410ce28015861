import copy
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blendsp import (
    CountingNumbers,
    MessageState,
    Region,
    RegionGraph,
    Sample,
    TrainerConfig,
    compute_beliefs,
    duality_report,
    inference_sweep,
    lambda_update,
    marginal_residual,
    mu_message,
    predict,
    primal_objective,
    region_loss,
    train,
    w_gradient,
    w_step,
)
from blendsp import inference, learner, objective
from blendsp.cli import main
from blendsp.datagen import DenoiseSpec, make_denoise_dataset
from blendsp.fileio import ParsedModel, write_model
from blendsp.inference import message_potentials
from blendsp.model import ModelError, ThetaStack

from test_deep_graphs import three_level_model
from util import (
    chain_graph,
    exact_map,
    gibbs_normalize,
    loopy_graph,
    ones,
    random_model,
    random_sample,
    segmented_lse,
    tree_graph,
)


def test_non_finite_eps_and_C_and_negative_caps_are_rejected_before_any_sweep(monkeypatch):
    rng = np.random.default_rng(31)
    graph = chain_graph(3)
    samples = [random_sample(rng, graph, 2) for _ in range(2)]

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept")

    monkeypatch.setattr(learner, "sweep_vec", no_sweep)
    monkeypatch.setattr(inference, "_sweep", no_sweep)  # every sweep's level kernel
    w = np.zeros(2)
    for eps, max_sweeps, tol, message in (
        (float("nan"), 5, 1e-8, "eps must be finite"),
        (float("inf"), 5, 1e-8, "eps must be finite"),
        (1.0, -1, 1e-8, "max_sweeps must be at least 0"),
        (1.0, 5, float("nan"), "tol must not be NaN"),
        (-1.0, 5, 1e-8, "eps must be nonnegative"),
    ):
        with pytest.raises(ValueError, match=message):
            learner.predict_all(graph, samples, w, eps, None, max_sweeps, tol)
        layout = graph.layout()
        with pytest.raises(ValueError, match=message):
            inference.sweep_until_consistent(
                layout, np.zeros((2, layout.message_total)), np.zeros((2, layout.total)),
                eps, np.ones(graph.region_count), max_sweeps, tol,
            )
    for eps, C, message in (
        (float("nan"), 1.0, "eps must be finite"),
        (-float("inf"), 1.0, "eps must be finite"),
        (1.0, float("inf"), "C must be nonnegative and finite"),
    ):
        with pytest.raises(ValueError, match=message):
            train(graph, samples, TrainerConfig(eps=eps, C=C, max_outer_iters=2))
        with pytest.raises(ValueError, match=message):
            objective.BatchObjective(graph, samples, eps, np.ones(5), C, 2)
    for eps, message in (
        (float("nan"), "^eps must be finite$"),
        (float("inf"), "^eps must be finite$"),
        (-float("inf"), "^eps must be finite$"),
        (-1.0, "^eps must be nonnegative$"),
        (-1e-300, "^eps must be nonnegative$"),
    ):
        with pytest.raises(ValueError, match=message):
            inference.guarantees(graph, eps)
        if np.isfinite(eps):
            with pytest.raises(ValueError, match=message):
                train(graph, samples, TrainerConfig(eps=eps, max_outer_iters=2))
    assert inference.guarantees(graph, -0.0) == (True, False, True)  # -0.0 is eps = 0
    for name, value, message in (
        ("residual_tol", float("nan"), "tolerances must be finite"),
        ("grad_norm_tol", float("inf"), "tolerances must be finite"),
        ("max_outer_iters", -5, "max_outer_iters must be at least 0"),
        ("sweeps_per_step", 0, "^sweeps per step must be at least 1$"),
        ("sweeps_per_step", -1, "^sweeps per step must be at least 1$"),
    ):
        with pytest.raises(ValueError, match=message):
            train(graph, samples, TrainerConfig(**{name: value}))
        states = [MessageState(graph) for _ in samples]
        with pytest.raises(ValueError, match=message):
            w_step(graph, samples, states, w, np.ones(2), 1.0, None, 1.0,
                   TrainerConfig(**{name: value}))
    for g, k in (([1.0, float("nan")], 1), ([float("-inf"), 0.0], 0)):
        with pytest.raises(ValueError, match=f"^gradient is not finite at feature {k}$"):
            w_step(graph, samples, states, w, np.array(g), 1.0, None, 1.0)


def test_weight_counts_that_do_not_fit_the_feature_ids_are_named(monkeypatch):
    rng = np.random.default_rng(32)
    graph = chain_graph(3)
    samples = [random_sample(rng, graph, 4, i) for i in range(3)]
    assert ThetaStack(samples, graph.layout()).feature_count == 4
    monkeypatch.setattr(learner, "sweep_vec", lambda *args: pytest.fail("swept"))
    with pytest.raises(ModelError, match="^w has 2 weights for num_features=4$"):
        learner.predict_all(graph, samples, np.zeros(2), 1.0)
    cfg = TrainerConfig(max_outer_iters=2)
    for kwargs, message in (
        ({"w0": np.zeros(2)}, "^w0 has 2 weights for num_features=4$"),
        ({"num_features": 2}, "^num_features=2 below the samples' 4$"),
        ({"w0": np.zeros(6)}, "^w0 has 6 weights for num_features=4$"),
        ({"num_features": 6, "w0": np.zeros(4)}, "^w0 has 4 weights for num_features=6$"),
    ):
        with pytest.raises(ModelError, match=message):
            train(graph, samples, cfg, **kwargs)
    # every other batch call, before any sweep: a feature count of 2 (as 2
    # weights where the call takes no count) and 6 weights for 4 features
    states = [MessageState(graph) for _ in samples]
    beliefs = [compute_beliefs(graph, s, MessageState(graph), np.zeros(4), 1.0) for s in samples]
    below, w2, w6 = "^num_features=2 below the samples' 4$", np.zeros(2), np.zeros(6)
    for call, message in (
        (lambda: duality_report(graph, samples, states, w2, 1.0, None, 1.0, 2), below),
        (lambda: w_gradient(graph, samples, states, w2, 1.0, None, 1.0, 2), below),
        (lambda: objective.dual_objective(graph, samples, beliefs, 1.0, None, 1.0, 2), below),
        (lambda: objective.moment_mismatch(graph, samples, beliefs, 2), below),
        (lambda: primal_objective(graph, samples, states, w2, 1.0),
         "^w has 2 weights for num_features=4$"),
        (lambda: w_step(graph, samples, states, w2, w2, 1.0),
         "^w has 2 weights for num_features=4$"),
        (lambda: duality_report(graph, samples, states, w6, 1.0, None, 1.0, 4),
         "^w has 6 weights for num_features=4$"),
        (lambda: w_gradient(graph, samples, states, w6, 1.0, None, 1.0, 4),
         "^w has 6 weights for num_features=4$"),
        # w_step's feature count is the larger of the samples' and len(w)
        (lambda: w_step(graph, samples, states, w6, np.zeros(4), 1.0),
         "^gradient has 4 weights for num_features=6$"),
        # the per-sample calls take the sample's own feature count
        (lambda: lambda_update(graph, samples[0], 0, states[0], w2, 1.0),
         "^2 weights for 4 features$"),
    ):
        with pytest.raises(ModelError, match=message):
            call()


def grid(size):
    """A size x size denoising corpus of two samples."""
    spec = DenoiseSpec(width=size, height=size, num_train=2, num_test=0, flip_prob=0.2, seed=1)
    return make_denoise_dataset(spec)


# every public call that takes message states: (call, whether it takes a list)
STATE_CALLS = {
    "duality_report": (
        lambda ds, st, w, eps=1.0: duality_report(ds.graph, ds.train, st, w, eps), True
    ),
    "primal_objective": (
        lambda ds, st, w, eps=1.0: primal_objective(ds.graph, ds.train, st, w, eps), True
    ),
    "w_gradient": (lambda ds, st, w, eps=1.0: w_gradient(ds.graph, ds.train, st, w, eps), True),
    "w_step": (lambda ds, st, w, eps=1.0: w_step(ds.graph, ds.train, st, w, w, eps), True),
    "region_loss": (
        lambda ds, st, w, eps=1.0: region_loss(ds.graph, ds.train[0], 0, st, w, eps), False
    ),
    "lambda_update": (
        lambda ds, st, w, eps=1.0: lambda_update(ds.graph, ds.train[0], 0, st, w, eps), False
    ),
    "mu_message": (
        lambda ds, st, w, eps=1.0: mu_message(ds.graph, ds.train[0], *ds.graph.edges[0], st, w, eps),
        False,
    ),
    "inference_sweep": (
        lambda ds, st, w, eps=1.0: inference_sweep(ds.graph, ds.train[0], st, w, eps), False
    ),
    "compute_beliefs": (
        lambda ds, st, w, eps=1.0: compute_beliefs(ds.graph, ds.train[0], st, w, eps), False
    ),
}


@pytest.mark.parametrize("name", sorted(STATE_CALLS))
def test_non_finite_eps_is_rejected_before_any_sweep(name, monkeypatch):
    # the per-sample calls as the batch calls: nan and +-inf raise by name
    call, takes_list = STATE_CALLS[name]
    ds = grid(3)
    states = [MessageState(ds.graph) for _ in ds.train] if takes_list else MessageState(ds.graph)
    for module in (inference, learner):
        monkeypatch.setattr(module, "sweep_vec", lambda *args: pytest.fail("swept"))
    for eps in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^eps must be finite$"):
            call(ds, states, np.zeros(ds.num_features), eps)
    for eps in (-1.0, np.float64(-0.5)):
        with pytest.raises(ValueError, match="^eps must be nonnegative$"):
            call(ds, states, np.zeros(ds.num_features), eps)


def test_train_rejects_samples_without_true_labels_before_any_sweep(monkeypatch):
    # the empirical features need every sample's true labels; prediction
    # needs none (test_predict_ignores_loss_tables)
    ds = grid(3)
    unlabelled = [ds.train[0], Sample(ds.graph, 7, {}, ds.train[1].features)]
    monkeypatch.setattr(learner, "sweep_vec", lambda *args: pytest.fail("swept"))
    with pytest.raises(ModelError, match="^sample 7: no true labels$"):
        train(ds.graph, unlabelled, TrainerConfig(), ds.num_features)


@pytest.mark.parametrize("name", sorted(STATE_CALLS))
def test_message_states_that_do_not_fit_are_named(name):
    # a state list of another length than the samples, or a state of a
    # smaller or larger graph, raises naming the count or the state's index
    call, takes_list = STATE_CALLS[name]
    ds = grid(3)
    w, total = np.zeros(ds.num_features), ds.graph.layout().message_total
    if takes_list:
        with pytest.raises(ValueError, match="^1 message states for 2 samples$"):
            call(ds, [MessageState(ds.graph)], w)
    for other in (grid(2), grid(4)):
        state, n = MessageState(other.graph), other.graph.layout().message_total
        index = " 1" if takes_list else ""
        message = f"^message state{index}: {n} messages for the graph's {total}$"
        with pytest.raises(ValueError, match=message):
            call(ds, [MessageState(ds.graph), state] if takes_list else state, w)


# the public calls that take weights and no message states: (call, the weights' name)
WEIGHT_CALLS = {
    "predict_all": (lambda ds, w: learner.predict_all(ds.graph, ds.train, w, 1.0), "w"),
    "train": (lambda ds, w: train(ds.graph, ds.train, TrainerConfig(), w0=w), "w0"),
}


@pytest.mark.parametrize("name", sorted(STATE_CALLS) + sorted(WEIGHT_CALLS))
def test_non_finite_weights_are_named(name, monkeypatch):
    # a NaN or infinite weight raises before any sweep, naming the argument
    # and the first non-finite weight's feature id
    ds = grid(3)
    if name in WEIGHT_CALLS:
        call, arg = WEIGHT_CALLS[name]
    else:
        state_call, takes_list = STATE_CALLS[name]
        states = [MessageState(ds.graph) for _ in ds.train] if takes_list else MessageState(ds.graph)
        call, arg = (lambda ds, w: state_call(ds, states, w)), "w"
    for module in (inference, learner):
        monkeypatch.setattr(module, "sweep_vec", lambda *args: pytest.fail("swept"))
    last = ds.num_features - 1
    for bad, k in (({0: np.nan, last: np.inf}, 0), ({last: -np.inf}, last)):
        w = np.zeros(ds.num_features)
        w[list(bad)] = list(bad.values())
        with pytest.raises(ValueError, match=f"^{arg} is not finite at feature {k}$"):
            call(ds, w)


def test_w_step_rejects_a_config_that_disagrees_with_its_arguments():
    rng = np.random.default_rng(33)
    graph = chain_graph(3)
    samples = [random_sample(rng, graph, 2, i) for i in range(2)]
    states = [MessageState(graph) for _ in samples]
    w, g = np.zeros(2), np.ones(2)
    for config, counting in (
        (TrainerConfig(eps=0.1, C=9.0), None),
        (TrainerConfig(eps=0.1, C=0.5), None),
        (TrainerConfig(eps=1.0, C=9.0), None),
        (TrainerConfig(eps=1.0, C=0.5, counting="bethe"), None),
        (TrainerConfig(eps=1.0, C=0.5), "bethe"),
    ):
        with pytest.raises(ValueError, match="config's eps, counting numbers or C differ"):
            w_step(graph, samples, states, w, g, 1.0, counting, 0.5, config)
    # the same values in other forms agree: ones by name, by values or by default
    want = w_step(graph, samples, states, w, g, 1.0, None, 0.5)
    for config, counting in (
        (TrainerConfig(eps=1.0, C=0.5), ones(graph)),
        (TrainerConfig(eps=1.0, C=0.5, counting=np.ones(graph.region_count)), "ones"),
        (None, ones(graph)),
    ):
        got = w_step(graph, samples, states, w, g, 1.0, counting, 0.5, config)
        assert np.array_equal(got.w, want.w) and got.objective == want.objective


def test_gradient_zero_when_moments_always_match():
    # constant feature tables: every belief matches the empirical moment
    graph = RegionGraph([Region(0, (0,), (3,))], [], 1)
    sample = Sample(
        graph, 0, features={0: {0: np.full(3, 1.0)}}, true_labels={0: 2}
    )
    g = w_gradient(graph, [sample], [MessageState(graph)], np.zeros(1), 1.0, ones(graph), 0.0)
    np.testing.assert_allclose(g, 0.0, atol=1e-12)


def test_gradient_single_region_matches_gibbs_expectation():
    rng = np.random.default_rng(0)
    graph = RegionGraph([Region(0, (0,), (4,))], [], 1)
    feats = {0: {0: rng.normal(size=4), 1: rng.normal(size=4)}}
    truth = 1
    loss = {0: rng.uniform(0.2, 1.0, 4)}
    loss[0][truth] = 0.0
    sample = Sample(graph, 0, loss, feats, {0: truth})
    w = rng.normal(size=2)
    C = 0.4
    state = MessageState(graph)
    g = w_gradient(graph, [sample], [state], w, 1.0, ones(graph), C)
    from util import theta_table

    p = gibbs_normalize(theta_table(sample, 0, w, include_loss=True), 1.0)
    for k in range(2):
        expected = float(p @ feats[0][k]) - feats[0][k][truth] + C * w[k]
        assert g[k] == pytest.approx(expected, abs=1e-12)


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(8):
        graph, sample = random_model(rng)
        w = rng.uniform(-1, 1, 3)
        C = float(rng.uniform(0.1, 1.0))
        state = MessageState(graph)
        for _ in range(int(rng.integers(0, 4))):
            inference_sweep(graph, sample, state, w, 1.0, ones(graph))
        g = w_gradient(graph, [sample], [state], w, 1.0, ones(graph), C)
        h = 1e-5
        for k in range(3):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            fd = (
                primal_objective(graph, [sample], [state], wp, 1.0, ones(graph), C)
                - primal_objective(graph, [sample], [state], wm, 1.0, ones(graph), C)
            ) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_an_overflowing_gradient_stops_the_line_search_by_name():
    # finite weights whose gradient overflows (numpy's warnings silenced)
    ds = grid(3)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="^gradient must be finite$"):
        train(ds.graph, ds.train, TrainerConfig(), w0=np.full(ds.num_features, 1e308))


def test_step_with_zero_gradient_keeps_weights():
    rng = np.random.default_rng(2)
    graph, sample = random_model(rng)
    w = rng.normal(size=3)
    cfg = TrainerConfig(eps=1.0, C=0.5)
    res = w_step(graph, [sample], [MessageState(graph)], w, np.zeros(3), 1.0, ones(graph), 0.5, cfg)
    assert not res.stalled
    assert res.eta == learner.ETAS[0]
    np.testing.assert_array_equal(res.w, w)


def test_step_solves_pure_quadratic():
    # all-zero features: the primal is constant + (C/2) w^2
    graph = RegionGraph([Region(0, (0,), (2,))], [], 1)
    sample = Sample(graph, 0, features={0: {0: np.zeros(2)}}, true_labels={0: 0})
    C = 0.8
    cfg = TrainerConfig(eps=1.0, C=C)
    w = np.array([5.0])
    state = [MessageState(graph)]
    for step_count in range(60):
        g = w_gradient(graph, [sample], state, w, 1.0, ones(graph), C)
        res = w_step(graph, [sample], state, w, g, 1.0, ones(graph), C, cfg)
        w = res.w
        if abs(w[0]) <= 1e-8:
            break
    assert abs(w[0]) <= 1e-8


def test_step_monotone_on_denoise_model():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=3, num_test=0, flip_prob=0.2, seed=3, tying="full")
    )
    states = [MessageState(ds.graph) for _ in ds.train]
    w = np.zeros(ds.num_features)
    for s, st in zip(ds.train, states):
        inference_sweep(ds.graph, s, st, w, 1.0, ones(ds.graph))
    f0 = primal_objective(ds.graph, ds.train, states, w, 1.0, ones(ds.graph), 0.5)
    g = w_gradient(ds.graph, ds.train, states, w, 1.0, ones(ds.graph), 0.5)
    res = w_step(ds.graph, ds.train, states, w, g, 1.0, ones(ds.graph), 0.5, TrainerConfig(C=0.5))
    assert res.objective < f0


def test_train_zero_sample_model_converges_immediately():
    graph = chain_graph(2)
    state = train(graph, [], TrainerConfig(max_outer_iters=5), num_features=3)
    assert state.converged
    assert state.iteration == 1
    np.testing.assert_array_equal(state.w, np.zeros(3))


def test_train_zero_feature_model_reaches_inference_fixed_point():
    rng = np.random.default_rng(4)
    graph = chain_graph(3)
    drawn = random_sample(rng, graph, 1, with_loss=True)
    sample = Sample(graph, drawn.id, drawn.loss, {}, drawn.true_labels)  # no feature tables
    state = train(graph, [sample], TrainerConfig(max_outer_iters=100), num_features=0)
    assert state.converged
    assert state.report.marginal_residual <= 1e-6


def test_train_monotone_history_and_stationarity():
    ds = make_denoise_dataset(
        DenoiseSpec(width=4, height=4, num_train=4, num_test=0, flip_prob=0.2, seed=5, tying="full")
    )
    cfg = TrainerConfig(eps=1.0, C=0.4, max_outer_iters=1500, residual_tol=1e-8)
    records = []
    state = train(ds.graph, ds.train, cfg, num_features=ds.num_features, log_fn=records.append)
    assert state.converged
    hist = np.array(state.history)
    assert ((hist[1:] - hist[:-1]) <= 1e-10).all()
    # stationarity: moment mismatch balances the regularizer pull
    g = w_gradient(
        ds.graph, ds.train, state.states, state.w, 1.0, ones(ds.graph), 0.4, ds.num_features
    )
    assert np.linalg.norm(g) <= cfg.grad_norm_tol
    assert state.report.certified
    # primal in the log equals the recomputed primal
    recomputed = primal_objective(
        ds.graph, ds.train, state.states, state.w, 1.0, ones(ds.graph), 0.4
    )
    assert records[-1].primal == pytest.approx(recomputed, abs=1e-9)


def test_train_bound_certificate_certified_gap():
    ds = make_denoise_dataset(
        DenoiseSpec(width=4, height=4, num_train=3, num_test=0, flip_prob=0.2, seed=6, tying="shared")
    )
    cfg = TrainerConfig(eps=1.0, C=0.5, max_outer_iters=1500, residual_tol=1e-9)
    state = train(ds.graph, ds.train, cfg, num_features=ds.num_features)
    assert state.converged and state.report.certified
    assert abs(state.report.gap) <= 1e-6
    assert state.report.gap >= -1e-8


def test_train_sweep_count_does_not_change_optimum():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=3, num_test=0, flip_prob=0.2, seed=7, tying="full")
    )
    finals = []
    for sps in (1, 10):
        cfg = TrainerConfig(
            eps=1.0, C=0.5, sweeps_per_step=sps, max_outer_iters=3000, residual_tol=1e-9
        )
        st = train(ds.graph, ds.train, cfg, num_features=ds.num_features)
        assert st.converged
        finals.append(st.report.primal)
    assert abs(finals[0] - finals[1]) <= 1e-6


def stalled_run(monkeypatch, iterations):
    """A ``train`` run on a 3x3 corpus, and its records, whose every weight
    step stalls: a first trial step this long cannot decrease the primal,
    and no backtrack is allowed."""
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=3, num_test=0, flip_prob=0.2, seed=8, tying="full")
    )
    monkeypatch.setattr(learner, "ETAS", (1e6,))
    cfg = TrainerConfig(eps=1.0, C=0.5, max_outer_iters=iterations)
    w0 = np.random.default_rng(8).normal(size=ds.num_features)
    records = []
    st = train(ds.graph, ds.train, cfg, ds.num_features, w0, log_fn=records.append)
    return ds, cfg, st, records


def test_stalled_step_recovery_sweeps_reach_residual_tol(monkeypatch):
    # the recovery after the first, stalled step runs before the second
    # iteration's block
    ds, cfg, st, records = stalled_run(monkeypatch, 2)
    assert records[0].eta == 0.0 and records[0].residual > cfg.residual_tol
    for sample, state in zip(ds.train, st.states):
        beliefs = compute_beliefs(ds.graph, sample, state, st.w, 1.0, ones(ds.graph))
        assert marginal_residual(ds.graph, beliefs) <= cfg.residual_tol


def test_a_run_that_ends_on_a_stalled_step_reports_its_returned_messages(monkeypatch):
    # no recovery sweeps after the last iteration: the library report at the
    # returned messages prints the state's report
    ds, cfg, st, records = stalled_run(monkeypatch, 1)
    assert st.stalled and records[0].residual > cfg.residual_tol
    report = duality_report(ds.graph, ds.train, st.states, st.w, 1.0, None, 0.5)
    assert report.to_text() == st.report.to_text()


def test_train_warm_start_accepted():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=2, num_test=0, flip_prob=0.2, seed=9, tying="shared")
    )
    cfg = TrainerConfig(eps=1.0, C=0.5, max_outer_iters=400, residual_tol=1e-8)
    cold = train(ds.graph, ds.train, cfg, num_features=ds.num_features)
    warm = train(ds.graph, ds.train, cfg, num_features=ds.num_features, w0=cold.w)
    assert warm.iteration <= cold.iteration
    assert warm.report.primal == pytest.approx(cold.report.primal, abs=1e-8)


def test_train_eps_zero_runs_and_is_uncertified():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=2, num_test=0, flip_prob=0.2, seed=10, tying="shared")
    )
    cfg = TrainerConfig(eps=0.0, C=0.5, max_outer_iters=60)
    state = train(ds.graph, ds.train, cfg, num_features=ds.num_features)
    hist = np.array(state.history)
    assert ((hist[1:] - hist[:-1]) <= 1e-10).all()
    assert not state.report.certified


def test_predict_single_variable_is_unary_argmax():
    rng = np.random.default_rng(11)
    graph = RegionGraph([Region(0, (0,), (4,))], [], 1)
    feats = {0: {0: rng.normal(size=4)}}
    sample = Sample(graph, 0, features=feats, true_labels={0: 0})
    w = np.array([1.3])
    result = predict(graph, sample, w, 1.0, ones(graph))
    assert result.labels[0] == int(np.argmax(w[0] * feats[0][0]))
    assert result.residual == 0.0


def test_predict_tree_map_mode_matches_exact_map():
    rng = np.random.default_rng(12)
    for _ in range(10):
        graph = tree_graph(rng, int(rng.integers(2, 8)))
        sample = random_sample(rng, graph, 3, with_loss=False)
        w = rng.normal(size=3)
        bethe = CountingNumbers.bethe(graph)
        result = predict(graph, sample, w, 0.0, bethe, max_sweeps=60)
        np.testing.assert_array_equal(result.labels, exact_map(graph, sample, w))


def test_predict_uncoupled_grid_is_per_pixel_argmax():
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=1, num_test=0, flip_prob=0.2, seed=13, tying="full")
    )
    sample = ds.train[0]
    w = np.zeros(ds.num_features)
    n = 9
    w[:n] = 1.0  # unary weights only; pairwise stay zero
    result = predict(ds.graph, sample, w, 1.0, ones(ds.graph), max_sweeps=50)
    for i in range(n):
        table = sample.features[i][i]
        assert result.labels[i] == int(np.argmax(w[i] * table))


def test_predict_ignores_loss_tables():
    rng = np.random.default_rng(14)
    graph = chain_graph(3)
    sample = random_sample(rng, graph, 2, with_loss=True)
    stripped = Sample(graph, 0, {}, sample.features, sample.true_labels)
    w = rng.normal(size=2)
    unlabelled = Sample(graph, 0, {}, sample.features)  # prediction needs no truth
    a = predict(graph, sample, w, 1.0, ones(graph), max_sweeps=40)
    for other in (stripped, unlabelled):
        b = predict(graph, other, w, 1.0, ones(graph), max_sweeps=40)
        np.testing.assert_array_equal(a.labels, b.labels)


def test_noiseless_corpus_trains_to_zero_test_error():
    ds = make_denoise_dataset(
        DenoiseSpec(width=4, height=4, num_train=3, num_test=3, flip_prob=0.0, seed=15, tying="full")
    )
    cfg = TrainerConfig(eps=1.0, C=0.5, max_outer_iters=600, residual_tol=1e-8)
    state = train(ds.graph, ds.train, cfg, num_features=ds.num_features)
    assert state.converged
    from blendsp.datagen import pixel_error

    preds = [
        predict(ds.graph, s, state.w, 1.0, ones(ds.graph), max_sweeps=100).labels
        for s in ds.test
    ]
    wrong, _ = pixel_error(preds, [ds.base_image.ravel()] * 3)
    assert wrong == 0


def small_corpora(rng):
    """(graph, samples) pairs: a random tree, a loopy graph and a 3-level graph."""
    graph = tree_graph(rng, int(rng.integers(3, 7)))
    out = [(graph, [random_sample(rng, graph, 3, i) for i in range(3)])]
    n = int(rng.integers(4, 6))
    graph = loopy_graph(rng, n, int(rng.integers(n, n * (n - 1) // 2 + 1)))
    out.append((graph, [random_sample(rng, graph, 3, i) for i in range(3)]))
    cards = [int(c) for c in rng.integers(2, 4, 3)]
    models = [three_level_model(np.random.default_rng(seed), cards) for seed in range(3)]
    graph = models[0][0]
    samples = [Sample(graph, i, s.loss, s.features, s.true_labels) for i, (_, s) in enumerate(models)]
    out.append((graph, samples))
    return out


def test_adaptive_default_descends_to_the_fixed_sweep_optimum():
    rng = np.random.default_rng(30)
    for graph, samples in small_corpora(rng) + small_corpora(rng):
        finals = []
        for sps in (None, 1):
            cfg = TrainerConfig(
                eps=1.0, C=0.5, sweeps_per_step=sps, max_outer_iters=3000,
                residual_tol=1e-9, grad_norm_tol=1e-7,
            )
            records = []
            st = train(graph, samples, cfg, log_fn=records.append)
            assert st.converged
            hist = np.array(st.history)
            assert ((hist[1:] - hist[:-1]) <= 1e-10).all()
            if sps is None:
                assert all(1 <= r.sweeps <= learner.KAPPA_CAP for r in records)
            finals.append(st.report.primal)
        assert finals[0] == pytest.approx(finals[1], rel=1e-9)


def test_adaptive_first_step_equals_one_sweep_bitwise():
    # the default block starts at one sweep, so the first step is one sweep's
    rng = np.random.default_rng(31)
    for graph, samples in small_corpora(rng):
        weights = []
        for sps in (None, 1):
            records = []
            cfg = TrainerConfig(eps=1.0, C=0.5, sweeps_per_step=sps, max_outer_iters=1)
            st = train(graph, samples, cfg, log_fn=records.append)
            assert records[0].sweeps == 1
            weights.append(st.w)
        assert np.array_equal(weights[0], weights[1])


def test_default_block_only_grows_within_its_cap():
    # in convex mode the block starts at one sweep and is raised by one at a
    # time, never lowered, up to KAPPA_CAP
    ds = make_denoise_dataset(
        DenoiseSpec(width=6, height=6, num_train=4, num_test=0, flip_prob=0.2, seed=17, tying="full")
    )
    small = small_corpora(np.random.default_rng(36))
    for graph, samples in [(ds.graph, ds.train), *small]:
        records = []
        state = train(graph, samples, TrainerConfig(C=0.3, residual_tol=1e-8), log_fn=records.append)
        assert state.converged
        sweeps = [r.sweeps for r in records]
        assert sweeps[0] == 1 and all(1 <= n <= learner.KAPPA_CAP for n in sweeps)
        assert all(0 <= b - a <= 1 for a, b in zip(sweeps, sweeps[1:]))
        assert state.block in (sweeps[-1], sweeps[-1] + 1)


def test_default_block_stays_one_sweep_without_descent():
    # under Bethe counting numbers descent fails, so the block keeps one
    # sweep per step, at which the 4x4 corpus converges (a block grown
    # without the descent gate cycled for 1,000 iterations there)
    ds = make_denoise_dataset(
        DenoiseSpec(width=4, height=4, num_train=3, num_test=0, flip_prob=0.2, seed=12, tying="full")
    )
    records = []
    cfg = TrainerConfig(C=0.3, counting="bethe")
    state = train(ds.graph, ds.train, cfg, num_features=ds.num_features, log_fn=records.append)
    assert state.converged and state.iteration == 43
    assert state.block == 1 and all(r.sweeps == 1 for r in records)


def test_fixed_sweeps_per_step_ignores_the_rule(monkeypatch):
    ds = make_denoise_dataset(
        DenoiseSpec(width=4, height=4, num_train=3, num_test=0, flip_prob=0.2, seed=16, tying="full")
    )
    cfg = TrainerConfig(eps=1.0, C=0.3, sweeps_per_step=2, max_outer_iters=40)
    runs = []
    for kappa in (learner.KAPPA, 0.0):
        monkeypatch.setattr(learner, "KAPPA", kappa)
        records = []
        st = train(ds.graph, ds.train, cfg, num_features=ds.num_features, log_fn=records.append)
        assert all(r.sweeps == 2 for r in records)
        runs.append((st.w, [r.format_line() for r in records]))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_adaptive_default_takes_fewer_weight_steps_on_denoising():
    ds = make_denoise_dataset(
        DenoiseSpec(width=6, height=6, num_train=4, num_test=0, flip_prob=0.2, seed=17, tying="full")
    )
    states, records = [], []
    for sps in (None, 1):
        cfg = TrainerConfig(eps=1.0, C=0.3, sweeps_per_step=sps, residual_tol=1e-8)
        recs = []
        states.append(train(ds.graph, ds.train, cfg, num_features=ds.num_features, log_fn=recs.append))
        records.append(recs)
    adaptive, fixed = states
    assert adaptive.converged and fixed.converged
    assert adaptive.iteration < fixed.iteration
    assert max(r.sweeps for r in records[0]) > 1
    assert adaptive.report.primal == pytest.approx(fixed.report.primal, rel=1e-9)


def test_train_scatters_messages_once_per_iteration(monkeypatch):
    # whatever the block's sweeps, its belief pass is the only scatter of the
    # message potentials: the sweeps, the line search and the post-step
    # report need none of their own; each extrapolation's report adds one
    ds = make_denoise_dataset(
        DenoiseSpec(width=3, height=3, num_train=2, num_test=1, flip_prob=0.2, seed=1)
    )
    calls = []
    scatter = inference.message_potentials

    def counted(*args):
        calls.append(1)
        return scatter(*args)

    for module in (inference, learner, objective):
        monkeypatch.setattr(module, "message_potentials", counted)
    records = []
    state = train(
        ds.graph, ds.train, TrainerConfig(C=0.3), num_features=ds.num_features,
        log_fn=records.append,
    )
    assert state.converged and state.iteration > 10
    assert records[0].sweeps == 1 and records[-1].sweeps == learner.KAPPA_CAP
    attempts = sum(r.extrapolated is not None for r in records)
    assert (state.iteration, attempts) == (16, 3)
    assert len(calls) == state.iteration + attempts


@pytest.mark.parametrize("corpus", ["grid", "three_level"])
def test_train_stops_at_the_first_iteration_that_passes_both_optimality_tests(
    corpus, tmp_path, capsys
):
    # the stop test is the optimum's: a consistent message block (residual
    # below residual_tol) and a vanishing weight gradient (below
    # grad_norm_tol).  Every record before the last fails one of the two, a
    # converged run's last passes both, and the CLI's exit code follows
    if corpus == "grid":
        ds = make_denoise_dataset(
            DenoiseSpec(width=3, height=3, num_train=2, num_test=1, flip_prob=0.2, seed=1)
        )
        graph, samples, num_features = ds.graph, ds.train, ds.num_features
    else:
        rng = np.random.default_rng(22)
        graph, sample = three_level_model(rng, [2, 3, 2])
        samples = [sample, random_sample(rng, graph, 4, 1)]
        num_features = ThetaStack(samples, graph.layout()).feature_count
    model = tmp_path / "train.bsp"
    with open(model, "w") as fh:
        write_model(ParsedModel(graph, samples, None, num_features), fh)
    for max_iters in (1000, 4):
        cfg = TrainerConfig(C=0.3, max_outer_iters=max_iters)
        records = []
        state = train(graph, samples, cfg, num_features, log_fn=records.append)
        passes = [r.residual < cfg.residual_tol and r.grad_norm < cfg.grad_norm_tol for r in records]
        assert len(records) == state.iteration
        assert not any(passes[:-1])
        assert state.converged == passes[-1]
        assert state.converged == (max_iters == 1000), max_iters
        argv = ["train", "--model", str(model), "--C", "0.3", "--max-iters", str(max_iters)]
        capsys.readouterr()
        code = main([*argv, "--out", str(tmp_path / "w.bsw")])
        out = capsys.readouterr().out
        verdict = "yes" if state.converged else "no"
        assert f"iterations={state.iteration} converged={verdict}" in out
        assert code == (0 if state.converged else 2)


def test_train_extrapolation_keeps_the_primal_monotone(monkeypatch):
    # on convex corpora (a denoising grid, a tree, a 3-level graph) every
    # logged primal is at most the one before, to 1e-12 relative; an
    # extrapolation is taken exactly where its primal is below the step's,
    # and the record logs the primal train kept.  Under Bethe counting
    # numbers descent fails and none is tried
    primals = []
    report = objective.BatchObjective.report

    def spied(self, *args, **kwargs):
        out = report(self, *args, **kwargs)
        primals.append(out[0].primal)
        return out

    monkeypatch.setattr(objective.BatchObjective, "report", spied)
    ds = make_denoise_dataset(
        DenoiseSpec(width=4, height=4, num_train=3, num_test=0, flip_prob=0.2, seed=12, tying="full")
    )
    tree, _, three_level = small_corpora(np.random.default_rng(35))
    outcomes = []
    for graph, samples in ((ds.graph, ds.train), tree, three_level):
        del primals[:]
        records = []
        cfg = TrainerConfig(C=0.3, residual_tol=1e-9)
        assert train(graph, samples, cfg, log_fn=records.append).converged
        reports = iter(primals)
        for before, record in zip([None, *records], records):
            stepped = next(reports)
            kept = stepped
            if record.extrapolated is not None:
                point = next(reports)
                assert record.extrapolated == (point < stepped)
                kept = point if record.extrapolated else stepped
                outcomes.append(record.extrapolated)
            assert record.primal == kept
            if before is not None:
                assert record.primal <= before.primal + 1e-12 * abs(before.primal)
        assert next(reports, None) is None
    assert True in outcomes and False in outcomes
    del primals[:]
    records = []
    cfg = TrainerConfig(C=0.3, counting="bethe", max_outer_iters=30)
    train(ds.graph, ds.train, cfg, log_fn=records.append)
    assert all(r.extrapolated is None for r in records)
    assert len(primals) == len(records) == 30


@pytest.mark.parametrize("config", [
    TrainerConfig(C=0.3),
    TrainerConfig(C=0.3, sweeps_per_step=3),
    TrainerConfig(C=0.3, counting="bethe"),  # no descent: no hint and no extrapolation
], ids=["kappa", "fixed", "bethe"])
def test_a_run_resumed_from_a_copy_of_its_state_is_the_uninterrupted_run(config):
    # stopped after iteration 7, two iterates into its second extrapolation
    # ring, a deep copy of the state continued by ``_iterate`` logs and ends
    # exactly as the run that never stopped: the state carries everything
    ds = make_denoise_dataset(
        DenoiseSpec(width=4, height=4, num_train=3, num_test=0, flip_prob=0.2, seed=12, tying="full")
    )
    records = []
    full = train(ds.graph, ds.train, config, num_features=ds.num_features, log_fn=records.append)
    assert full.converged and full.iteration > 12
    stop = replace(config, max_outer_iters=7)
    head = []
    state = copy.deepcopy(train(ds.graph, ds.train, stop, ds.num_features, log_fn=head.append))
    # the copy shares the graph, and its states view its own message rows
    assert state.states[0].graph is ds.graph
    assert all(np.shares_memory(st.vec, state.lam) for st in state.states)
    assert state.filled == (2 if config.counting is None else 0)
    batch = objective.BatchObjective(
        ds.graph, ds.train, config.eps, config.counting, config.C, ds.num_features
    )
    while state.iteration < config.max_outer_iters and not state.converged:
        head.append(learner._iterate(batch, state, config))

    def logged(r):
        return r.format_line(), r.sweeps, r.trials, r.extrapolated

    assert list(map(logged, head)) == list(map(logged, records))
    assert state.converged and state.w.tobytes() == full.w.tobytes()
    extrapolated = [r.extrapolated for r in records[7:]]
    assert (True in extrapolated) == (config.counting is None)
    assert state.filled == full.filled and np.array_equal(state.ring, full.ring)


def step_grid(eta0=1.0, backtrack=0.5, backtracks=50):
    """A step grid for ``learner.ETAS``: eta0, then repeated ``eta *= backtrack``."""
    etas = [eta0]
    for _ in range(backtracks):
        etas.append(etas[-1] * backtrack)
    return tuple(etas)


def reference_line_search(graph, samples, states, w, g, eps, C):
    """The top-down scan of ``learner.ETAS``, rebuilding every theta per
    sample on each trial; the primal sums per-sample losses in list order,
    then the regularizer, as the report does."""
    layout = graph.layout()
    compiled = [s.compiled() for s in samples]
    lam = np.stack([st.vec for st in states])
    lam_part = message_potentials(layout, lam)
    t_regions = eps * np.ones(graph.region_count)

    def f(w):
        th = np.stack([cs.theta_vec(w, include_loss=True) for cs in compiled]) + lam_part
        lse = segmented_lse(layout, th, t_regions)
        losses = [float(lse[i].sum() - th[i, cs.true_slots[0]].sum())
                  for i, cs in enumerate(compiled)]
        return sum(losses) + 0.5 * C * float(w @ w)

    f0, gg = f(w), float(g @ g)
    for eta in learner.ETAS:
        f_try = f(w - eta * g)
        if np.isfinite(f_try) and f_try <= f0 - learner.SUFFICIENT_DECREASE * eta * gg:
            return w - eta * g, eta, f_try
    return w, 0.0, f0


def test_stacked_theta_and_line_search_match_per_sample_reference(monkeypatch):
    rng = np.random.default_rng(32)
    for graph, samples in small_corpora(rng) + small_corpora(rng):
        first = samples[0]  # rebuilt as a sample with no feature tables
        samples[0] = Sample(graph, first.id, first.loss, {}, first.true_labels)
        layout = graph.layout()
        k = 4
        w = rng.normal(size=k)
        stack = ThetaStack(samples, layout)
        th = stack.rows(w)
        ref = np.stack([s.compiled().theta_vec(w, include_loss=True) for s in samples])
        assert np.array_equal(th, ref)
        sums = [th[i, s.compiled().true_slots[0]].sum() for i, s in enumerate(samples)]
        assert np.array_equal(stack.true_sums(th), sums)
        free = stack.rows(w, include_loss=False)
        assert np.array_equal(free, [s.compiled().theta_vec(w, include_loss=False) for s in samples])
        many = samples * 3
        bmat = rng.uniform(size=(len(many), layout.total))
        expect = np.zeros(k)
        for i, s in enumerate(many):
            cs = s.compiled()
            expect += np.bincount(cs.cols, cs.vals * bmat[i, cs.bins], k)
        assert np.array_equal(ThetaStack(many, layout).expectations(bmat, k), expect)

        states = [MessageState(graph) for _ in samples]
        for sample, state in zip(samples, states):
            for _ in range(int(rng.integers(0, 3))):
                inference_sweep(graph, sample, state, w, 1.0, ones(graph))
        g = w_gradient(graph, samples, states, w, 1.0, ones(graph), 0.5, k)
        for eta0 in (1.0, 1e6):
            monkeypatch.setattr(learner, "ETAS", step_grid(eta0, backtracks=5))
            cfg = TrainerConfig(eps=1.0, C=0.5)
            step = w_step(graph, samples, states, w, g, 1.0, ones(graph), 0.5, cfg)
            w_ref, eta_ref, f_ref = reference_line_search(graph, samples, states, w, g, 1.0, 0.5)
            assert np.array_equal(step.w, w_ref)
            assert step.eta == eta_ref and step.objective == f_ref


def test_library_report_and_gradient_reproduce_train_bitwise():
    # one objective path: at train's final messages and weights, the library
    # report prints train's report and the gradient has the logged norm
    rng = np.random.default_rng(34)
    for graph, samples in small_corpora(rng) + small_corpora(rng):
        values = rng.uniform(0.5, 2.0, graph.region_count)
        for counting in (CountingNumbers.ones(graph), CountingNumbers.of(graph, values)):
            cfg = TrainerConfig(
                eps=1.0, C=0.5, counting=counting, max_outer_iters=3000,
                residual_tol=1e-9, grad_norm_tol=1e-7,
            )
            records = []
            state = train(graph, samples, cfg, log_fn=records.append)
            assert state.converged
            report = duality_report(graph, samples, state.states, state.w, 1.0, counting, 0.5)
            assert report.to_text() == state.report.to_text()
            g = w_gradient(graph, samples, state.states, state.w, 1.0, counting, 0.5)
            assert np.linalg.norm(g) == records[-1].grad_norm


def test_every_step_is_accepted_on_the_primal_it_logs(monkeypatch):
    # the Armijo test and the report sum the primal one way
    # (BatchObjective.primal): each step's objective is the primal logged
    # after it, bit for bit, unless the extrapolation moved the iterate
    spec = DenoiseSpec(width=4, height=4, num_train=3, num_test=0, flip_prob=0.2, seed=8,
                       tying="full")
    ds = make_denoise_dataset(spec)
    search, steps, records = learner._line_search, [], []

    def spy(*args):
        step, rows = search(*args)
        steps.append(step)
        return step, rows

    monkeypatch.setattr(learner, "_line_search", spy)
    train(ds.graph, ds.train, TrainerConfig(C=0.3), log_fn=records.append)
    assert len(steps) == len(records)
    kept = [(s.objective, r.primal) for s, r in zip(steps, records) if r.extrapolated is not True]
    assert len(kept) > 10
    assert [f.hex() for f, _ in kept] == [p.hex() for _, p in kept]


def test_train_keeps_the_callers_sample_order():
    # the rows of lam and states follow the list train is given, as every
    # other batch call's do: the library calls take train's final state
    # with the same list, here one out of sample-id order
    spec = DenoiseSpec(width=4, height=4, num_train=3, num_test=0, flip_prob=0.2, seed=8,
                       tying="full")
    ds = make_denoise_dataset(spec)
    samples = ds.train[::-1]
    records = []
    state = train(ds.graph, samples, TrainerConfig(C=0.3), log_fn=records.append)
    report = duality_report(ds.graph, samples, state.states, state.w, 1.0, None, 0.3)
    assert report.to_text() == state.report.to_text()
    g = w_gradient(ds.graph, samples, state.states, state.w, 1.0, None, 0.3)
    assert np.linalg.norm(g) == records[-1].grad_norm



def line_search(graph, samples, states, w, g, eps, C, prev):
    """``learner._line_search`` set up as ``w_step`` sets it up, with the
    previous step's backtrack count ``prev``."""
    batch = objective.BatchObjective(graph, samples, eps, ones(graph), C, len(w))
    lam_part = message_potentials(batch.layout, np.stack([st.vec for st in states]))
    thetas = batch.stack.rows(w)
    lse = batch.terms.regions(thetas + lam_part).lse
    return learner._line_search(batch, lam_part, w, thetas, lse, g, prev)[0]


def check_bracket_is_the_scan(graph, samples, states, w, g, eps, C):
    """From every previous backtrack count, the search takes the scan's step
    bit for bit and at most one trial more than the scan; returns the
    indices whose step differs."""
    w_ref, eta_ref, f_ref = reference_line_search(graph, samples, states, w, g, eps, C)
    scan = line_search(graph, samples, states, w, g, eps, C, 0)
    assert scan.trials == (len(learner.ETAS) - 1 if scan.stalled else scan.backtracks) + 1
    differ = []
    for prev in range(len(learner.ETAS)):
        step = line_search(graph, samples, states, w, g, eps, C, prev)
        assert step.trials <= scan.trials + 1
        same = np.array_equal(step.w, w_ref) and step.eta == eta_ref and step.objective == f_ref
        if not same or step.backtracks != scan.backtracks:
            differ.append(prev)
    return differ


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.0, 0.3, 0.0]),
       st.sampled_from([0.5, 0.3]), st.sampled_from([1.0, 30.0, 1e4]))
def test_bracketed_search_takes_the_scans_step_bitwise(seed, eps, backtrack, eta0):
    rng = np.random.default_rng(seed)
    for graph, samples in small_corpora(rng):
        states = [MessageState(graph) for _ in samples]
        w = rng.normal(size=4)
        for sample, state in zip(samples, states):
            for _ in range(int(rng.integers(0, 3))):
                inference_sweep(graph, sample, state, w, eps, ones(graph))
        g = w_gradient(graph, samples, states, w, eps, ones(graph), 0.5, 4)
        with mock.patch.object(learner, "ETAS", step_grid(eta0, backtrack, 12)):
            assert check_bracket_is_the_scan(graph, samples, states, w, g, eps, 0.5) == []


def test_bracket_falls_back_to_the_scan_where_rounding_decides(monkeypatch):
    # 20 copies of 3 samples trained for 20 to 40 iterations, to gradient
    # norms of 2.6e-7 to 6.4e-6: the primal is about 507 and the Armijo
    # margins are rounding noise, so at three of these five states a
    # bracket that trusted every test takes other steps than the scan
    rng = np.random.default_rng(2)
    graph = tree_graph(rng, 4)
    drawn = [random_sample(rng, graph, 3, i) for i in range(3)]
    samples = [Sample(graph, i, s.loss, s.features, s.true_labels)
               for i, s in enumerate(drawn * 20)]
    runs = []
    for iterations in (20, 25, 30, 35, 40):
        config = TrainerConfig(C=0.5, max_outer_iters=iterations, grad_norm_tol=0.0)
        state = train(graph, samples, config)
        g = w_gradient(graph, samples, state.states, state.w, 1.0, ones(graph), 0.5)
        assert 1e-7 < np.linalg.norm(g) < 1e-5
        runs.append((graph, samples, state.states, state.w, g, 1.0, 0.5))
    monkeypatch.setattr(learner, "ETAS", step_grid(backtracks=20))
    for args in runs:
        assert check_bracket_is_the_scan(*args) == []
    monkeypatch.setattr(learner, "ARMIJO_ULPS", 0)  # every test taken as clear
    assert any(check_bracket_is_the_scan(*args) != [] for args in runs)


def denoise_run():
    """``train`` on a 5x5 denoising corpus on the grid 16 * 2^-m, where most steps
    are 2^-1: the records and the log text."""
    ds = make_denoise_dataset(
        DenoiseSpec(width=5, height=5, num_train=4, num_test=0, flip_prob=0.2, seed=11, tying="full")
    )
    cfg = TrainerConfig(C=0.3, residual_tol=1e-8)
    records = []
    with mock.patch.object(learner, "ETAS", step_grid(16.0)):
        state = train(ds.graph, ds.train, cfg, num_features=ds.num_features, log_fn=records.append)
    assert state.converged
    return records, "".join(r.format_line() + "\n" for r in records)


def test_train_without_the_previous_step_logs_the_same_bytes(monkeypatch):
    records, log = denoise_run()
    search = learner._line_search

    def scan(*args):
        return search(*args[:-1], 0)

    monkeypatch.setattr(learner, "_line_search", scan)
    scanned, scanned_log = denoise_run()
    assert scanned_log == log
    # the scan's trials follow from the logged steps: m + 1 at eta = 16 * 0.5^m
    assert [r.trials for r in scanned] == [round(np.log2(16 / r.eta)) + 1 for r in scanned]
    assert (len(records), sum(r.trials for r in records)) == (26, 76)
    assert sum(r.trials for r in scanned) == 156
