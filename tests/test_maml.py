import errno
import io
import json
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from matchkit import _fork, maml
from matchkit.dbwp import DbwpParams, dbwp_scores
from matchkit.maml import (
    QUERY_MATCH_NUMBERS,
    SUPPORT_MATCH_NUMBERS,
    MamlConfig,
    MetaState,
    QueryEval,
    Task,
    evaluate_queries,
    fine_tune_and_eval,
    gd_steps,
    inner_adapt,
    make_task,
    meta_state_from_json,
    meta_state_to_json,
    meta_train,
    split_support_query,
    split_task,
    write_meta_eval_csv,
)
from matchkit.momentum import MomentumConfig, momentum_series
from matchkit.neural import (
    NetConfig,
    ParallelNet,
    backward,
    forward_batch,
    huber_loss,
    init_adam_state,
    init_net,
    adam_step,
)


def tiny_net(**kw):
    base = dict(input_dim=1, hidden_dense=3, hidden_lstm=2, seq_len=3,
                dropout_rate=0.0, seed=0)
    base.update(kw)
    return NetConfig(**base)


def tiny_config(**kw):
    net = kw.pop("net", tiny_net())
    base = dict(net=net, meta_lr=0.01, inner_lr=0.05, inner_epochs=2,
                tasks_per_batch=2, meta_iterations=5, fine_tune_epochs=3, seed=0)
    base.update(kw)
    return MamlConfig(**base)


def linear_task(a, m, T, rng, name="task", dim=1):
    """One member of the y = a * (last input) family."""
    x = rng.normal(0, 1, (m, T, dim))
    y = a * x[:, -1, 0]
    return Task(match_id=name, x=x, y=y)


class TestSplitSupportQuery:
    def test_known_tournament_numbers(self):
        ids = [f"2023-wimbledon-{n}" for n in (1301, 1310, 1401, 1501, 1601, 1602, 1701)]
        support, query = split_support_query(ids)
        assert query == ("2023-wimbledon-1601", "2023-wimbledon-1602", "2023-wimbledon-1701")
        assert support == tuple(ids[:4])

    def test_bare_numbers(self):
        ids = list(range(1301, 1317)) + [1601, 1602, 1701]
        support, query = split_support_query(ids)
        assert set(query) == {1601, 1602, 1701}
        assert set(support) == set(range(1301, 1317))

    def test_unknown_ids_default_to_support(self):
        support, query = split_support_query(["practice-9999", "friendly"])
        assert support == ("practice-9999", "friendly")
        assert query == ()

    def test_explicit_partition_verbatim(self):
        ids = ["a", "b", "c"]
        support, query = split_support_query(ids, support=["b", "a"], query=["c"])
        assert support == ("b", "a")
        assert query == ("c",)

    def test_explicit_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            split_support_query(["a", "b"], support=["a", "b"], query=["b"])

    def test_explicit_must_cover(self):
        with pytest.raises(ValueError, match="neither"):
            split_support_query(["a", "b", "c"], support=["a"], query=["b"])

    def test_explicit_unknown_ids(self):
        with pytest.raises(ValueError, match="unknown"):
            split_support_query(["a", "b"], support=["a", "z"], query=["b"])

    def test_half_explicit_rejected(self):
        with pytest.raises(ValueError):
            split_support_query(["a"], support=["a"])

    def test_empty_ids(self):
        with pytest.raises(ValueError):
            split_support_query([])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            split_support_query(["a", "a"])

    def test_number_pools_are_disjoint(self):
        assert not (SUPPORT_MATCH_NUMBERS & QUERY_MATCH_NUMBERS)
        assert len(SUPPORT_MATCH_NUMBERS) == 16 + 8 + 4


class TestTasks:
    def test_make_task_standardizes_on_train_stats(self, match_300):
        mom = momentum_series(match_300, MomentumConfig())
        series = dbwp_scores(match_300, DbwpParams())
        cfg = tiny_config(net=tiny_net(input_dim=3, seq_len=6))
        task = make_task(match_300, series, mom, cfg)
        assert task.match_id == match_300.match_id
        assert task.x.shape[1:] == (6, 3)
        n_train = int(cfg.train_fraction * task.x.shape[0])
        assert abs(float(task.y[:n_train].mean())) < 1e-12
        assert float(task.y[:n_train].std()) == pytest.approx(1.0, rel=1e-9)

    def test_make_task_rejects_width_mismatch(self, match_300):
        mom = momentum_series(match_300, MomentumConfig())
        series = dbwp_scores(match_300, DbwpParams())
        cfg = tiny_config(net=tiny_net(input_dim=2, seq_len=6))
        with pytest.raises(ValueError, match="input_dim"):
            make_task(match_300, series, mom, cfg, variant="full")

    def test_split_task_boundaries(self):
        rng = np.random.default_rng(0)
        task = linear_task(0.5, 10, 3, rng)
        (xt, yt), (xv, yv) = split_task(task, 0.8)
        assert xt.shape[0] == 8 and xv.shape[0] == 2
        np.testing.assert_array_equal(np.concatenate([yt, yv]), task.y)

    def test_split_task_too_small(self):
        rng = np.random.default_rng(0)
        task = linear_task(0.5, 1, 3, rng)
        with pytest.raises(ValueError):
            split_task(task, 0.8)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task(match_id="bad", x=np.zeros((4, 3)), y=np.zeros(4))
        with pytest.raises(ValueError):
            Task(match_id="bad", x=np.zeros((4, 3, 1)), y=np.zeros(5))


class TestGdSteps:
    def test_quadratic_toy_trace(self):
        # loss (w - 3)^2, gradient 2(w - 3); from 0 with lr 0.1 the iterates
        # are 0.6, 1.08, 1.464.
        trace = []

        def grad_fn(params):
            trace.append(float(params["w"][0]))
            return {"w": 2.0 * (params["w"] - 3.0)}

        out = gd_steps({"w": np.array([0.0])}, grad_fn, 0.1, 3)
        trace.append(float(out["w"][0]))
        assert trace == pytest.approx([0.0, 0.6, 1.08, 1.464], abs=1e-12)

    def test_zero_steps_returns_copy(self):
        start = {"w": np.array([1.5])}
        out = gd_steps(start, lambda p: {"w": np.ones(1)}, 0.1, 0)
        assert out["w"] is not start["w"]
        np.testing.assert_array_equal(out["w"], start["w"])

    def test_does_not_mutate_input(self):
        start = {"w": np.array([2.0])}
        gd_steps(start, lambda p: {"w": np.ones(1)}, 0.5, 4)
        assert start["w"][0] == 2.0

    @pytest.mark.parametrize("lr, steps, name", [
        (np.nan, 2, "lr"), (np.inf, 2, "lr"), (-0.1, 2, "lr"),
        (0.1, -1, "steps"), (0.1, 2.0, "steps"),
    ])
    def test_bad_lr_and_steps(self, lr, steps, name):
        with pytest.raises(ValueError, match=name):
            gd_steps({"w": np.array([1.0])}, lambda p: {"w": np.ones(1)}, lr, steps)


class TestInnerAdapt:
    def test_zero_epochs_is_identity(self):
        cfg = tiny_config(inner_epochs=0)
        net = init_net(cfg.net)
        task = linear_task(0.7, 10, 3, np.random.default_rng(1))
        adapted = inner_adapt(net.params, task, cfg)
        for k in net.params:
            assert adapted[k] is not net.params[k]
            assert np.array_equal(adapted[k], net.params[k])

    def test_never_mutates_init(self):
        cfg = tiny_config(inner_epochs=3)
        net = init_net(cfg.net)
        before = {k: v.copy() for k, v in net.params.items()}
        task = linear_task(-0.4, 12, 3, np.random.default_rng(2))
        inner_adapt(net.params, task, cfg)
        for k in before:
            assert np.array_equal(net.params[k], before[k])

    def test_deterministic(self):
        cfg = tiny_config(inner_epochs=3)
        net = init_net(cfg.net)
        task = linear_task(0.9, 12, 3, np.random.default_rng(3))
        a = inner_adapt(net.params, task, cfg)
        b = inner_adapt(net.params, task, cfg)
        for k in a:
            assert np.array_equal(a[k], b[k])

    def test_reduces_training_mse(self):
        cfg = tiny_config(inner_epochs=5, inner_lr=0.05)
        net = init_net(cfg.net)
        task = linear_task(0.8, 20, 3, np.random.default_rng(4))
        (xt, yt), _ = split_task(task, cfg.train_fraction)
        before = float(np.mean((forward_batch(net, xt) - yt) ** 2))
        adapted = inner_adapt(net.params, task, cfg)
        after = float(np.mean((forward_batch(ParallelNet(adapted, cfg.net), xt) - yt) ** 2))
        assert after < before

    def test_too_small_task(self):
        cfg = tiny_config()
        net = init_net(cfg.net)
        task = linear_task(0.5, 1, 3, np.random.default_rng(5))
        with pytest.raises(ValueError):
            inner_adapt(net.params, task, cfg)


class TestMetaTrain:
    def make_tasks(self, n, seed=0, m=14):
        rng = np.random.default_rng(seed)
        return [linear_task(rng.uniform(-1, 1), m, 3, rng, f"s{k}") for k in range(n)]

    def test_zero_meta_lr_keeps_initial_params(self):
        cfg = tiny_config(meta_lr=0.0, meta_iterations=4)
        meta = meta_train(self.make_tasks(3), cfg)
        start = init_net(cfg.net)
        for k in start.params:
            assert np.array_equal(meta.params[k], start.params[k])

    def test_history_length_and_determinism(self):
        cfg = tiny_config(meta_iterations=6)
        tasks = self.make_tasks(4)
        a = meta_train(tasks, cfg)
        b = meta_train(tasks, cfg)
        assert len(a.loss_history) == 6
        assert a.loss_history == b.loss_history
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k])

    def test_requires_enough_tasks(self):
        cfg = tiny_config(tasks_per_batch=4)
        with pytest.raises(ValueError, match="batch"):
            meta_train(self.make_tasks(3), cfg)

    def test_identical_tasks_smoothed_monotone_loss(self):
        rng = np.random.default_rng(3)
        base = linear_task(0.7, 30, 6, rng, "same")
        tasks = [Task(match_id=f"c{k}", x=base.x, y=base.y) for k in range(4)]
        cfg = tiny_config(
            net=tiny_net(input_dim=1, hidden_dense=8, hidden_lstm=4, seq_len=6),
            meta_lr=0.005, inner_lr=0.05, inner_epochs=3,
            tasks_per_batch=4, meta_iterations=80,
        )
        meta = meta_train(tasks, cfg)
        smoothed = np.convolve(meta.loss_history, np.ones(5) / 5.0, "valid")
        assert np.all(np.diff(smoothed) <= 1e-9)

    def test_zero_inner_epochs_equals_plain_multitask_training(self):
        # With no inner adaptation the meta-update is an Adam step on the mean
        # validation-split gradient at the current parameters; replay that
        # reference loop and demand agreement.
        cfg = tiny_config(inner_epochs=0, meta_iterations=8, tasks_per_batch=2)
        tasks = self.make_tasks(3, seed=7)
        meta = meta_train(tasks, cfg)

        rng = np.random.default_rng(cfg.seed)
        params = init_net(cfg.net).params
        state = init_adam_state(cfg.net)
        for t in range(1, cfg.meta_iterations + 1):
            chosen = rng.choice(len(tasks), size=cfg.tasks_per_batch, replace=False)
            mean_grads = {k: np.zeros_like(v) for k, v in params.items()}
            for idx in chosen:
                _, (xv, yv) = split_task(tasks[int(idx)], cfg.train_fraction)
                _, grads = backward(ParallelNet(params, cfg.net), xv, yv,
                                    loss_kind="huber", train_mode=False)
                for k in mean_grads:
                    mean_grads[k] += grads[k]
            for k in mean_grads:
                mean_grads[k] /= cfg.tasks_per_batch
            params, state = adam_step(params, mean_grads, state, t, cfg.net,
                                      lr=cfg.meta_lr)
        for k in params:
            np.testing.assert_allclose(meta.params[k], params[k], atol=1e-8)

    def test_first_order_direction_agrees_with_exact_meta_gradient(self):
        # The exact meta-gradient differentiates through the whole inner loop;
        # compute it by central differences and check the first-order
        # surrogate points the same way (positive cosine) on small nets.
        def exact_fd_grad(params, task, cfg, h=1e-5):
            def phi():
                adapted = inner_adapt(params, task, cfg)
                _, (xv, yv) = split_task(task, cfg.train_fraction)
                residual = forward_batch(ParallelNet(adapted, cfg.net), xv) - yv
                return float(np.mean([huber_loss(float(r), cfg.net.huber_delta)
                                      for r in residual]))

            out = {}
            for name, arr in params.items():
                grad = np.zeros_like(arr)
                flat, gflat = arr.reshape(-1), grad.reshape(-1)
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    lp = phi()
                    flat[i] = orig - h
                    lm = phi()
                    flat[i] = orig
                    gflat[i] = (lp - lm) / (2 * h)
                out[name] = grad
            return out

        positive = 0
        trials = 10
        for trial in range(trials):
            rng = np.random.default_rng(50 + trial)
            net_cfg = tiny_net(seed=trial)
            assert sum(v.size for v in init_net(net_cfg).params.values()) <= 100
            cfg = tiny_config(net=net_cfg, inner_lr=0.05, inner_epochs=3,
                              tasks_per_batch=1, meta_iterations=1, seed=trial)
            task = linear_task(rng.uniform(-1, 1), 15, 3, rng)
            params = {k: v + rng.normal(0, 0.3, v.shape)
                      for k, v in init_net(net_cfg).params.items()}
            adapted = inner_adapt(params, task, cfg)
            _, (xv, yv) = split_task(task, cfg.train_fraction)
            _, first_order = backward(ParallelNet(adapted, cfg.net), xv, yv,
                                      loss_kind="huber")
            exact = exact_fd_grad(params, task, cfg)
            a = np.concatenate([first_order[k].ravel() for k in first_order])
            b = np.concatenate([exact[k].ravel() for k in first_order])
            cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
            if cos > 0:
                positive += 1
        assert positive >= 9

    def test_meta_state_requires_finite_params(self):
        cfg = tiny_config()
        params = init_net(cfg.net).params
        params["rw"] = np.array([[np.inf], [0.0]])
        with pytest.raises(ValueError, match="finite"):
            MetaState(params=params, loss_history=(1.0,), config=cfg)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="helpers are forked")


def uneven_tasks(sizes, seed=0):
    rng = np.random.default_rng(seed)
    return [linear_task(rng.uniform(-1, 1), m, 3, rng, f"u{k}") for k, m in enumerate(sizes)]


def assert_same_meta(a, b):
    assert a.loss_history == b.loss_history
    for k in a.params:
        assert a.params[k].tobytes() == b.params[k].tobytes(), k


class TestHelpers:
    @needs_fork
    @pytest.mark.parametrize("helpers", [1, 2, 3])
    def test_helpers_give_the_serial_result_bit_for_bit(self, monkeypatch, helpers):
        tasks = uneven_tasks([9, 31, 14, 52, 6, 23])
        cfg = tiny_config(tasks_per_batch=4, meta_iterations=12)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 0)
        serial = meta_train(tasks, cfg)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: helpers)
        assert_same_meta(meta_train(tasks, cfg), serial)
        assert multiprocessing.active_children() == []

    def test_helper_count(self):
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert _fork._helper_count(1) == 0
        if hasattr(os, "fork"):
            assert _fork._helper_count(4) == min(cores, 4) - 1
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:  # fork would copy only this thread
            assert _fork._helper_count(4) == 0
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()

    @needs_fork
    def test_failing_task_in_a_helper_raises_the_serial_error(self, monkeypatch):
        # Tasks u1 and u3 both fail, and the one drawn first names the error,
        # whichever process ran it.  The seeds make each the earliest drawn,
        # and in some the earliest runs in the helper while a later one runs
        # here, where the main process sees its own failure first.
        tasks = uneven_tasks([40, 30, 20, 10])
        for k in (1, 3):
            tasks[k].x[0, 0, 0] = np.nan
        messages, places = set(), set()
        for seed in range(6):
            cfg = tiny_config(tasks_per_batch=4, seed=seed)
            chosen = list(np.random.default_rng(seed).choice(4, size=4, replace=False))
            # with two processes, even draw positions run here, odd in the helper
            places.add(tuple(chosen.index(k) % 2 for k in sorted((1, 3), key=chosen.index)))
            errors = []
            for helpers in (0, 1):
                monkeypatch.setattr(_fork, "_helper_count", lambda n, h=helpers: h)
                with pytest.raises(ValueError, match="non-finite loss") as info:
                    meta_train(tasks, cfg)
                errors.append(str(info.value))
            assert errors[0] == errors[1]
            messages.add(errors[0])
        assert messages == {"meta-training diverged: task 'u1' has a non-finite loss",
                            "meta-training diverged: task 'u3' has a non-finite loss"}
        assert (1, 0) in places
        assert multiprocessing.active_children() == []

    @needs_fork
    @pytest.mark.parametrize("fault", ["pipe", "fork"])
    def test_failed_pipe_or_fork_runs_with_the_helpers_started(self, monkeypatch, fault):
        tasks = uneven_tasks([9, 31, 14, 52, 6, 23])
        cfg = tiny_config(tasks_per_batch=4, meta_iterations=6)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 0)
        serial = meta_train(tasks, cfg)
        context = multiprocessing.get_context("fork")
        pipe, start = context.Pipe, context.Process.start
        pipes, forks = [], []

        def pipe_or_fail(*args):
            if fault == "pipe" and pipes:
                raise OSError(errno.EMFILE, "Too many open files")
            pipes.append(pipe(*args))
            return pipes[-1]

        def start_or_fail(process):
            if fault == "fork" and forks:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            forks.append(process)
            start(process)

        monkeypatch.setattr(context, "Pipe", pipe_or_fail)
        monkeypatch.setattr(context.Process, "start", start_or_fail)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 3)
        assert_same_meta(meta_train(tasks, cfg), serial)
        assert len(forks) == 1
        assert all(end.closed for ends in pipes for end in ends)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_helper_that_dies_is_a_child_process_error(self, monkeypatch):
        main = os.getpid()
        task_gradient = maml._task_gradient

        def dies_in_a_helper(params, task, config):
            if os.getpid() != main:
                os._exit(3)
            return task_gradient(params, task, config)

        monkeypatch.setattr(maml, "_task_gradient", dies_in_a_helper)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 1)
        with pytest.raises(ChildProcessError,
                           match="^a meta-training helper process ended unexpectedly$"):
            meta_train(uneven_tasks([12, 18, 15]), tiny_config())
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_diverging_run_is_a_value_error_in_either_process(self, monkeypatch):
        # Task u2 overflows.  A helper's numpy warnings are errors here
        # (pyproject's filterwarnings), so a helper without np.errstate fails
        # this when it runs u2; the seeds put u2 in each process.
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 1)
        tasks = uneven_tasks([12, 18, 15, 20])
        tasks[2].x[...] *= 1e300
        places = set()
        for seed in range(6):
            chosen = list(np.random.default_rng(seed).choice(4, size=4, replace=False))
            places.add(chosen.index(2) % 2)  # 0: the main process, 1: the helper
            with pytest.raises(ValueError, match="meta-training diverged: task 'u2'"):
                meta_train(tasks, tiny_config(tasks_per_batch=4, seed=seed))
        assert places == {0, 1}
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_interrupt_ends_busy_helpers(self, monkeypatch):
        main = os.getpid()

        def interrupted_here(params, tasks, indices, config):
            if os.getpid() == main:
                raise KeyboardInterrupt
            time.sleep(60)  # a helper still computing must be killed, not awaited

        monkeypatch.setattr(maml, "_run_tasks", interrupted_here)
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 2)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            meta_train(uneven_tasks([12, 18, 15, 20]), tiny_config(tasks_per_batch=3))
        assert time.monotonic() - started < 30
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_daemonic_process_runs_its_tasks_itself(self, monkeypatch):
        # a multiprocessing pool's workers are daemonic and may not start children
        tasks, cfg = uneven_tasks([12, 18, 15]), tiny_config()
        monkeypatch.setattr(_fork, "_helper_count", lambda n: 1)
        context = multiprocessing.get_context("fork")
        ours, theirs = context.Pipe()

        def run():
            theirs.send(meta_train(tasks, cfg).loss_history)

        worker = context.Process(target=run, daemon=True)
        worker.start()
        try:
            assert ours.poll(60)
            history = ours.recv()
        finally:
            worker.join(timeout=60)
            ours.close()
            theirs.close()
        assert not worker.is_alive()
        assert history == meta_train(tasks, cfg).loss_history


class TestFineTuneAndEval:
    def test_zero_epochs_zero_targets_zero_init(self):
        cfg = tiny_config(fine_tune_epochs=0)
        params = {k: np.zeros_like(v) for k, v in init_net(cfg.net).params.items()}
        meta = MetaState(params=params, loss_history=(), config=cfg)
        rng = np.random.default_rng(6)
        task = Task(match_id="z", x=rng.normal(0, 1, (10, 3, 1)), y=np.zeros(10))
        assert fine_tune_and_eval(meta, task, cfg) == 0.0

    def test_meta_init_beats_scratch_on_linear_family_single_trial(self):
        trial = 0
        rng = np.random.default_rng(1000 + trial)
        net = NetConfig(input_dim=1, hidden_dense=8, hidden_lstm=4, seq_len=6,
                        dropout_rate=0.0, seed=trial)
        cfg = MamlConfig(net=net, meta_lr=0.01, inner_lr=0.05, inner_epochs=3,
                         tasks_per_batch=4, meta_iterations=100,
                         fine_tune_epochs=5, seed=trial)
        tasks = [linear_task(rng.uniform(-1, 1), 30, 6, rng, f"s{k}") for k in range(6)]
        meta = meta_train(tasks, cfg)
        query = linear_task(rng.uniform(-1, 1), 30, 6, rng, "q")
        row = evaluate_queries(meta, [query], cfg)[0]
        assert row.maml_mse < row.scratch_mse
        assert row.maml_mse == pytest.approx(fine_tune_and_eval(meta, query, cfg))

    def test_fine_tune_uses_inner_operator(self):
        # fine_tune_epochs steps of GD at inner_lr: replaying gd_steps by hand
        # must give the same MSE.
        cfg = tiny_config(fine_tune_epochs=4, inner_lr=0.05)
        net = init_net(cfg.net)
        meta = MetaState(params=net.params, loss_history=(), config=cfg)
        task = linear_task(0.6, 15, 3, np.random.default_rng(8))
        (xt, yt), (xv, yv) = split_task(task, cfg.train_fraction)

        def grad_fn(params):
            return backward(ParallelNet(params, cfg.net), xt, yt,
                            loss_kind="mse")[1]

        tuned = gd_steps(net.params, grad_fn, cfg.inner_lr, cfg.fine_tune_epochs)
        expected = float(np.mean((forward_batch(ParallelNet(tuned, cfg.net), xv) - yv) ** 2))
        assert fine_tune_and_eval(meta, task, cfg) == expected


class TestSerializationAndReports:
    def test_meta_state_json_round_trip(self):
        cfg = tiny_config(meta_iterations=3, tasks_per_batch=2)
        rng = np.random.default_rng(11)
        tasks = [linear_task(rng.uniform(-1, 1), 10, 3, rng, f"s{k}") for k in range(2)]
        meta = meta_train(tasks, cfg)
        text = meta_state_to_json(meta)
        back = meta_state_from_json(text)
        assert back.loss_history == meta.loss_history
        assert back.config == meta.config
        for k in meta.params:
            np.testing.assert_array_equal(back.params[k], meta.params[k])
        assert meta_state_to_json(back) == text

    @pytest.mark.parametrize("version", [1, 3])
    def test_version_guard(self, version):
        with pytest.raises(ValueError, match="version"):
            meta_state_from_json(json.dumps({"format_version": version}))

    @staticmethod
    def _state_doc():
        cfg = tiny_config()
        meta = MetaState(params=init_net(cfg.net).params, loss_history=(0.5, 0.25),
                         config=cfg)
        return json.loads(meta_state_to_json(meta))

    def _load_edited(self, edit):
        doc = self._state_doc()
        edit(doc)
        return meta_state_from_json(json.dumps(doc))

    def test_negative_meta_lr_rejected(self):
        with pytest.raises(ValueError, match="meta_lr must be >= 0"):
            self._load_edited(lambda d: d["config"].update(meta_lr=-1))

    def test_wrong_param_shape_rejected(self):
        with pytest.raises(ValueError, match=r"params\['lstm_u'\] must be a number array of shape \(2, 8\)"):
            self._load_edited(lambda d: d["params"].update(lstm_u=[[0.0]]))

    def test_missing_param_rejected(self):
        with pytest.raises(ValueError, match="params is missing array 'rw'"):
            self._load_edited(lambda d: d["params"].pop("rw"))

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="params has unknown arrays: extra"):
            self._load_edited(lambda d: d["params"].update(extra=[0.0]))

    @pytest.mark.parametrize("value", [[["x", "y"]], [[0.5, None]], [[True, False]], [[0.5], []]])
    def test_non_numeric_param_rejected(self, value):
        with pytest.raises(ValueError, match=r"params\['rw'\] must be a number array"):
            self._load_edited(lambda d: d["params"].update(rw=value))

    def test_non_finite_param_rejected(self):
        def edit(doc):
            doc["params"]["rb"] = [float("nan")]
        with pytest.raises(ValueError, match="meta parameter 'rb' is not finite"):
            self._load_edited(edit)

    @pytest.mark.parametrize("history", [["x"], [0.5, float("nan")], [float("inf")], [True], 0.5,
                                         [10**400]])
    def test_bad_loss_history_rejected(self, history):
        with pytest.raises(ValueError, match="loss_history must be a list of finite numbers"):
            self._load_edited(lambda d: d.update(loss_history=history))

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="config has unknown keys: bogus"):
            self._load_edited(lambda d: d["config"].update(bogus=1))

    def test_unknown_net_key_rejected(self):
        with pytest.raises(ValueError, match="config.net has unknown keys: bogus"):
            self._load_edited(lambda d: d["config"]["net"].update(bogus=1))

    @pytest.mark.parametrize("key", ["seed", "net", "meta_lr"])
    def test_missing_config_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"config is missing keys: {key}"):
            self._load_edited(lambda d: d["config"].pop(key))

    def test_missing_net_key_rejected(self):
        with pytest.raises(ValueError, match="config.net is missing keys: seq_len"):
            self._load_edited(lambda d: d["config"]["net"].pop("seq_len"))

    def test_net_config_is_checked(self):
        with pytest.raises(ValueError, match="hidden_lstm must be >= 1"):
            self._load_edited(lambda d: d["config"]["net"].update(hidden_lstm=0))

    def test_non_numeric_config_value_rejected(self):
        with pytest.raises(ValueError, match="inner_lr must be a number"):
            self._load_edited(lambda d: d["config"].update(inner_lr="0.1"))

    @pytest.mark.parametrize("field", ["config", "params", "loss_history"])
    def test_missing_top_level_field_rejected(self, field):
        with pytest.raises(ValueError, match=f"meta state document missing fields: {field}"):
            self._load_edited(lambda d: d.pop(field))

    @pytest.mark.parametrize("field", ["config", "params"])
    def test_field_must_be_an_object(self, field):
        with pytest.raises(ValueError, match=f"{field} must be a JSON object"):
            self._load_edited(lambda d: d.update({field: []}))

    def test_document_must_be_an_object(self):
        with pytest.raises(ValueError, match="meta state document must be a JSON object"):
            meta_state_from_json("[2]")

    def test_meta_eval_csv(self):
        rows = (QueryEval("m-1601", 0.25, 0.5), QueryEval("m-1701", 0.125, 1.0))
        buf = io.StringIO()
        write_meta_eval_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "match_id,maml_mse,scratch_mse"
        assert lines[1] == "m-1601,0.25,0.5"
        assert len(lines) == 3


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(meta_lr=-1e-4), dict(inner_lr=0.0), dict(inner_epochs=-1),
        dict(fine_tune_epochs=-1), dict(tasks_per_batch=0),
        dict(meta_iterations=0), dict(train_fraction=0.0),
        dict(train_fraction=1.0),
        dict(meta_lr=float("nan")), dict(meta_lr=float("inf")),
        dict(inner_lr=float("nan")), dict(inner_lr=float("inf")),
        dict(train_fraction=float("nan")),
        dict(inner_epochs=1.5), dict(fine_tune_epochs=2.0), dict(tasks_per_batch=2.5),
        dict(meta_iterations=5.0), dict(seed=1.5),
    ])
    def test_bad_fields(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            tiny_config(**kw).check()

    def test_zero_meta_lr_is_legal(self):
        tiny_config(meta_lr=0.0).check()

    def test_zero_epoch_counts_are_legal(self):
        tiny_config(inner_epochs=0, fine_tune_epochs=0).check()
