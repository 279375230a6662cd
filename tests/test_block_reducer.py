"""``rng.reduce_blocks``: Monte Carlo blocks scored on every core.

Every Monte Carlo result must equal, to the bit, the sequential loop over
``rng.blocks`` that it replaced, on one core and on many; a failing block
must raise what that loop raised; and no call may start more than
``min(cores, blocks) - 1`` helper threads or leave one running.
"""

import os
import sys
import threading
import time

import numpy as np
import pytest

from conjrisk import (
    AdditiveGaussianRule,
    Ball,
    Complement,
    Ellipsoid,
    EllipsoidSet,
    HalfSpace,
    InputValidationError,
    detection_curve,
    false_confidence_demo,
    gaussian_region_rule,
    gaussian_sampling_model,
    validity_check,
)
from conjrisk import rng as rngmod
from conjrisk import validity
from conjrisk.detection import critical_displacement, default_threshold_grid
from conjrisk.validity import halfwidth_in_sigmas

FOUR_BLOCKS = 3 * rngmod.BLOCK_SIZE + 3392  # 200000 trials


def _set_cores(monkeypatch, cores):
    """Make ``reduce_blocks`` see ``cores`` cores; ``None`` keeps the real
    count. On one core no thread may start."""
    if cores is None:
        return
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    if cores == 1:
        def forbidden(self):
            raise AssertionError("a thread started on one core")

        monkeypatch.setattr(threading.Thread, "start", forbidden)


def _spy(monkeypatch):
    """Record every sum ``reduce_blocks`` returns."""
    sums = []
    reduce = rngmod.reduce_blocks

    def spied(seed, n_trials, score):
        sums.append(reduce(seed, n_trials, score))
        return sums[-1]

    monkeypatch.setattr(rngmod, "reduce_blocks", spied)
    return sums


def _count_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def counted(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def _block_index(gen):
    return gen.bit_generator.seed_seq.spawn_key[0]


def _sequential_hits(rule, model, props, alphas, n_trials, seed):
    """The block loop ``validity_check`` ran before the reducer."""
    levels = np.array(alphas)
    hits = np.zeros((len(levels), len(props)), dtype=np.int64)
    for gen, count in rngmod.blocks(seed, n_trials):
        xs = model(gen, count)
        for j, prop in enumerate(props):
            hits[:, j] += rule.hits(xs, prop, levels)
    return hits


def _library_case(name):
    """(rule, model, theta, false propositions, levels, trials, seed)."""
    if name == "false-confidence":
        radius = halfwidth_in_sigmas(0.3, 1.0)
        return (AdditiveGaussianRule([[1.0]]), gaussian_sampling_model([0.0], [[1.0]]),
                [0.0], [Complement(Ball(center=[0.0], radius=radius))], [0.05],
                FOUR_BLOCKS, 7)
    if name in ("additive", "ksigma"):
        sigma = 0.8
        rule = (AdditiveGaussianRule if name == "additive" else gaussian_region_rule)([[sigma**2]])
        family = [Complement(Ball(center=[0.0], radius=r)) for r in (0.02, 0.3)]
        family.append(HalfSpace(normal=[1.0], offset=-0.4))
        return (rule, gaussian_sampling_model([0.0], [[sigma**2]]), [0.0], family,
                [0.01, 0.05, 0.2], 2 * rngmod.BLOCK_SIZE + 1000, 11)
    cov = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.2], [0.0, 0.2, 0.5]])
    theta = np.array([0.5, -1.0, 2.0])
    normal = np.array([1.0, 0.5, -0.25])
    family = [
        Complement(Ball(center=theta, radius=0.15)),
        HalfSpace(normal=normal, offset=float(normal @ theta) - 0.7),
        EllipsoidSet(Ellipsoid(center=theta + np.array([4.0, 0.0, 0.0]),
                               axes=np.eye(3), semi_lengths=np.full(3, 3.0))),
    ]
    return (gaussian_region_rule(cov), gaussian_sampling_model(theta, cov), theta, family,
            [0.05], 2 * rngmod.BLOCK_SIZE + 1000, 13)


@pytest.mark.parametrize("cores", [None, 1, 4])
@pytest.mark.parametrize("case", ["false-confidence", "additive", "ksigma", "ksigma-3d"])
def test_validity_hits_equal_the_sequential_loop(monkeypatch, case, cores):
    rule, model, theta, family, alphas, n_trials, seed = _library_case(case)
    reference = _sequential_hits(rule, model, family, alphas, n_trials, seed)
    _set_cores(monkeypatch, cores)
    sums = _spy(monkeypatch)
    if case == "false-confidence":
        report = false_confidence_demo(1.0, 0.3, 0.05, n_trials, seed)
        rates = (report.empirical_rate,)
    else:
        rates = validity_check(rule, model, theta, family, alphas, n_trials, seed).rates
    assert len(sums) == 1
    assert sums[0].dtype == np.int64 and np.array_equal(sums[0], reference)
    assert rates == tuple((reference / n_trials).max(axis=1))


@pytest.mark.parametrize("cores", [None, 1, 4])
def test_monte_carlo_curve_hits_equal_the_sequential_loop(monkeypatch, cores):
    s, d, n_trials, seed = 0.5, 0.8, 10**6, 3
    u_crit = np.nan_to_num(critical_displacement(default_threshold_grid(), s))
    reference = np.zeros(u_crit.size, dtype=np.int64)
    for gen, count in rngmod.blocks(seed, n_trials):
        xi = gen.standard_normal((count, 2))
        reference += np.searchsorted(np.sort(np.hypot(d / s + xi[:, 0], xi[:, 1])), u_crit,
                                     side="right")
    _set_cores(monkeypatch, cores)
    sums = _spy(monkeypatch)
    curve = detection_curve(s, d, method="monte-carlo", n_trials=n_trials, seed=seed)
    assert len(sums) == 1 and np.array_equal(sums[0], reference)
    assert [p for _, p in curve.points] == [1.0 - h / n_trials for h in reference]


def test_single_block_starts_no_thread(monkeypatch):
    _set_cores(monkeypatch, 64)
    started = _count_starts(monkeypatch)
    total = rngmod.reduce_blocks(5, rngmod.BLOCK_SIZE, lambda gen, n: np.array([n]))
    assert total.tolist() == [rngmod.BLOCK_SIZE] and not started


def test_helper_threads_capped_by_the_blocks(monkeypatch):
    # 64 cores, 4 blocks: the calling thread and at most 3 helpers
    _set_cores(monkeypatch, 64)
    started = _count_starts(monkeypatch)
    scorers = set()

    def score(gen, n):
        scorers.add(threading.get_ident())
        return np.array([n, 1])

    before = threading.active_count()
    total = rngmod.reduce_blocks(5, FOUR_BLOCKS, score)
    assert total.tolist() == [FOUR_BLOCKS, 4]
    assert len(started) <= 3 and len(scorers) <= 4
    assert threading.active_count() == before
    assert not any(thread.is_alive() for thread in started)


def test_core_count_falls_back_to_cpu_count(monkeypatch):
    # no affinity call, and a core count the platform cannot tell: one core
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    started = _count_starts(monkeypatch)
    total = rngmod.reduce_blocks(5, FOUR_BLOCKS, lambda gen, n: np.array([n]))
    assert total.tolist() == [FOUR_BLOCKS] and not started


class TestFailingBlock:
    @staticmethod
    def _failing_model(fail):
        """A 1-D model whose block ``i`` fails as ``fail[i]`` says: "raise"
        raises ``ValueError``, "short" returns one row too few, and a number
        sleeps that long before raising."""
        draw = gaussian_sampling_model([0.0], [[1.0]])
        scored = []

        def model(gen, n):
            index = _block_index(gen)
            scored.append(index)
            how = fail.get(index)
            if isinstance(how, float):
                time.sleep(how)
                how = "raise"
            if how == "raise":
                raise ValueError(f"model failed on block {index}")
            return draw(gen, n - 1 if how == "short" else n)

        return model, scored

    def _run(self, monkeypatch, cores, fail):
        model, scored = self._failing_model(fail)
        before = threading.active_count()
        with monkeypatch.context() as patch, pytest.raises(Exception) as info:
            _set_cores(patch, cores)
            validity_check(AdditiveGaussianRule([[1.0]]), model, [0.0],
                           [Complement(Ball(center=[0.0], radius=0.1))], [0.05],
                           FOUR_BLOCKS, 21)
        assert threading.active_count() == before
        return type(info.value), str(info.value), scored

    @pytest.mark.parametrize("fail", [{2: "raise"}, {2: "short"}, {2: 0.2, 3: "raise"}],
                             ids=["raises", "wrong-rows", "later-block-fails-first"])
    def test_raises_what_the_sequential_loop_raises(self, monkeypatch, fail):
        # the lowest-index failure, whichever block failed first in time
        sequential = self._run(monkeypatch, 1, fail)
        assert sequential[2] == [0, 1, 2]
        parallel = self._run(monkeypatch, 4, fail)
        assert parallel[:2] == sequential[:2]
        expected = (InputValidationError, "sampling_model returned wrong number of realizations") \
            if fail[2] == "short" else (ValueError, "model failed on block 2")
        assert sequential[:2] == expected

    def test_no_block_is_taken_after_a_failure(self, monkeypatch):
        # two threads: block 0 is still being scored when block 1 fails, and
        # the thread scoring it stops there instead of taking block 2
        failed = threading.Event()
        taken = []

        def score(gen, n):
            taken.append(_block_index(gen))
            if taken[-1] == 1:
                failed.set()
                raise ValueError("block 1")
            assert failed.wait(5.0)
            time.sleep(0.05)
            return np.array([n])

        _set_cores(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match="block 1"):
            rngmod.reduce_blocks(3, 8 * rngmod.BLOCK_SIZE, score)
        assert sorted(taken) == [0, 1]
        assert threading.active_count() == before

    def test_errstate_does_not_reach_helper_threads(self, monkeypatch):
        # np.errstate is a context variable (numpy 2.x), and a new thread
        # starts from the default context: an error state the score needs
        # is entered inside it, never around the reducer
        _set_cores(monkeypatch, 2)
        meet = threading.Barrier(2, timeout=5.0)
        seen = {}

        def score(gen, n):
            meet.wait()  # each of the two threads scores one block
            seen[threading.get_ident()] = np.geterr()["divide"]
            with np.errstate(divide="ignore"):
                return np.array([np.isinf(np.log(np.zeros(n))).sum()])

        with np.errstate(divide="ignore"):
            total = rngmod.reduce_blocks(3, 2 * rngmod.BLOCK_SIZE, score)
        assert total.tolist() == [2 * rngmod.BLOCK_SIZE]
        main = threading.get_ident()
        assert seen.pop(main) == "ignore"
        assert list(seen.values()) == [np.geterr()["divide"]] == ["warn"]


class TestBandEdgeCache:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Every ``_band_edge`` solve, slowed so that blocks scored at once
        would both reach an unsolved edge; many workers, fast switching."""
        calls = []
        solve = validity._band_edge

        def counted(w, alpha):
            calls.append((w, alpha))
            time.sleep(0.01)
            return solve(w, alpha)

        monkeypatch.setattr(validity, "_band_edge", counted)
        _set_cores(monkeypatch, 64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            yield calls
        finally:
            sys.setswitchinterval(interval)

    def test_false_confidence_solves_its_edge_once(self, solves):
        report = false_confidence_demo(1.0, 0.3, 0.05, FOUR_BLOCKS, 7)
        assert solves == [(0.3, 0.05)]
        assert 0.0 < report.empirical_rate < 1.0

    def test_validity_check_solves_each_level_once(self, solves):
        levels = [0.01, 0.05, 0.2]
        validity_check(AdditiveGaussianRule([[1.0]]), gaussian_sampling_model([0.0], [[1.0]]),
                       [0.0], [Complement(Ball(center=[0.0], radius=0.02))], levels,
                       2 * rngmod.BLOCK_SIZE + 1000, 17)
        assert sorted(solves) == [(0.02, a) for a in levels]
