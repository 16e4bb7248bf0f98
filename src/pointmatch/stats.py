"""Seeded Monte Carlo ensembles, their summaries, and scaling-law fits.

`run_ensemble` and the CLI's per-instance loops run through `map_trials`:
trial t of a run gets seed `trial_seeds(master, count)[t]`. With w workers (by
default one per CPU this process may run on) the trials are cut into w
contiguous shares: this process runs share 0 and w - 1 forked children run the
rest, and only the results are pickled back. Results come back in trial order.
Each trial depends on its seed alone, so outputs are bit-identical for every
worker count.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import queue
import signal
import threading
import traceback
from dataclasses import dataclass

import numpy as np

from .geometry import substream_seed


class TrialError(RuntimeError):
    """A trial observable failed; carries the trial index and seed."""

    def __init__(self, trial: int, seed: int, cause: str):
        # args hold the constructor's arguments, so the error pickles back from a forked child
        super().__init__(trial, seed, cause)
        self.trial = trial
        self.seed = seed
        self.cause = cause

    def __str__(self) -> str:
        return f"trial {self.trial} (seed {self.seed}) failed: {self.cause}"


def default_workers() -> int:
    """The CPUs this process may run on (the CPU count where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class EnsembleConfig:
    trials: int
    master_seed: int
    workers: int | None = None  # None: default_workers()


@dataclass(frozen=True)
class TrialEnsemble:
    """A seeded ensemble's observations in trial order, summarised by numpy reductions."""

    master_seed: int
    observations: np.ndarray

    @property
    def trials(self) -> int:
        return self.observations.size

    @property
    def mean(self) -> float:
        return float(np.mean(self.observations))

    @property
    def variance(self) -> float:  # unbiased (ddof=1); 0 for a single trial
        return float(np.var(self.observations, ddof=1)) if self.trials > 1 else 0.0

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.trials)


def trial_seeds(master_seed: int, count: int) -> list:
    """The seeds of trials 0..count-1 of a run: trial t gets substream t of the master seed."""
    return [substream_seed(master_seed, t) for t in range(count)]


def _run_trial(observable, trial: int, seed: int):
    try:
        return observable(seed)
    except TrialError:
        raise
    except Exception as exc:  # noqa: BLE001 - surfaced with the failing seed
        raise TrialError(trial, seed, repr(exc)) from exc


def _write_pickles(pickles: queue.SimpleQueue, out) -> None:
    for payload in iter(pickles.get, None):
        out.write(payload)


class _Child:
    """A forked child that runs trials lo..hi-1 and pickles each result to a pipe."""

    def __init__(self, observable, seeds: list, lo: int, hi: int):
        self.seeds, self.lo, self.hi = seeds, lo, hi
        self.running = memoryview(mmap.mmap(-1, 8)).cast("q")  # shared with the child: its current trial
        self.running[0] = lo
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as out:
                    self._run(observable, out)
                status = 0
            except Exception:  # noqa: BLE001 - shown here; the parent names the trial
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")
        self.reaped = False

    def _run(self, observable, out) -> None:
        """In the child: one pickle per result, stopping after the first TrialError, which is pickled instead.

        A thread writes the pickles, so the trials need not wait for a parent
        that reads this share after its own.
        """
        pickles = queue.SimpleQueue()
        writer = threading.Thread(target=_write_pickles, args=(pickles, out))
        writer.start()
        try:
            for t in range(self.lo, self.hi):
                self.running[0] = t
                try:
                    result = _run_trial(observable, t, self.seeds[t])
                except TrialError as err:
                    pickles.put(pickle.dumps(err))
                    break
                pickles.put(pickle.dumps(result, pickle.HIGHEST_PROTOCOL))
        finally:
            pickles.put(None)
            writer.join()

    def results(self):
        """Yield the child's results in trial order and raise its TrialError.

        If the pipe ends early, the child died: the error names the trial it
        was running, whose seed reproduces the death.
        """
        for _ in range(self.lo, self.hi):
            try:
                result = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                code = self._wait()
                t = self.running[0]
                raise TrialError(t, self.seeds[t], f"worker exited with status {code}") from None
            if isinstance(result, TrialError):
                raise result
            yield result

    def _wait(self) -> int:
        """Reap the child; its exit code, -n if signal n killed it."""
        self.pipe.close()
        self.reaped = True
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def stop(self) -> None:
        if not self.reaped:
            os.kill(self.pid, signal.SIGKILL)
            self._wait()


def map_trials(observable, seeds, workers: int | None = None):
    """Yield observable(seed) for each seed, in order; trial t is seeds[t].

    With w = min(workers, trials) > 1 (workers None: default_workers()) the
    trials are cut into w contiguous shares. This process runs share 0 and
    yields its results as they come; w - 1 forked children run the others,
    each pickling its results one by one to a pipe that is read in trial
    order. The children inherit the observable, so only results need to
    pickle. With one worker, or where os.fork does not exist, the trials run
    in this process. The first failing trial raises TrialError, and so does
    the trial a child dies in. Children still running when the map ends,
    fails or is closed are killed and reaped.
    """
    seeds = list(seeds)
    workers = min(default_workers() if workers is None else workers, len(seeds))
    if workers <= 1 or not hasattr(os, "fork"):
        for t, seed in enumerate(seeds):
            yield _run_trial(observable, t, seed)
        return
    cuts = [len(seeds) * i // workers for i in range(workers + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            children.append(_Child(observable, seeds, lo, hi))
        for t in range(cuts[1]):
            yield _run_trial(observable, t, seeds[t])
        for child in children:
            yield from child.results()
    finally:
        for child in children:
            child.stop()


def run_ensemble(config: EnsembleConfig, observable) -> TrialEnsemble:
    """Evaluate observable(seed) over independent per-trial substreams.

    The trials get trial_seeds(master_seed, trials) and are gathered in trial
    order, so the observations, and the mean and variance numpy reduces them
    to, are bit-identical across runs and worker counts.
    """
    if config.trials < 2:
        raise ValueError("an ensemble needs at least 2 trials")
    seeds = trial_seeds(config.master_seed, config.trials)
    values = [float(v) for v in map_trials(observable, seeds, config.workers)]
    return TrialEnsemble(master_seed=config.master_seed, observations=np.array(values))


def scaling_shape(n: int, dim: int) -> float:
    """Theoretical growth factor g(N) with E[cost] ~ c * r^2 * g(N)."""
    if dim == 1:
        return float(n)
    if dim == 2:
        return math.log(n)
    return 1.0


def scaling_model_name(dim: int) -> str:
    return {1: "linear-in-N", 2: "linear-in-lnN"}.get(dim, "constant")


@dataclass(frozen=True)
class ScalingFit:
    model: str
    constant: float
    n_values: tuple
    per_point_constants: tuple
    ratio: float  # max/min of per-point constants
    slope_vs_log: float  # OLS slope of c(N) against ln N
    slope_over_mean: float


def fit_scaling(points, dim: int, side: float = 1.0) -> ScalingFit:
    """Fit E[cost] = c * r^2 * g(N) and report per-point constants.

    `points` is a sequence of (N, mean cost). The per-point constants
    c(N) = mean / (r^2 g(N)) expose the quality of the shape: their max/min
    ratio and their drift against ln N are the diagnostics the scaling
    experiments assert on.
    """
    pts = sorted((int(n), float(m)) for n, m in points)
    if len({n for n, _ in pts}) < 3:
        raise ValueError("need at least 3 distinct N values")
    if any(m <= 0 for _, m in pts):
        raise ValueError("mean costs must be positive")
    if dim == 2 and any(n < 2 for n, _ in pts):
        raise ValueError("d = 2 shape ln N requires N >= 2")
    ns = np.array([n for n, _ in pts], dtype=np.float64)
    means = np.array([m for _, m in pts])
    r_sq = (side * ns ** (-1.0 / dim)) ** 2
    g = np.array([scaling_shape(int(n), dim) for n in ns])
    constants = means / (r_sq * g)
    slope, _ = np.polyfit(np.log(ns), constants, 1)
    c_bar = float(constants.mean())
    return ScalingFit(
        model=scaling_model_name(dim),
        constant=c_bar,
        n_values=tuple(int(n) for n in ns),
        per_point_constants=tuple(float(c) for c in constants),
        ratio=float(constants.max() / constants.min()),
        slope_vs_log=float(slope),
        slope_over_mean=float(slope / c_bar),
    )
