"""Seeded Monte Carlo ensembles, their summaries, and scaling-law fits.

`run_ensemble` and the CLI's per-instance loops run through `map_trials`:
trial t of a run gets seed `trial_seeds(master, count)[t]`. With w workers (by
default one per CPU this process may run on) the trials are cut into w
contiguous shares: this process runs share 0 and w - 1 forked children, each
pinned to a CPU other than this process's, run the rest, and each sends only
its share's results back, in one pickle. Results come back in trial order.
Each trial depends on its seed alone, so outputs are bit-identical for every
worker count.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import pickle
import signal
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


class TrialOutOfMemory(TrialError, MemoryError):
    """A trial ran out of memory: a TrialError, so a forked child sends it back, and a MemoryError."""


def default_workers() -> int:
    """The CPUs this process may run on (the CPU count where that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class TrialEnsemble:
    """A seeded ensemble's observations in trial order, summarised by numpy reductions."""

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
    except Exception as exc:  # noqa: BLE001 - surfaced with the failing seed
        error = TrialOutOfMemory if isinstance(exc, MemoryError) else TrialError
        raise error(trial, seed, repr(exc)) from exc


class _Child:
    """A forked child that runs trials lo..hi-1 and sends their results back in one pickle."""

    def __init__(self, observable, seeds: list, lo: int, hi: int, cpu: int | None = None):
        self.seeds, self.lo, self.hi = seeds, lo, hi
        self.running = memoryview(mmap.mmap(-1, 8)).cast("q")  # shared with the child: its current trial
        self.running[0] = lo
        read_fd, write_fd = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                if cpu is not None:
                    with contextlib.suppress(OSError):
                        os.sched_setaffinity(0, {cpu})
                os.close(read_fd)
                with os.fdopen(write_fd, "wb") as out:
                    pickle.dump(self._run(observable), out, pickle.HIGHEST_PROTOCOL)
                status = 0
            except Exception:  # noqa: BLE001 - shown here; the parent names the trial
                traceback.print_exc()
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")
        self.sent = self.reaped = False  # sent: its pickle was read

    def _run(self, observable) -> tuple:
        """In the child: (results, error) of the share, stopping at the first TrialError."""
        results = []
        for t in range(self.lo, self.hi):
            self.running[0] = t
            try:
                results.append(_run_trial(observable, t, self.seeds[t]))
            except TrialError as err:
                return results, err
        return results, None

    def results(self) -> list:
        """The child's results in trial order; raises its TrialError.

        If the pickle does not arrive whole, the child died: the error names
        the trial it was running, whose seed reproduces the death.
        """
        try:
            results, error = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            code = self._wait()
            t = self.running[0]
            raise TrialError(t, self.seeds[t], f"worker exited with status {code}") from None
        self.sent = True
        if error is not None:
            raise error
        return results

    def _wait(self) -> int:
        """Reap the child; its exit code, -n if signal n killed it."""
        self.pipe.close()
        self.reaped = True
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def stop(self) -> None:
        """Reap the child, killing it first if its pickle was not read."""
        if not self.reaped:
            if not self.sent:
                os.kill(self.pid, signal.SIGKILL)
            self._wait()


def _child_cpus(count: int) -> list:
    """A CPU for each of `count` forked children: the others this process may
    run on, in turn, and then this one; all None (not pinned) where those
    cannot be read or there is no other.

    Left to place a forked child, the kernel can keep it on its parent's CPU
    while another idles. Both shares then run by turns, slower than one
    process would run them all: on a 2-vCPU host, 10 `upper-bound --n 256`
    instances took a median 54-81 ms forked against 39-55 ms in one process
    (three sets of 10-12 fresh runs), and 37-47 ms with the child pinned.
    """
    try:
        here = _this_cpu()
        others = sorted(os.sched_getaffinity(0) - {here})
    except (OSError, AttributeError, IndexError, ValueError):
        others = []
    cycle = others + [here] if others else [None]
    return [cycle[k % len(cycle)] for k in range(count)]


def _this_cpu() -> int:
    """The CPU this process last ran on (Linux: field 39 of /proc/self/stat)."""
    with open("/proc/self/stat") as f:
        return int(f.read().rsplit(")", 1)[1].split()[36])


def map_trials(observable, seeds, workers: int | None = None) -> list:
    """[observable(seed) for seed in seeds], in order; trial t is seeds[t].

    With w = min(workers, trials) > 1 (workers None: default_workers()) the
    trials are cut into w contiguous shares. This process runs share 0, and
    w - 1 forked children, each pinned to a CPU of its own while CPUs last
    (`_child_cpus`), run the others, each sending its share's results in one
    pickle down a pipe; the pipes are read in trial order. The children
    inherit the observable, so only results need to pickle. With one worker,
    or where os.fork does not exist, the trials run in this process. The
    first failing trial raises TrialError, and so does the trial a child dies
    in. Children still running when the map fails are killed; every child is
    reaped.
    """
    seeds = list(seeds)
    workers = min(default_workers() if workers is None else workers, len(seeds))
    if workers <= 1 or not hasattr(os, "fork"):
        return [_run_trial(observable, t, seed) for t, seed in enumerate(seeds)]
    cuts = [len(seeds) * i // workers for i in range(workers + 1)]
    children = []
    try:
        for lo, hi, cpu in zip(cuts[1:-1], cuts[2:], _child_cpus(workers - 1)):
            children.append(_Child(observable, seeds, lo, hi, cpu))
        results = [_run_trial(observable, t, seeds[t]) for t in range(cuts[1])]
        for child in children:
            results += child.results()
        return results
    finally:
        for child in children:
            child.stop()


def run_ensemble(observable, trials: int, master_seed: int, workers: int | None = None) -> TrialEnsemble:
    """Evaluate observable(seed) over independent per-trial substreams.

    The trials get trial_seeds(master_seed, trials) and are gathered in trial
    order, so the observations, and the mean and variance numpy reduces them
    to, are bit-identical across runs and worker counts.
    """
    if trials < 2:
        raise ValueError("an ensemble needs at least 2 trials")
    seeds = trial_seeds(master_seed, trials)
    values = [float(v) for v in map_trials(observable, seeds, workers)]
    return TrialEnsemble(observations=np.array(values))


def scaling_shape(n: int, dim: int) -> float:
    """Theoretical growth factor g(N) with E[cost] ~ c * r^2 * g(N)."""
    if dim == 1:
        return float(n)
    if dim == 2:
        return math.log(n)
    return 1.0


def scaling_constant(n: int, mean: float, dim: int, side: float = 1.0) -> float:
    """c(N) = mean / (r^2 g(N)), r = L N^(-1/d): one scalar expression, so the
    scaling rows and their fit agree bit for bit."""
    r = side * n ** (-1.0 / dim)
    return mean / (r**2 * scaling_shape(n, dim))


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
    constants = np.array([scaling_constant(n, m, dim, side) for n, m in pts])
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
