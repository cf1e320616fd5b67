"""What both workloads share: operation accounting, host-speed scaling and
the timed training step."""

from __future__ import annotations

import contextlib
import statistics
import sys
from time import perf_counter
from typing import Callable, Iterable

from topicsum import autodiff as ad
from topicsum import generator


class Outcome:
    """Operations attempted in one run and the ones a failed check covers."""

    def __init__(self):
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.problems: list[str] = []

    def op(self) -> int:
        """Count one attempted operation and return its id."""
        self.attempted += 1
        return self.attempted - 1

    def check(self, ops: int | Iterable[int], problem: str | None) -> None:
        """Mark `ops` failed when a check returned a problem."""
        if problem is None:
            return
        ops = [ops] if isinstance(ops, int) else list(ops)
        self.failed_ops.update(ops)
        self.problems.append(problem)
        print(f"check failed ({len(ops)} operations): {problem}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


class HostClock:
    """Wall time scaled to a fixed host speed.

    This host runs in speed phases that last minutes and slow all work by up
    to 2x: a fixed pure-Python loop took 36-80 ms, and the unscaled medians
    of two sets of ten runs of identical code differed by 31% at paper size.
    A fixed probe, benchmark code doing the kind of work that dominates the
    workload, runs right before and right after every timed item, and times
    are scaled by reference / probe time: they read as wall times on a host
    where the probe takes `reference_s`.  With `per_item`, each sample is
    scaled by the probes around it; otherwise every sample is scaled by the
    median probe of the whole run, for work whose speed the probe follows
    only over minutes.
    """

    def __init__(self, probe: Callable[[], object], reference_s: float, per_item: bool):
        self._probe = probe
        self._reference_s = reference_s
        self._per_item = per_item
        self._probe_times: list[float] = []

    def _probe_seconds(self) -> float:
        t0 = perf_counter()
        self._probe()
        elapsed = perf_counter() - t0
        self._probe_times.append(elapsed)
        return elapsed

    @contextlib.contextmanager
    def timed(self, sample: list[float]):
        """Add the block's wall time to sample[0] and the mean probe time
        around it to sample[1]."""
        before = self._probe_seconds()
        t0 = perf_counter()
        yield
        sample[0] += perf_counter() - t0
        sample[1] += 0.5 * (before + self._probe_seconds())

    def results(self, samples: list[tuple[list[float], int]]) -> list[tuple[float, float]]:
        """(wall seconds, scaled seconds) per item, for (sample, items) pairs;
        call when the run's timed items are done."""
        run_probe = statistics.median(self._probe_times)
        results = []
        for (wall, probe), items in samples:
            probe_per_item = probe / items if self._per_item else run_probe
            results.append((wall / items, wall / items * self._reference_s / probe_per_item))
        return results


def train_step(model, optimizer, example, assignment, schema, vocab, tracer, timed: bool,
               before_update: Callable[[], None] | None = None) -> float:
    """One teacher-forced training example, as `train_generator` runs it:
    `example_loss` on a tape, `Tape.backward`, `Adam.step`, `zero_grad`.
    Returns the loss before the update."""
    with ad.tape() as recording:
        with tracer.span("example_loss"):
            _, _, loss = generator.example_loss(model, example, assignment, schema, vocab)
        tracer.note("autodiff.tape_records", len(recording))
        with tracer.span("Tape.backward", track_alloc=not timed):
            recording.backward(loss)
    if before_update is not None:
        before_update()
    with tracer.span("Adam.step"):
        optimizer.step()
    optimizer.zero_grad()
    return loss.item()
