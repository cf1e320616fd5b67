"""Shared test helpers: finite-difference oracles for gradient checks,
plus the acceptance-suite summary printed at the end of a run.

Gradient suites run inside `ad.using_dtype(np.float64)` so that central
differences are meaningful; the op implementations under test are the same
ones production uses in float32.
"""

import re

# before numpy: OpenBLAS reads the `OPENBLAS_THREAD_TIMEOUT` default that
# `topicsum` sets only when numpy loads it, so the suite runs the program's
# BLAS setting
import topicsum  # noqa: F401

import numpy as np
import pytest

import topicsum.autodiff as ad

ACCEPTANCE_LABELS = {
    1: "gradient suite (per-op and full-generator finite differences, < 60 s)",
    2: "normalization of topic, attention, vocabulary, and final distributions",
    3: "copy-only mass confined to input tokens when the gate saturates at 0",
    4: "hand-derived micro-oracles for mixing, attention, output, and losses",
    5: "generator overfit: NLL < 0.1, deduped ROUGE-L >= 0.95, stops >= 90%",
    6: "detector >= 0.95 held-out accuracy after 4 epochs at lr 3e-5",
    7: "soft and hard topic modes run; soft ROUGE-L >= hard - 0.02",
    8: "ROUGE hand cases exact; dedup drops the 2/3-overlap sentence",
    9: "corpus build determinism and non-increasing rank frequencies",
    10: "checkpoint round trip regenerates byte-identical abstracts",
}

_ACCEPTANCE_TEST_RE = re.compile(r"test_acceptance\.py::.*test_(\d{2})_")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, bool] = {}
    for key, passed in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(key, []):
            match = _ACCEPTANCE_TEST_RE.search(getattr(report, "nodeid", ""))
            if not match:
                continue
            number = int(match.group(1))
            outcomes[number] = outcomes.get(number, True) and passed
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria")
    for number in sorted(outcomes):
        verdict = "PASS" if outcomes[number] else "FAIL"
        label = ACCEPTANCE_LABELS.get(number, "")
        terminalreporter.write_line(f"  criterion {number:2d}: {verdict}  {label}")

FD_STEP = 1e-3
FD_REL_TOL = 1e-4
# entries smaller than this are held to an absolute floor of rel * floor;
# a pure relative test is ill-posed where the h^2 truncation term dominates
FD_FLOOR = 1e-2


def numeric_grad(fn, tensor, h=FD_STEP, indices=None):
    """Central finite differences of the scalar fn() w.r.t. tensor entries.

    fn re-runs the forward pass from current tensor data and returns a float.
    Returns (flat_indices, gradient_values).
    """
    flat = tensor.data.reshape(-1)
    if indices is None:
        indices = np.arange(flat.size)
    indices = np.asarray(indices, dtype=np.int64)
    values = np.zeros(indices.size, dtype=np.float64)
    for slot, i in enumerate(indices):
        original = flat[i]
        flat[i] = original + h
        f_plus = fn()
        flat[i] = original - h
        f_minus = fn()
        flat[i] = original
        values[slot] = (f_plus - f_minus) / (2.0 * h)
    return indices, values


def assert_grads_match(analytic, numeric, rel=FD_REL_TOL, floor=FD_FLOOR, label=""):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    err = np.abs(analytic - numeric) / denom
    worst = float(err.max()) if err.size else 0.0
    assert worst <= rel, (f"{label}: worst relative gradient error {worst:.3e} "
                          f"(analytic {analytic.reshape(-1)[np.argmax(err)]:.6e} vs "
                          f"numeric {numeric.reshape(-1)[np.argmax(err)]:.6e})")


def check_gradients(build_loss, params, h=FD_STEP, rel=FD_REL_TOL,
                    sample=None, rng=None):
    """Backprop build_loss() once, then verify each parameter against
    central differences.  `sample` limits the probed entries per tensor
    (seeded through `rng`); default probes every entry.

    Call inside `ad.using_dtype(np.float64)` with params built there too.
    """
    with ad.tape() as recording:
        loss = build_loss()
        recording.backward(loss)
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}
    for p in params.values():
        p.grad = None

    def forward():
        return build_loss().item()

    for name, p in params.items():
        if sample is None or p.data.size <= sample:
            indices = None
        else:
            indices = rng.choice(p.data.size, size=sample, replace=False)
        idx, numeric = numeric_grad(forward, p, h=h, indices=indices)
        assert_grads_match(analytic[name].reshape(-1)[idx], numeric, rel=rel, label=name)
