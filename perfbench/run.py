"""Benchmark of topicsum: paper-size generation and training, and the toy pipeline.

    python3 perfbench/run.py                     # every workload, untraced then traced
    python3 perfbench/run.py --workload paper --seed 3 --seconds 5 --trace 0

With --workload the run prints, as its last line, one JSON object with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics, or with
--trace 1 the per-layer ones); it exits 1 when an output check failed.
Without it, each workload runs in its own process and a table is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("paper", "pipeline_toy")
BLAS_THREADS = 2                # capped at the CPU count
E2E_UNITS = {"setup_s": "s", "train_example_ms": "ms", "abstract_ms": "ms", "peak_rss_mb": "MB"}


def _prepare() -> int:
    """Fix the BLAS thread count before numpy loads; find the program."""
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    src = ROOT / "src"
    if not (src / "topicsum" / "__init__.py").is_file():
        sys.exit(f"error: no topicsum package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    return threads


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    threads = _prepare()
    from topicsum import autodiff, generator

    import paper
    import toy
    import tracing
    from common import Outcome

    module = {"paper": paper, "pipeline_toy": toy}[workload]
    tracer = tracing.Tracer() if trace else tracing.NullTracer()
    if trace:
        tracer.install(generator, autodiff)
    outcome = Outcome()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as workdir:
        samples = module.run(seed, seconds, tracer, outcome, Path(workdir))
    if trace:
        tracer.restore()
        values, units = tracer.metrics(samples), tracing.UNITS
        tracer.write(OUT / f"trace-{workload}-{seed}.jsonl")
    else:
        values = {
            "setup_s": median(samples["setup"]),
            "train_example_ms": 1e3 * median(samples["train"]),
            "abstract_ms": 1e3 * median(samples["abstract"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    print(f"{workload} seed {seed}: BLAS threads {threads} of {os.cpu_count()} CPUs; unscaled "
          f"medians: set-up {median(samples['setup'], 0):.4f} s of {len(samples['setup'])}, "
          f"training {1e3 * median(samples['train'], 0):.2f} ms of {len(samples['train'])}, "
          f"abstract {1e3 * median(samples['abstract'], 0):.2f} ms of {len(samples['abstract'])}",
          file=sys.stderr)
    result = {"correct": not outcome.problems, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def median(samples: list[tuple[float, float]], column: int = 1) -> float:
    """Median of the scaled (1) or wall (0) seconds of (wall, scaled) samples."""
    return statistics.median(sample[column] for sample in samples)


def run_all(seed: int, seconds: float) -> int:
    """Each workload untraced, then traced, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0:
                status = 1
            if not lines:
                print(f"{workload}: no result (exit code {done.returncode})")
                continue
            results[trace] = json.loads(lines[-1])
        for trace, result in results.items():
            print(f"\n{workload} ({'traced' if trace else 'untraced'}): correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
        if len(results) == 2:
            untraced, traced = results[0]["metrics"], results[1]["metrics"]
            for name in ("train_example_ms", "abstract_ms"):
                ratio = traced[f"trace.{name}"]["value"] / untraced[name]["value"] - 1.0
                print(f"  tracing overhead on {name}: {100 * ratio:+.1f}%")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload is None:
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
