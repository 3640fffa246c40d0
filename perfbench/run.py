"""trajex benchmark: frame throughput, trial latency and accuracy on three workloads.

    python3 perfbench/run.py --workload eval_calibrated --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; trajex is imported from src/.
One process and one thread drive a closed loop: each trial or extraction
starts when the previous one has returned. Every input derives from --seed.

  --trace 0  times the workload for --seconds and prints the end-to-end
             metrics of BENCHMARK.json.
  --trace 1  runs a fixed share of the workload untraced and then traced
             on the same inputs, and prints the per-layer metrics.
  --tiny     shrinks every workload, for the benchmark's own test.

Times are reported at a reference machine speed, measured by a fixed kernel
sampled during each timed operation (see Clock in bench.py); the wall-clock
times are in the notes.

Each run first checks outputs (zero-noise closure; the traced re-composition
matches extract_trajectory bit for bit; extract_long's output reads back
bit-identically). A failed check prints "correct": false and no numbers,
and the exit code is 1. The last line of standard output is the JSON
result; the line before it stamps the environment and adds notes.
"""

import os

# Must precede the first numpy import: 6x6 matrices gain nothing from BLAS threads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """sha256 over trajex's sources, which identifies the code without git."""
    h = hashlib.sha256()
    for p in sorted((src / "trajex").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stamp(args, numpy_version: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "trajex" / "__init__.py").is_file():
        print(f"perfbench: no trajex sources in {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import numpy as np

    import bench  # imports trajex, which needs src/ on the path

    if args.workload not in bench.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    size = bench.TINY if args.tiny else bench.FULL
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp", dir=ROOT))
    try:
        clock = bench.Clock(sampling=not args.trace)
        setup_s = bench.setup_seconds(size.setup_launches)
        bench.gate_closure(args.seed)
        if args.workload == "extract_long":
            if args.trace:
                outcome = bench.long_traced(args.seed, size, workdir, clock)
            else:
                outcome = bench.long_untraced(args.seed, args.seconds, size, workdir, clock)
        elif args.trace:
            outcome = bench.eval_traced(args.workload, args.seed, size, clock)
        else:
            outcome = bench.eval_untraced(args.workload, args.seed, args.seconds, clock)
    except bench.GateFailed as e:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = dict(outcome.metrics)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
    notes = dict(
        outcome.notes,
        wall_ms=[round(1e3 * w, 3) for w in clock.walls],
        kernel_ms_mean=1e3 * statistics.fmean(clock.kernel),
        kernel_samples=len(clock.kernel),
    )
    print(json.dumps({"stamp": stamp(args, np.__version__), "notes": notes}))
    print(json.dumps({
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            k: {"value": v if isinstance(v, int) else float(v), "unit": u}
            for k, (v, u) in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
