"""Workloads, output checks and traced timing for the trajex benchmark.

The layers are trajex's modules: synth (scene rendering), io (file formats
and association), pnp (the per-frame pose solve), kalman (the filter),
trajectory (world mapping and scoring) and pipeline (the glue inside
extract_trajectory). Spans are recorded here, around the calls into each
layer; nothing inside trajex is instrumented. The traced run rebuilds
extract_trajectory from its public parts in the same order, and a check
holds the rebuilt trajectory bit-identical to the real one.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from trajex import (
    CAMERA,
    DivergedRefinement,
    FrameObservation,
    GeometryError,
    Measurement,
    NoiseSpec,
    PipelineConfig,
    Point3,
    TrajexError,
    bbox_to_image_points,
    build_trajectory,
    compute_metrics,
    default_config,
    extract_trajectory,
    get_scenario,
    project_ground,
    refine_pose,
    run_filter,
    run_pipeline,
    simulate,
    solve_ippe,
)
from trajex import io as tio

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SCENARIOS = ("ugv_red", "ugv_blue", "quadruped")
# the heavy preset of demos/full_pipeline.py
HEAVY = NoiseSpec(pixel_sigma=3.0, dropout=0.2, pose_sigma_t=0.02, pose_sigma_r=0.01)
EVAL_NOISE = {"eval_calibrated": NoiseSpec.calibrated(), "eval_heavy": HEAVY}
WORKLOADS = (*EVAL_NOISE, "extract_long")
RECOMPOSE_FRAMES = 300  # extract_long prefix re-checked in untraced runs


@dataclass(frozen=True)
class Size:
    traced_rounds: int  # eval rounds (one trial per scenario) in a traced run
    long_frames: int  # frames in extract_long's detection/pose file pair
    setup_launches: int  # fresh interpreters timed for setup_s


FULL = Size(traced_rounds=6, long_frames=3600, setup_launches=9)
TINY = Size(traced_rounds=1, long_frames=300, setup_launches=2)


class GateFailed(Exception):
    """An output-correctness check failed; the run reports no numbers."""


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    notes: dict


# ---------------------------------------------------------------------------
# reference speed

# The speed of a shared 2-vCPU virtual machine flips between a fast and a ~1.7x
# slower state every second or so with its neighbours' load: one trial,
# repeated for a minute, took 0.72-1.46 s, while its ratio to the kernel
# below stayed within +-6 % from block to block. So while an operation is
# timed, a timer signal runs the kernel every SAMPLE_S seconds; the
# kernel's own time is taken out of the operation's, and the operation is
# reported at reference speed: wall * REF_S / (mean kernel time during
# it). The mean, not the median, because the kernel's times are bimodal.
# The kernel uses no trajex code, so no change to trajex moves it.
REF_S = 0.020
SAMPLE_S = 0.5
_KERNEL_A = np.diag([4.0, 5.0, 6.0, 7.0, 8.0, 9.0]) + np.eye(6, k=1) + np.eye(6, k=-1)
_KERNEL_B = np.arange(6.0)


def kernel_seconds() -> float:
    """Wall time of fixed 6x6 solves and small Python objects, trajex's mix."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(2000):
        x = np.linalg.solve(_KERNEL_A, _KERNEL_B + i)
        acc += float(x @ x) + len({"i": i, "x": (i, i + 1)})
    return time.perf_counter() - t0


class Clock:
    """Times operations while sampling the machine's speed during them.

    A traced run must not be interrupted inside its spans, so with
    sampling=False the kernel runs once after each operation instead.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.kernel = [kernel_seconds()]
        self.walls = []  # wall seconds of each timed operation, samples taken out
        self._paused = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel.append(kernel_seconds())
        self._paused += time.perf_counter() - t0

    def run(self, fn, *args, **kwargs):
        """(result, wall seconds, seconds at reference speed) of fn(*args, **kwargs).

        The scale comes from the kernel samples taken during the operation
        (or right after it), or from all samples so far when there is none.
        """
        first = len(self.kernel)
        self._paused = 0.0
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0 - self._paused
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
                signal.signal(signal.SIGALRM, previous)
        if not self.sampling:
            self.kernel.append(kernel_seconds())
        self.walls.append(wall)
        return result, wall, wall * REF_S / statistics.fmean(self.kernel[first:] or self.kernel)

    def factor(self) -> float:
        """Run-wide scale to reference speed, for the traced per-layer times."""
        return REF_S / statistics.fmean(self.kernel)


def at_reference(metrics: dict, factor: float) -> dict:
    """Scale the us and ms metrics by factor."""
    return {k: (v * factor if u in ("us", "ms") else v, u) for k, (v, u) in metrics.items()}


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """Spans kept in memory as [name, start_ns, end_ns, parent index or -1].

    `with tracer("pnp.solve"):` opens a span whose parent is the innermost
    open one.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def __call__(self, name: str) -> "Tracer":
        self._open.append(len(self.spans))
        self.spans.append([name, 0, 0, self._open[-2] if len(self._open) > 1 else -1])
        self.spans[-1][1] = time.perf_counter_ns()
        return self

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.spans[self._open.pop()][2] = time.perf_counter_ns()
        return False

    def us(self, name: str) -> np.ndarray:
        """Durations of every span called `name`, in microseconds."""
        return np.array([(e - s) / 1e3 for n, s, e, _ in self.spans if n == name])

    def self_us(self, name: str) -> float:
        """Total time in `name` spans that none of their child spans covers."""
        own = {i: sp[2] - sp[1] for i, sp in enumerate(self.spans) if sp[0] == name}
        for _, s, e, parent in self.spans:
            if parent in own:
                own[parent] -= e - s
        return sum(own.values()) / 1e3

    def summary(self) -> dict:
        """name -> [count, total ms, self ms] for every span name."""
        out = {}
        for name in dict.fromkeys(sp[0] for sp in self.spans):
            d = self.us(name)
            out[name] = [len(d), round(d.sum() / 1e3, 3), round(self.self_us(name) / 1e3, 3)]
        return out


class _NoTracer:
    def __call__(self, name: str) -> "_NoTracer":
        return self

    def __enter__(self) -> "_NoTracer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NO_TRACE = _NoTracer()


def traced_extract(observations: list, config: PipelineConfig, tr: Tracer):
    """extract_trajectory rebuilt from its public parts, with a span per layer call.

    Returns (trajectory, ground track, measurements, samples).
    """
    intrinsics = config.camera()
    model = config.robot()
    refine = bool(config["pnp.refine"])
    with tr("pipeline.extract"):
        measurements = []
        poses = []
        for obs in observations:
            z = None
            if obs.bbox is not None:
                with tr("pnp.solve"):
                    try:
                        img = bbox_to_image_points(obs.bbox)
                        with tr("pnp.ippe"):
                            best = solve_ippe(img, model, intrinsics)[0]
                        if refine:
                            try:
                                best = refine_pose(best, img, model, intrinsics)
                            except DivergedRefinement:
                                pass
                        z = Point3(best.translation, frame=CAMERA).xyz
                    except GeometryError:
                        z = None
            measurements.append(Measurement(obs.timestamp, z))
            poses.append(obs.camera_pose)
        with tr("kalman.filter"):
            samples = run_filter(measurements, config.filter_params())
        with tr("trajectory.world_map"):
            traj = build_trajectory(samples, poses)
            track = project_ground(traj)
    return traj, track, measurements, samples


# ---------------------------------------------------------------------------
# statistics


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it, and the
    maximum is returned as percentile 100.
    """
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    if n <= 10:
        return 100.0, float(v[-1])
    return 100.0 * (n - 10) / n, float(v[n - 11])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def layer_metrics(tr: Tracer, frames: int, solved: int, samples: list) -> dict:
    """Per-layer metrics shared by every workload, from one traced pass."""
    solve = tr.us("pnp.solve")
    return {
        "pnp.solve_us_p50": (float(np.median(solve)), "us"),
        "pnp.solve_us_tail": (tail(solve)[1], "us"),
        "pnp.ippe_us_p50": (float(np.median(tr.us("pnp.ippe"))), "us"),
        "pnp.solve_calls": (len(solve), "count"),
        "pnp.solved_ratio": (solved / len(solve), "ratio"),
        "kalman.filter_us_per_frame": (tr.us("kalman.filter").sum() / frames, "us"),
        "kalman.updates": (sum(s.from_measurement for s in samples), "count"),
        "kalman.bridged": (
            sum(s.position is not None and not s.from_measurement for s in samples),
            "count",
        ),
        "trajectory.world_map_us_per_frame": (tr.us("trajectory.world_map").sum() / frames, "us"),
        "pipeline.self_us_per_frame": (tr.self_us("pipeline.extract") / frames, "us"),
        "bench.frames": (frames, "count"),
    }


def accuracy_metrics(metrics: list) -> dict:
    """Accuracy of the traced run's trials; deterministic per seed.

    Between seeds it swings too widely to carry a regression bound (see
    README.md), so it is reported per layer.
    """
    return {
        "accuracy.tracking_rmse_m": (float(np.median([m.tracking_rmse_m for m in metrics])), "m"),
        "accuracy.tracking_max_m": (max(m.tracking_max_m for m in metrics), "m"),
        "accuracy.final_goal_error_m": (
            float(np.median([m.final_goal_error_m for m in metrics])),
            "m",
        ),
        "accuracy.success_rate": (float(np.mean([m.success for m in metrics])), "ratio"),
    }


def no_io() -> dict:
    """io metrics of a workload whose timed chain reads and writes no file."""
    return {
        "io.read_detections_us_per_line": (0.0, "us"),
        "io.read_camera_poses_us_per_line": (0.0, "us"),
        "io.adapt_poses_us_per_line": (0.0, "us"),
        "io.associate_us_per_frame": (0.0, "us"),
        "io.write_us_per_row": (0.0, "us"),
        "io.bytes_in": (0, "bytes"),
    }


# ---------------------------------------------------------------------------
# set-up and correctness gates


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))


SETUP_SCRIPT = """
import resource
import trajex
trajex.default_config()
trajex.builtin_scenarios()
r = resource.getrusage(resource.RUSAGE_SELF)
import bench
print(r.ru_utime + r.ru_stime, bench.kernel_seconds())
"""


def setup_seconds(launches: int) -> float:
    """Median time of a fresh interpreter that imports trajex and is ready
    with a config and the scenario table, as every CLI call is.

    Each child reports its own CPU time up to that point, then times the
    kernel on the same vCPU, and its set-up is scaled to reference speed
    by that kernel time. Wall time is not used: on a small VM, waiting for
    a child's exit is rounded to 50 ms steps.
    """
    cmd = [sys.executable, "-c", SETUP_SCRIPT]
    env = child_env()
    subprocess.run(cmd, env=env, check=True, timeout=60, stdout=subprocess.DEVNULL)  # writes bytecode caches
    times = []
    for _ in range(launches):
        out = subprocess.run(cmd, env=env, check=True, timeout=60, stdout=subprocess.PIPE, text=True)
        cpu, kernel = map(float, out.stdout.split())
        times.append(cpu * REF_S / kernel)
    return statistics.median(times)


def gate_closure(seed: int):
    """Zero noise must close on every stock scenario to under a millimetre."""
    for name in SCENARIOS:
        rmse = run_pipeline(name, NoiseSpec.zero(), seed=seed).metrics.tracking_rmse_m
        if not rmse < 1e-3:
            raise GateFailed(f"zero-noise {name}: tracking rmse {rmse} m")


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def gate_identical(traj, reference, what: str):
    """The traced re-composition must reproduce extract_trajectory bit for bit."""
    if not (_same_bits(traj.times, reference.times) and _same_bits(traj.positions, reference.positions)):
        raise GateFailed(f"{what}: traced trajectory differs from extract_trajectory")


def gate_recompose(observations: list, config: PipelineConfig, reference, what: str):
    traj = traced_extract(observations, config, Tracer())[0]
    gate_identical(traj, reference, what)


def gate_readback(path: Path, traj):
    """A written trajectory must read back bit-identically."""
    back = tio.read_trajectory(path)
    if not (_same_bits(back.times, traj.times) and _same_bits(back.positions, traj.positions)):
        raise GateFailed(f"{path.name} does not read back bit-identically")


# ---------------------------------------------------------------------------
# eval_calibrated, eval_heavy: simulate -> extract -> score per trial


def trial_seed(seed: int, round_: int) -> int:
    return seed * 1000 + round_


def trial_config(noise: NoiseSpec) -> PipelineConfig:
    """The config run_pipeline derives from the default for this noise."""
    values = dict(default_config().values)
    values["filter.meas_sigma"] = noise.suggested_meas_sigma()
    return PipelineConfig(values)


def scene_observations(scene) -> list:
    """The frame observations run_pipeline hands to extract_trajectory."""
    return [
        FrameObservation(rec.frame_index, rec.timestamp, rec.bbox, pose.pose, rec.confidence)
        for rec, pose in zip(scene.frames, scene.poses)
    ]


def traced_trial(name: str, noise: NoiseSpec, seed: int, config: PipelineConfig, tr: Tracer):
    """run_pipeline's simulate -> extract -> score, with spans.

    Returns (trajectory, metrics, measurements, samples).
    """
    scenario = get_scenario(name)
    with tr("trial"):
        with tr("synth.simulate"):
            scene = simulate(scenario, noise, seed, config)
        traj, track, measurements, samples = traced_extract(scene_observations(scene), config, tr)
        with tr("trajectory.score"):
            metrics = compute_metrics(
                track, scene.truth.xy, scenario.goal, threshold=float(config["success.threshold"])
            )
    return traj, metrics, measurements, samples


def throughput(ms: list, frames: int, rss: float, attempted: int, failed: int, notes: dict) -> Outcome:
    """End-to-end metrics from per-operation times at reference speed."""
    pct, tail_ms = tail(ms)
    metrics = {
        "frames_per_s": (1e3 * frames / sum(ms), "1/s"),
        "trial_ms_p50": (statistics.median(ms), "ms"),
        "trial_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = dict(notes, tail_percentile=round(pct, 2))
    return Outcome(metrics, attempted, failed, notes)


def eval_untraced(workload: str, seed: int, seconds: float, clock: Clock) -> Outcome:
    """Closed loop of whole rounds, one trial per scenario, until `seconds` pass."""
    noise = EVAL_NOISE[workload]
    ms = []
    frames = attempted = failed = 0
    first = None
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        for name in SCENARIOS:
            attempted += 1
            try:
                trial, _, scaled = clock.run(run_pipeline, name, noise, trial_seed(seed, r))
            except TrajexError:
                failed += 1
                continue
            ms.append(1e3 * scaled)
            frames += trial.extraction.frames_total
            first = first or trial
        r += 1
    rss = peak_rss_mb()
    if first is None:
        raise GateFailed("every trial failed")
    gate_recompose(scene_observations(first.scene), trial_config(noise), first.extraction.trajectory, "first trial")
    return throughput(ms, frames, rss, attempted, failed, {"trials": len(ms), "rounds": r})


def eval_traced(workload: str, seed: int, size: Size, clock: Clock) -> Outcome:
    """Fixed rounds, each trial untraced and then traced on the same inputs."""
    noise = EVAL_NOISE[workload]
    config = trial_config(noise)
    tr = Tracer()
    untraced_s = traced_s = 0.0
    frames = solved = attempted = failed = 0
    samples, scored = [], []
    for r in range(size.traced_rounds):
        for name in SCENARIOS:
            s = trial_seed(seed, r)
            attempted += 1
            try:
                ref, untraced, _ = clock.run(run_pipeline, name, noise, s)
            except TrajexError:
                failed += 1
                continue
            (traj, _, meas, samp), traced, _ = clock.run(traced_trial, name, noise, s, config, tr)
            untraced_s += untraced
            traced_s += traced
            gate_identical(traj, ref.extraction.trajectory, f"{name} seed {s}")
            frames += ref.extraction.frames_total
            solved += sum(m.position is not None for m in meas)
            samples.extend(samp)
            scored.append(ref.metrics)
    if not scored:
        raise GateFailed("every trial failed")
    metrics = layer_metrics(tr, frames, solved, samples)
    metrics.update(no_io())
    metrics.update({
        "synth.simulate_ms": (float(np.median(tr.us("synth.simulate"))) / 1e3, "ms"),
        "trajectory.score_ms": (float(np.median(tr.us("trajectory.score"))) / 1e3, "ms"),
    })
    metrics = at_reference(metrics, clock.factor())
    metrics.update(accuracy_metrics(scored))
    metrics.update({
        "bench.trace_overhead_pct": (100.0 * (traced_s / untraced_s - 1.0), "%"),
        "bench.failed_ops_ratio": (failed / attempted, "ratio"),
    })
    return Outcome(metrics, attempted, failed, {"spans": tr.summary()})


# ---------------------------------------------------------------------------
# extract_long: what `trajex extract` does, on one long file pair


@dataclass(frozen=True)
class LongInput:
    detections: Path
    poses: Path
    truth: Path
    goal: np.ndarray
    simulate_ms: float
    lines: tuple  # (detection lines, pose lines)
    bytes_in: int


def make_long_input(seed: int, size: Size, workdir: Path) -> LongInput:
    """Write the patrol file pair in a child process, so that neither its
    time nor its memory counts against the timed chain."""
    cmd = [sys.executable, str(HERE / "patrol.py"), "--seed", str(seed),
           "--frames", str(size.long_frames), "--out", str(workdir)]
    out = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True, check=True, timeout=120)
    info = json.loads(out.stdout.splitlines()[-1])
    paths = [workdir / f for f in ("detections.txt", "poses.txt", "truth.txt")]
    data = [p.read_bytes() for p in paths[:2]]
    return LongInput(
        *paths,
        goal=np.array(info["goal"]),
        simulate_ms=info["simulate_ms"],
        lines=tuple(d.count(b"\n") for d in data),
        bytes_in=sum(len(d) for d in data),
    )


def extract_chain(inp: LongInput, out_dir: Path, config: PipelineConfig, tr=NO_TRACE):
    """read, adapt, associate, extract, write: the `trajex extract` command.

    Returns (trajectory, ground track, observations, measurements, samples);
    the last two are None untraced.
    """
    with tr("io.read_detections"):
        detections = tio.read_detections(inp.detections)
    with tr("io.read_camera_poses"):
        poses = tio.read_camera_poses(inp.poses)
    with tr("io.adapt_poses"):
        poses = tio.adapt_poses(
            poses, invert=config["pose.invert"], scale=config["pose.scale"], axes=config["pose.axes"]
        )
    with tr("io.associate"):
        observations = tio.associate(detections, poses, config.association_tolerance())
    if tr is NO_TRACE:
        result = extract_trajectory(observations, config)
        traj, track, measurements, samples = result.trajectory, result.ground_track, None, None
    else:
        traj, track, measurements, samples = traced_extract(observations, config, tr)
    with tr("io.write"):
        tio.write_trajectory(traj, out_dir / "trajectory.txt")
        tio.write_ground_track(track, out_dir / "ground_track.txt")
    return traj, track, observations, measurements, samples


def long_untraced(seed: int, seconds: float, size: Size, workdir: Path, clock: Clock) -> Outcome:
    """Whole passes over the file pair until `seconds` pass, at least one."""
    inp = make_long_input(seed, size, workdir / "in")
    out_dir = workdir / "out"
    out_dir.mkdir()
    config = default_config()
    ms = []
    attempted = failed = 0
    last = None
    start = time.perf_counter()
    deadline = start + seconds
    # a pass is long: start another only if it should end by half a pass after the deadline
    while attempted == 0 or time.perf_counter() + 0.5 * (time.perf_counter() - start) / attempted < deadline:
        attempted += 1
        try:
            last, _, scaled = clock.run(extract_chain, inp, out_dir, config)
        except TrajexError:
            failed += 1
            continue
        ms.append(1e3 * scaled)
    rss = peak_rss_mb()
    if last is None:
        raise GateFailed("every extraction failed")
    traj, _, observations = last[:3]
    gate_readback(out_dir / "trajectory.txt", traj)
    prefix = observations[:RECOMPOSE_FRAMES]
    gate_recompose(prefix, config, extract_trajectory(prefix, config).trajectory, "long prefix")
    frames = len(observations) * len(ms)
    return throughput(ms, frames, rss, attempted, failed, {"passes": len(ms), "frames_per_pass": len(observations)})


def long_traced(seed: int, size: Size, workdir: Path, clock: Clock) -> Outcome:
    """One untraced and one traced pass over the same file pair, then the score."""
    inp = make_long_input(seed, size, workdir / "in")
    out_dir = workdir / "out"
    out_dir.mkdir()
    config = default_config()
    tr = Tracer()
    ref, untraced, _ = clock.run(extract_chain, inp, out_dir, config)
    (traj, track, observations, measurements, samples), traced, _ = clock.run(
        extract_chain, inp, out_dir, config, tr
    )
    gate_identical(traj, ref[0], "long file pair")
    gate_readback(out_dir / "trajectory.txt", traj)
    # tracking_error is O(frames x reference points): scored outside the timed chain
    with tr("trajectory.score"):
        truth = tio.read_ground_track(inp.truth)
        nav = compute_metrics(track, truth.xy, inp.goal, threshold=float(config["success.threshold"]))
    frames = len(observations)
    n_det, n_pose = inp.lines
    rows = len(traj) + len(track)
    solved = sum(m.position is not None for m in measurements)
    metrics = layer_metrics(tr, frames, solved, samples)
    metrics.update({
        "io.read_detections_us_per_line": (tr.us("io.read_detections").sum() / n_det, "us"),
        "io.read_camera_poses_us_per_line": (tr.us("io.read_camera_poses").sum() / n_pose, "us"),
        "io.adapt_poses_us_per_line": (tr.us("io.adapt_poses").sum() / n_pose, "us"),
        "io.associate_us_per_frame": (tr.us("io.associate").sum() / frames, "us"),
        "io.write_us_per_row": (tr.us("io.write").sum() / rows, "us"),
        "io.bytes_in": (inp.bytes_in, "bytes"),
        "synth.simulate_ms": (inp.simulate_ms, "ms"),
        "trajectory.score_ms": (float(tr.us("trajectory.score").sum()) / 1e3, "ms"),
    })
    metrics = at_reference(metrics, clock.factor())
    metrics.update(accuracy_metrics([nav]))
    metrics.update({
        "bench.trace_overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
        "bench.failed_ops_ratio": (0.0, "ratio"),
    })
    return Outcome(metrics, attempted=2, failed=0, notes={"spans": tr.summary()})
