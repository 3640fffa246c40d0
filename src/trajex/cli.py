"""Command-line front end.

Subcommands:
  extract   detections + camera poses -> world trajectory + ground track
  simulate  render a synthetic scenario into detections + poses + truth
  eval      simulate one trial, extract, and score it against the truth
  batch     many seeded trials per scenario, summary table (and CSV)
  plot-csv  convert a trajectory/track file to CSV for plotting

Exit codes: 0 success, 2 bad input, 3 degenerate geometry, 4 trial
produced no result, 5 internal error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import io as tio
from .errors import GeometryError, InputError, PipelineError
from .pipeline import extract_trajectory
from .synth import builtin_scenarios, get_scenario, run_pipeline, simulate


def _config_epilog() -> str:
    lines = ["configuration keys (set via --config file or --set key=value):"]
    for key, default, doc in tio.config_keys():
        lines.append(f"  {key:<22} {doc} [default: {default}]")
    return "\n".join(lines)


def _load_config(args) -> tio.PipelineConfig:
    cfg = tio.read_config(args.config) if args.config else tio.default_config()
    return cfg.with_overrides(args.set)


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="configuration file (key = value lines)")
    p.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one configuration key (repeatable)",
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_extract(args) -> int:
    cfg = _load_config(args)
    detections = tio.read_detections(args.detections)
    poses = tio.read_camera_poses(args.poses)
    poses = tio.adapt_poses(
        poses,
        invert=cfg["pose.invert"],
        scale=cfg["pose.scale"],
        axes=cfg["pose.axes"],
    )
    observations = tio.associate(detections, poses, cfg.association_tolerance())
    result = extract_trajectory(observations, cfg)
    out = _out_dir(args)
    tio.write_trajectory(result.trajectory, out / "trajectory.txt")
    tio.write_ground_track(result.ground_track, out / "ground_track.txt")
    print(
        f"frames {result.frames_total} detected {result.frames_detected} "
        f"solved {result.frames_solved}"
    )
    print(f"wrote {out / 'trajectory.txt'}")
    print(f"wrote {out / 'ground_track.txt'}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scene = simulate(get_scenario(args.scenario), cfg.noise(), args.seed, cfg)
    out = _out_dir(args)
    tio.write_detections(scene.frames, out / "detections.txt")
    tio.write_camera_poses(scene.poses, out / "poses.txt")
    tio.write_ground_track(scene.truth, out / "truth.txt")
    n_present = sum(1 for f in scene.frames if f.present)
    print(f"frames {len(scene.frames)} detections {n_present}")
    for name in ("detections.txt", "poses.txt", "truth.txt"):
        print(f"wrote {out / name}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    trial = run_pipeline(args.scenario, cfg.noise(), args.seed, cfg)
    out = _out_dir(args)
    tio.write_trajectory(trial.extraction.trajectory, out / "trajectory.txt")
    tio.write_ground_track(trial.extraction.ground_track, out / "ground_track.txt")
    tio.write_ground_track(trial.truth, out / "truth.txt")
    tio.write_metrics(trial.metrics, out / "metrics.txt")
    tio.write_metrics(trial.metrics, sys.stdout)
    return 0


def _cmd_batch(args) -> int:
    cfg = _load_config(args)
    noise = cfg.noise()
    if args.seeds < 1:
        raise InputError("batch needs at least one seed")
    names = [s.strip() for s in args.scenarios.split(",")] if args.scenarios else list(builtin_scenarios())
    for name in names:
        get_scenario(name)  # fail fast on typos
    seeds = list(range(args.seeds))

    rows = []
    per_trial = []
    total_ok = 0
    for name in names:
        trials = [run_pipeline(name, noise, seed, cfg) for seed in seeds]
        for seed, trial in zip(seeds, trials):
            per_trial.append((name, seed, trial.metrics))
        med = lambda f: float(np.median([f(t.metrics) for t in trials]))
        n_ok = sum(1 for t in trials if t.metrics.success)
        total_ok += n_ok
        rows.append(
            (
                name,
                med(lambda m: m.path_length_m),
                med(lambda m: m.final_goal_error_m),
                med(lambda m: m.tracking_rmse_m),
                med(lambda m: m.tracking_max_m),
                f"{n_ok}/{len(trials)}",
            )
        )

    header = ("scenario", "path_m", "final_err_m", "track_rmse_m", "track_max_m", "success")
    widths = [max(len(header[0]), *(len(r[0]) for r in rows))] + [12, 12, 12, 12, 8]
    fmt_row = lambda cells: "  ".join(str(c).rjust(w) if i else str(c).ljust(w)
                                      for i, (c, w) in enumerate(zip(cells, widths)))
    print(fmt_row(header))
    for name, pl, fe, tr, tm, ok in rows:
        print(fmt_row((name, f"{pl:.3f}", f"{fe:.3f}", f"{tr:.3f}", f"{tm:.3f}", ok)))
    n_total = len(names) * len(seeds)
    print(f"successes {total_ok}/{n_total}")

    if args.csv:
        lines = ["scenario,seed,path_length_m,final_goal_error_m,tracking_rmse_m,tracking_max_m,success"]
        for name, seed, m in per_trial:
            lines.append(
                f"{name},{seed},{m.path_length_m!r},{m.final_goal_error_m!r},"
                f"{m.tracking_rmse_m!r},{m.tracking_max_m!r},{1 if m.success else 0}"
            )
        for name, pl, fe, tr, tm, ok in rows:
            lines.append(f"{name},median,{pl!r},{fe!r},{tr!r},{tm!r},{ok}")
        tio.write_text(args.csv, "\n".join(lines) + "\n")
        print(f"wrote {args.csv}")
    return 0


def _read_track_any(path) -> tuple[np.ndarray, np.ndarray]:
    """Accept a trajectory (t x y z), or a ground track (t x y) when the
    first data row has 3 fields."""
    first = next(tio._iter_lines(path), None)
    if first is not None and len(first[2].split()) == 3:
        track = tio.read_ground_track(path)
        return track.times, track.xy
    traj = tio.read_trajectory(path)
    return traj.times, traj.positions


def _cmd_plot_csv(args) -> int:
    times, pts = _read_track_any(args.infile)
    cols = ["t", "x", "y", "z"][: 1 + pts.shape[1]]
    data = [times] + [pts[:, i] for i in range(pts.shape[1])]
    if args.reference:
        rt, rp = _read_track_any(args.reference)
        for i, axis in enumerate(("ref_x", "ref_y")):
            cols.append(axis)
            data.append(np.interp(times, rt, rp[:, i]))
    lines = [",".join(cols)]
    for k in range(len(times)):
        lines.append(",".join(repr(float(col[k])) for col in data))
    tio.write_text(args.out, "\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajex",
        description="Recover a robot's world-frame trajectory from detections and camera poses.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenario_names = ", ".join(sorted(builtin_scenarios()))

    p = sub.add_parser("extract", help="extract a trajectory from files")
    p.add_argument("--detections", required=True, help="detection stream file")
    p.add_argument("--poses", required=True, help="camera pose file")
    p.add_argument("--out-dir", required=True, help="directory for output files")
    _add_config_args(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("simulate", help="render a synthetic scenario")
    p.add_argument("--scenario", required=True, help=f"one of: {scenario_names}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_config_args(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("eval", help="simulate, extract, and score one trial")
    p.add_argument("--scenario", required=True, help=f"one of: {scenario_names}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    _add_config_args(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("batch", help="run seeded trials and summarize")
    p.add_argument("--seeds", type=int, default=10, help="seeds 0..N-1 per scenario")
    p.add_argument("--scenarios", help="comma-separated subset (default: all)")
    p.add_argument("--csv", help="also write per-trial results to this CSV file")
    _add_config_args(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("plot-csv", help="convert a trajectory/track file to CSV")
    p.add_argument("--in", dest="infile", required=True, help="trajectory or track file")
    p.add_argument("--reference", help="optional reference track to join on time")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_plot_csv)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"error: degenerate geometry: {e}", file=sys.stderr)
        return 3
    except PipelineError as e:
        print(f"error: trial failed: {e}", file=sys.stderr)
        return 4
    except Exception as e:  # noqa: BLE001 - last-resort mapping to an exit code
        print(f"internal error: {e}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
