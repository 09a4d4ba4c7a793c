"""Census benchmark: one workload per invocation, every pass verified exactly.

    python3 perfbench/run.py --workload g2-prime --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  With ``--trace 0`` it prints the end-to-end metrics
declared in ``BENCHMARK.json``; with ``--trace 1`` the per-layer ones,
from a run that alternates untraced and traced passes.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Pass times are declared relative to
a fixed calibration task timed just before and after each pass
(``wall_rel``); the absolute ``wall_s`` and ``items_per_s`` are printed
and recorded too.  The line before it is the run
record (environment, inputs, sample counts), also written with the spans
to ``.bench_out/`` at the checkout root.

Exit status: 0 when every pass verified; 1 when a pass failed its exact
check (the result line is still printed); otherwise non-zero without a
result line, e.g. when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_SCRIPT = HERE / "bench_pass.py"
SETUP_PROBES = 9  # fresh interpreters per run; setup_s is their median
TIME_LIMIT_S = 170  # the whole run, probes included, stays under this


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
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


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child(args: list[str], deadline: float) -> str:
    """Run a bench_pass.py child to completion; return its last stdout line.

    The child leads its own process group, so a timeout also stops the
    census pool workers it forked.
    """
    proc = subprocess.Popen([sys.executable, str(PASS_SCRIPT), *args],
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{' '.join(args)}: no result within the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(args)}: exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit(f"{' '.join(args)}: printed nothing")
    return lines[-1]


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="smoke-size inputs (for the benchmark's own tests)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "kirillov" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    common = ["--workload", args.workload] + (["--smoke"] if args.smoke else [])
    def probe(count: int) -> list[float]:
        return [float(child(["--probe", *common], deadline))
                for _ in range(0 if args.trace else count)]

    # half the set-up probes before the passes and half after, so that
    # their median spans more than one moment of a shared machine's load
    probes = probe(SETUP_PROBES // 2)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_file = out_dir / f"{stem}.spans.json"
    raw = json.loads(child([*common, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace),
                            "--spans", str(spans_file)], deadline))
    probes += probe(SETUP_PROBES - SETUP_PROBES // 2)

    # pass i ran between calibrations i and i + 1 (see bench_pass.run_workload)
    calib = raw["calib_s"]
    timed = [(s, (calib[i] + calib[i + 1]) / 2)
             for i, (s, ok) in enumerate(raw["pass_s"]) if ok]
    timed = timed or [(s, (calib[i] + calib[i + 1]) / 2)
                      for i, (s, _) in enumerate(raw["pass_s"])]
    wall = statistics.median(s for s, _ in timed)
    wall_rel = statistics.median(s / cal for s, cal in timed)
    absolute = {"wall_s": (wall, "s"),
                "items_per_s": (raw["items_per_pass"] / wall, "items/s")}
    if args.trace:
        values = dict(raw["layers"])
        traced = [s for s, _ in raw["traced_pass_s"]]
        values["trace.overhead_s"] = statistics.median(traced) - wall
    else:
        values = {
            "wall_rel": wall_rel,
            "items_per_cal": raw["items_per_pass"] / wall_rel,
            "setup_s": statistics.median(probes),
            "peak_rss_mib": raw["peak_rss_kib"] / 1024,
        }
    if set(values) != set(units):
        print(f"metrics {sorted(set(values) ^ set(units))} are computed but "
              f"not declared in BENCHMARK.json, or declared but not computed",
              file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "sizes": raw["sizes"],
        "items_per_pass": raw["items_per_pass"],
        "samples": {"passes": len(raw["pass_s"]),
                    "traced_passes": len(raw["traced_pass_s"]),
                    "setup_probes": len(probes)},
        "wall_s": wall,
        "items_per_s": absolute["items_per_s"][0],
        "pass_s": raw["pass_s"],
        "traced_pass_s": raw["traced_pass_s"],
        "calib_s": raw["calib_s"],
        "setup_probe_s": probes,
        "fail_ratio": raw["failed"] / raw["attempted"],
        "problems": raw["problems"],
        "env": {"nproc": os.cpu_count(),
                "usable_cpus": len(os.sched_getaffinity(0)),
                "cpu": cpu_model(),
                "python": platform.python_version(),
                "numpy": raw["numpy"],
                "git_sha": git_sha()},
    }
    (out_dir / f"{stem}.record.json").write_text(json.dumps(record, indent=1))

    for name in sorted(values):
        print(f"{name:34s} {values[name]:>16.6g} {units[name]}")
    for name, (value, unit) in absolute.items():
        print(f"{name:34s} {value:>16.6g} {unit} (not declared: see README)")
    print(f"{'fail_ratio':34s} {record['fail_ratio']:>16.6g} "
          f"({raw['failed']} of {raw['attempted']} passes)")
    print(json.dumps({"record": record}))
    correct = raw["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in sorted(values)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
