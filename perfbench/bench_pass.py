"""Run the timed passes of one workload in a fresh interpreter.

    python3 perfbench/bench_pass.py --workload NAME --seed N --seconds S \
        --trace 0|1 [--smoke] [--spans FILE]
    python3 perfbench/bench_pass.py --probe --workload NAME [--smoke]

``run.py`` starts this as a child process, so that peak memory covers the
passes (and the census pool workers they fork) and nothing else.  The
last stdout line is a JSON object with the raw figures.  ``--probe``
instead times one set-up: importing the package plus the workload's
``warm()``, and prints the seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def use_repo_source() -> None:
    """Import ``kirillov`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "kirillov" / "__init__.py").is_file():
        raise SystemExit(f"no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import kirillov

    if SRC not in Path(kirillov.__file__).resolve().parents:
        raise SystemExit(f"kirillov imported from {kirillov.__file__}, not {SRC}")


def calibrate(mats) -> float:
    """Seconds for a fixed task that uses no repository code.

    A batch of 7x7 integer matrix products mod 7 plus a pure-Python
    integer loop, about 0.1 s.  Timed before every pass, it measures how
    fast the machine runs at that moment: on a shared host that speed
    swings by up to 1.7x within minutes, and pass times divided by it
    vary far less than pass times alone.
    """
    import numpy as np

    start = time.perf_counter()
    x = mats
    for _ in range(40):
        x = np.matmul(x, mats) % 7
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return time.perf_counter() - start


def one_pass(wl, rng, rec=None, pass_id=None) -> tuple[float, list[str], object]:
    """Time one pass with its exact check; with ``rec``, traced."""
    from bench_trace import installed

    with contextlib.ExitStack() as stack:
        if rec is not None:
            stack.enter_context(installed(rec))
            rec.pass_id = pass_id
            stack.callback(rec.close, rec.open("bench.pass"))
        start = time.perf_counter()
        try:
            problems, digest = wl.run_pass(rng)
        except Exception:  # a raising pass is a failed pass, not a crash
            problems, digest = [traceback.format_exc()], None
        seconds = time.perf_counter() - start
    return seconds, problems, digest


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until ``seconds`` would be exceeded (at least one).

    With ``trace``, each unit is an untraced pass followed by a traced
    one, so the run measures both the layers and the tracing overhead.
    A calibration precedes every unit and follows the last.  Every pass
    must verify and give the same digest as the first.
    """
    from bench_trace import Recorder, layer_metrics

    import numpy as np

    wl.warm()
    wl.reference()
    rng = random.Random(seed)
    rec = Recorder() if trace else None
    calib_mats = np.random.default_rng(0).integers(0, 7, size=(2000, 7, 7),
                                                   dtype=np.int32)
    plain, traced, calib, problems = [], [], [], []
    attempted = failed = 0
    first_digest = None
    started = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        calib.append(calibrate(calib_mats))
        for is_traced in ((False, True) if trace else (False,)):
            seconds_taken, found, digest = one_pass(
                wl, rng, rec if is_traced else None, pass_id=len(traced))
            if first_digest is None and not found:
                first_digest = digest
            if not found and digest != first_digest:
                found = [f"pass result differs from the first pass: {digest}"]
            attempted += 1
            failed += bool(found)
            problems.extend(found)
            (traced if is_traced else plain).append((seconds_taken, not found))
        now = time.perf_counter()
        if now - started + (now - unit_start) > seconds:
            break
    calib.append(calibrate(calib_mats))
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:5],
        "pass_s": plain,
        "traced_pass_s": traced,
        "calib_s": calib,
        "items_per_pass": wl.items,
        "sizes": wl.sizes,
        "peak_rss_kib": self_kib + child_kib,
        "numpy": np.__version__,
    }
    if trace:
        out["layers"] = layer_metrics(rec.spans, len(traced))
        out["spans"] = rec.spans
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans", help="write the recorded spans to this file")
    args = ap.parse_args(argv)

    start = time.perf_counter()
    use_repo_source()
    import bench_workloads

    wl = bench_workloads.make(args.workload, args.smoke)
    if args.probe:
        wl.warm()
        print(time.perf_counter() - start)
        return 0
    result = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    spans = result.pop("spans", None)
    if args.spans and spans is not None:
        Path(args.spans).write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
