"""One benchmark process: import dimlift, say ``ready``, run one workload.

    python3 perfbench/child.py --probe
    python3 perfbench/child.py --workload NAME --seed N --trace 0|1

The first line on stdout is ``ready``, written as soon as ``dimlift`` and
``dimlift.cli`` are imported; the parent times set-up up to that line.  Then
the child times a calibration kernel (``workloads.calibrate``), the host's
speed at that moment.  With ``--probe`` it prints that time and stops.  Otherwise
the last line is one JSON object with the check outcomes, the time of each
check and the calibrations between them, the peak RSS and the counters (and,
traced, the per-layer numbers).
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> int:
    # the import is the set-up being timed; nothing else is imported before it
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import dimlift
    import dimlift.cli

    print("ready", flush=True)

    import argparse
    import json
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    from workloads import WORKLOADS, calibrate

    calibrate()  # the first pass warms the loop
    ready_calib = calibrate()
    if args.probe:
        print(json.dumps({"calib_s": ready_calib}), flush=True)
        return 0
    pkg = os.path.join(ROOT, "src", "dimlift")
    if os.path.dirname(os.path.abspath(dimlift.__file__)) != pkg:
        print(f"dimlift was imported from {dimlift.__file__}, not {pkg}", file=sys.stderr)
        return 2

    from instrument import Instrument

    inst = Instrument(trace=bool(args.trace))
    inst.install()
    checks = WORKLOADS[args.workload](args.seed, inst)
    out = {
        "ready_calib_s": ready_calib,
        "wall_s": sum(checks.check_s),
        "check_s": checks.check_s,
        "calib_s": checks.calib_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "points": inst.points,
        "checks": checks.results,
    }
    if args.trace:
        out["layers"] = inst.layer_metrics()
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
