"""Benchmark entry point: run one workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload open_loop --seed 3 --seconds 17 --trace 0

The library is imported from ``src/`` next to this directory, never from
an installed copy.  With ``--trace 0`` the last stdout line holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
separate traced run.  The full record -- host fingerprint, calibration
record, every raw and scaled item time -- is written under
``.perfbench/records/``, and traced spans under ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("paper_mixes", "open_loop", "closed_loop", "store_replay")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="drives the traffic tables and the store grid")
    parser.add_argument("--seconds", type=float, default=17.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_checkout_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` or raise ImportError."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise ImportError(f"repro resolved to {repro.__file__}, not {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # End-to-end numbers are taken with the program's own tracing off
    # and its sweeps inline, whatever the caller's environment says.
    for var in ("REPRO_TRACE", "REPRO_SWEEP_WORKERS"):
        os.environ.pop(var, None)
    try:
        import_checkout_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from harness import run_workload

    out_dir = ROOT / ".perfbench"
    workdir = out_dir / f"work-{os.getpid()}"
    try:
        metrics, attempted, failed, record, recorder = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp = f"{args.workload}-s{args.seed}-t{args.trace}-" \
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    records = out_dir / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{stamp}.json").write_text(json.dumps(record, indent=1))
    if recorder is not None:
        recorder.write(out_dir / "traces" / f"{stamp}.jsonl")
    for detail in record["failures"][:20]:
        print(f"perfbench: FAILED {detail['item']} round {detail['round']}: "
              f"{detail['detail']}", file=sys.stderr)
    cal = record["calibration"]
    print(f"# {args.workload} seed={args.seed} rounds={record['rounds']} "
          f"items/round={record['items_per_round']} "
          f"probe median {cal['probe_median_ms']:.3f} ms "
          f"(reference {cal['ref_probe_ms']} ms) host={record['host']}")
    if record["tail"]:
        t = record["tail"]
        print(f"# case_tail_ms is p{t['percentile']:.2f} of {t['samples']} "
              f"samples ({t['beyond']} beyond); raw items_per_s "
              f"{t['raw_items_per_s']:.6g}, raw case_p50_ms "
              f"{t['raw_case_p50_ms']:.6g}; work unit: {t['work_unit']}")
    for name, m in metrics.items():
        print(f"# {name:45s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
