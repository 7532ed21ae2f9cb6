#!/usr/bin/env python3
"""Build and run the SpecLens benchmark; compare two of its results.

Run from the root of a SpecLens checkout:

    python3 perfbench/run.py --workload campaign-cold --seed 0 \\
        --seconds 15 --trace 0
    python3 perfbench/run.py --compare OLD.json NEW.json

A run builds the benchmark program (perfbench/CMakeLists.txt, Release) into the
directory named by CARGO_TARGET_DIR (default .bench_build), runs one
workload, writes the full record -- metrics, checks, host block, and for
traced runs the layer table and every span -- to
<build dir>/perfbench-results/, and prints as its last line
{"correct", "attempted", "failed", "metrics"}.  It exits non-zero when
the build fails or any operation or correctness check failed.

--compare refuses two records whose host blocks differ (CPU model,
processor count, build type, LTO, metrics switch), because their
timings are not comparable.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("campaign-cold", "serve-warm", "serve-cold")
HOST_IDENTITY = ("cpu_model", "nproc", "build_type", "lto", "metrics")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then bring the benchmark program up to date; stdout stays clean."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "speclens_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "speclens_perfbench"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    if not (ROOT / ".git").exists():
        return None
    result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest():
    """SHA-256 over the program and benchmark sources, for checkouts that
    are not git repositories."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_block(record, load_before, load_after):
    built = record["detail"]["build"]
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_before": list(load_before),
        "load_after": list(load_after),
        "build_type": built["build_type"],
        "lto": built["lto"],
        "metrics": built["metrics"],
        "commit": commit(),
        "source_digest": source_digest(),
    }


def run(args):
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        log(f"no SpecLens sources under {ROOT}")
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    target = (target if target.is_absolute() else Path.cwd() / target)
    try:
        binary = build(target / "perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        log(f"build failed: {error}")
        return 1

    work_dir = target / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    load_before = os.getloadavg()
    try:
        proc = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--work-dir", str(work_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    load_after = os.getloadavg()
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark program exited {proc.returncode} without a record")
        return 1
    record = json.loads(lines[-1])
    record["host"] = host_block(record, load_before, load_after)

    results = target / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    documented = set(layers["per_layer" if args.trace else "end_to_end"])
    documented.discard("error_rate")
    if documented != set(record["metrics"]):
        log("metrics differ from perfbench/layers.json: "
            f"{sorted(documented ^ set(record['metrics']))}")
        return 1
    for failure in record["detail"].get("failures", []):
        log(f"FAILED: {failure}")
    for name, metric in sorted(record["metrics"].items()):
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    error_rate = record["failed"] / max(record["attempted"], 1)
    print(f"{'error_rate':34s} {error_rate:>16.6g} ratio "
          f"({record['failed']} of {record['attempted']} failed)")
    if "query_samples" in record["detail"]:
        print(f"{'query_samples':34s} {record['detail']['query_samples']:>16}")
    print(f"record: {out}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if proc.returncode == 0 and record["correct"] else 1


def compare(paths):
    old, new = (json.loads(Path(p).read_text()) for p in paths)
    differing = [key for key in HOST_IDENTITY
                 if old["host"][key] != new["host"][key]]
    if differing:
        for key in differing:
            log(f"host blocks differ in {key}: {old['host'][key]!r} vs "
                f"{new['host'][key]!r}")
        log("refusing to compare results from different hosts or builds")
        return 3
    for name in sorted(set(old["metrics"]) | set(new["metrics"])):
        a = old["metrics"].get(name, {}).get("value")
        b = new["metrics"].get(name, {}).get("value")
        ratio = f"{b / a:8.3f}" if a and b is not None else "       -"
        print(f"{name:34s} {a!s:>22} {b!s:>22} {ratio}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    if args.workload is None or args.seed < 0 or args.seconds < 1:
        parser.error("--workload is required; --seed >= 0; --seconds >= 1")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
