"""Run one qprim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload is repeated, each time in a
fresh interpreter (perfbench/rep.py), a fixed number of times that S sets
(about S seconds on a 2-vCPU host), so that every run of a seed does the
same work.  On a shared host contention only ever adds time, so the times
are minima: wall_s sums, over the calls of the serial phase, each call's
fastest time over the repetitions.  setup_s and peak_rss_mb are medians
over the repetitions.

With --trace 0 the repetitions run the serial phase alone, untraced, and the
end-to-end metrics of BENCHMARK.json are reported.  With --trace 1, which
makes a third as many repetitions, each repetition first runs the pooled
phase (pool.wall_s_2w, the fastest one), and untraced and traced serial
phases alternate; the per-layer metrics come from the traced ones, and
trace.overhead_frac compares the serial wall time of the two kinds.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The lines before it describe the machine, the work done and any
wrong answer.  Exits 1 if a repetition fails to run and 2 if the qprim
sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_instances", "candidate_rank", "record_verify", "base_sweep", "prime_count")
# Every repetition must end, result printed, within this many seconds of start.
BUDGET_S = 170.0
# Seconds one untraced repetition takes on a 2-vCPU host: set-up, the serial
# phase and the checks.  The number of repetitions is --seconds over this,
# whatever the host's speed, so that attempted and failed depend on the seed
# alone.
REP_S = {
    "paper_instances": 6.0,
    "candidate_rank": 4.1,
    "record_verify": 2.5,
    "base_sweep": 2.8,
    "prime_count": 1.5,
}


def machine(seed: int) -> dict:
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qprim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_rep(args, traced: bool, oracle: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    if args.trace:
        cmd.append("--pooled")
    if traced:
        cmd.append("--traced")
    if oracle:
        cmd.append("--oracle")
    cmd += ["--launched", repr(time.monotonic())]
    # A fixed hash seed keeps set and dict layouts alike from one repetition to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True, env=env
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit("a repetition ran past the time budget")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"a repetition exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qprim" / "__init__.py").is_file():
        print(f"qprim sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        # with the pooled phase and the tracer a repetition takes up to four
        # times as long as a plain one
        n_reps = max(4, round(args.seconds / (3 * REP_S[args.workload])))
    else:
        n_reps = max(3, round(args.seconds / REP_S[args.workload]))
    reps: list[dict] = []
    for i in range(n_reps):
        traced = bool(args.trace) and i % 2 == 1
        reps.append(run_rep(args, traced, oracle=i == 0, deadline=deadline))

    plain = [r for r in reps if not r["traced"]]
    values = {}
    if args.trace:
        traced_reps = [r for r in reps if r["traced"]]
        for name in traced_reps[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced_reps)
        values["pool.wall_s_2w"] = min(r["wall_s_2w"] for r in reps)
        values["trace.overhead_frac"] = (
            statistics.median(r["wall_s"] for r in traced_reps) / statistics.median(r["wall_s"] for r in plain) - 1.0
        )
    else:
        values["wall_s"] = sum(min(times) for times in zip(*(r["call_s"] for r in plain)))
        for name in ("setup_s", "peak_rss_mb"):
            values[name] = statistics.median(r[name] for r in plain)

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    mismatches = [m for r in reps for m in r["mismatches"]]
    info = {
        "machine": machine(args.seed),
        "workload": args.workload,
        "repetitions": len(reps),
        "traced_repetitions": len(reps) - len(plain),
        "samples": {k: [r[k] for r in plain] for k in ("setup_s", "wall_s")},
        "wall_s_min": min(r["wall_s"] for r in plain),
        "wall_s_median": statistics.median(r["wall_s"] for r in plain),
        "workers": reps[0]["workers"],
        "work": reps[0]["work"],
        "oracle_checks": reps[0]["oracle_checks"],
        "fail_frac": failed / attempted,
        "known_defects": sum(r["known_defects"] for r in reps),
    }
    if args.trace:
        wall = statistics.median(r["wall_s"] for r in plain)
        # the pooled phase's span is not part of the serial wall_s
        serial = {k: v for k, v in values.items() if k.endswith(".s") and k != "streaks.empirical_max_streak.s"}
        busy = sorted(((v, k[:-2]) for k, v in serial.items()), reverse=True)[:3]
        info["self_share_of_wall_s"] = {name: s / wall for s, name in busy}
    print(json.dumps(info))
    for m in mismatches:
        print(f"MISMATCH {m}")
    for metric in wanted:
        print(f"{metric['name']:<45} {values[metric['name']]:>14.6g} {metric['unit']}")
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
