#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from the sources in this checkout (release
profile, offline; `CARGO_TARGET_DIR` defaults to `.bench_build`), then
runs the workload in a fresh process. Commentary lines start with `#`;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics, with `--trace 1` the per-layer ones.
Traced runs also write their spans to `.bench_out/`.

`--workload all` runs every workload untraced and then traced, prints the
named metrics with units and sample counts, the error rate and the
tracing overhead, and exits non-zero when any output check failed.

Exit codes: 0 all checks passed; 1 an output check failed (the result
line is still printed); 2 the benchmark could not run (no result line).
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
WORKLOADS = ["membership-flat", "dissemination-par", "service-udp", "scenario-paper"]
E2E = ["setup_s", "actions_per_s", "job_s", "peak_rss_mb"]
RUN_TIMEOUT_S = 170
# The figures each workload reports under its own name, in print order.
NAMED = {
    "membership-flat": ["setup_s", "steps_per_s", "peak_rss_mb"],
    "dissemination-par": [
        "setup_s", "steps_per_s", "peak_rss_mb", "time_to_99_s", "rounds_to_99",
        "msgs_per_node",
    ],
    "service-udp": ["setup_s", "actions_per_s", "ctl_p50_ms", "ctl_p99_ms", "scrape_p50_ms"],
    "scenario-paper": ["setup_s", "peak_rss_mb", "scenario_s"],
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"no binary at {binary}")
    return binary


def raise_fd_limit():
    # The udp workload binds one socket per node.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 8192 if hard == resource.RLIM_INFINITY else min(8192, hard)
    if soft != resource.RLIM_INFINITY and soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns its result object."""
    cmd = [binary, workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        cmd += ["--spans", os.path.join(out_dir, f"spans-{workload}-{seed}-{stamp}.jsonl")]
    env = dict(os.environ)
    # Scenario replicates run one at a time on the engine's own threads,
    # so the process never holds more runnable threads than cores.
    env["SANDF_SWEEP_THREADS"] = "1"
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S}s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
        # Failed checks and requests go to standard error too, so a log that
        # keeps only that stream still says why a run failed.
        if line.startswith(("# check FAIL", "# first failed")):
            print(f"perfbench: seed {seed}: {line[2:]}", file=sys.stderr)
    if done.returncode not in (0, 1) or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{workload} printed no result")
    if (done.returncode == 0) != result["correct"]:
        fail(f"{workload}: exit code {done.returncode} disagrees with its checks")
    return result


def contract_line(result, trace):
    family = result["layers"] if trace else result["e2e"]
    if not trace and sorted(family) != sorted(E2E):
        fail(f"end-to-end metrics {sorted(family)} differ from {E2E}")
    metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in family.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def error_rate(result):
    return result["failed"] / max(1, result["attempted"])


def run_all(binary, seed, seconds):
    print("# workload\tmetric\tvalue\tunit\tsamples")
    summary = {}
    ok = True
    for workload in WORKLOADS:
        plain = run_one(binary, workload, seed, seconds, 0)
        traced = run_one(binary, workload, seed, seconds, 1)
        named = plain["named"]
        rows = [(n, named[n] if n in named else plain["e2e"][n]) for n in NAMED[workload]]
        for name, m in rows:
            print(f"# {workload}\t{name}\t{m['value']}\t{m['unit']}\t{m['samples']}")
        checks = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        print(f"# {workload}\terror_rate\t{failed / max(1, checks)}\tratio\t{checks}")
        layers = traced["layers"]
        base, slow = plain["e2e"]["job_s"]["value"], traced["e2e"]["job_s"]["value"]
        print(f"# {workload}\ttrace.coverage\t{layers['trace.coverage']['value']:.4f}\tratio\t1")
        print(f"# {workload}\ttrace.overhead_job_s\t{(slow - base) / base:.4f}\tratio\t1")
        print(f"# {workload}\ttrace.overhead_est\t"
              f"{layers['trace.overhead_frac']['value']:.4f}\tratio\t1")
        ok = ok and plain["correct"] and traced["correct"]
        summary[workload] = {"attempted": checks, "failed": failed}
    attempted = sum(s["attempted"] for s in summary.values())
    failed = sum(s["failed"] for s in summary.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": {"error_rate": {"value": failed / max(1, attempted),
                                                 "unit": "ratio"}}}))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the sandf sources are not next to the benchmark")
    binary = build()
    raise_fd_limit()
    if args.workload == "all":
        sys.exit(0 if run_all(binary, args.seed, args.seconds) else 1)
    result = run_one(binary, args.workload, args.seed, args.seconds, args.trace)
    print(f"# error_rate {error_rate(result)} ({result['failed']} of {result['attempted']})")
    print(json.dumps(contract_line(result, args.trace)))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
