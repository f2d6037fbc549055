#!/usr/bin/env python3
"""Benchmark of record for the block-DAG embedding.

Builds the repository's libraries and perf/perf_harness from source into
.bench_build/, then repeats trials of one workload for --seconds seconds
and prints every metric by name with its unit. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --selftest

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 repeats
the workload with mailbox probes on, replays each trial's final DAG through
every layer and reports the per-layer metrics, writing a Chrome trace to
.bench_build/traces/<workload>.json. See perf/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "perf_harness"

# Workload names, metric names and units come from BENCHMARK.json, the
# benchmark's declaration at the repository root.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"]: w["why"] for w in SPEC["workloads"]}
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

MIN_TRIALS = 3
MIN_SAMPLES = 1000        # latency samples per run (>= 10 beyond p99)
HARD_CAP_S = 120          # stop starting trials past this, whatever else
RUN_DEADLINE_S = 170      # no trial may run past this (a run must end in 180 s)
TRIAL_TIMEOUT_S = 120
GEN_LATE_LIMIT_MS = 50.0  # open-loop generator lateness that voids a run
STEAL_LIMIT = 0.05        # host CPU share stolen by the hypervisor in a trial
STEAL_GRACE = 1.4         # a run may run this many times --seconds to replace
                          # trials disturbed by steal


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no repository sources next to {Path(__file__).parent.name}/")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "perf"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perf_harness"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd))


def trial_seed(seed, k):
    return (seed * 1_000_003 + k) % (1 << 63)


def run_trial(workload, seed, trace_out=None, load_scale=None, plant=None,
              timeout=TRIAL_TIMEOUT_S):
    cmd = [str(HARNESS), "--workload", workload, "--seed", str(seed)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if load_scale:
        cmd += ["--load-scale", str(load_scale)]
    if plant:
        cmd += ["--plant", plant]
    env = dict(os.environ, TMPDIR=str(BUILD / "tmp"))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"trial timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or (proc.returncode != 0 and not result.get("rss_exceeded")):
        return {"crashed": f"harness exited with {proc.returncode}: {proc.stderr[-500:]}"}
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    if not values:
        return 0.0
    values = sorted(values)
    pos = p * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def latency_blocks(trials):
    """Splits the run's latency samples, in trial order, into blocks of at
    least MIN_SAMPLES (so >= 10 lie beyond p99). A run reports the median
    block's percentile: one trial stalled by the host cannot set it."""
    blocks, current = [], []
    for t in trials:
        current += t["latency_ms"]
        if len(current) >= MIN_SAMPLES:
            blocks.append(current)
            current = []
    if current:
        if blocks:
            blocks[-1] += current
        else:
            blocks.append(current)
    return blocks


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perf", "CMakeLists.txt"):
        path = ROOT / top
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "none"
    proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() or "none"


def samples(trials):
    return sum(len(t["latency_ms"]) for t in trials)


def steady(trials):
    """The trials the hypervisor left alone. Steal comes from other tenants
    of the host in bursts of tens of seconds to minutes; it stretches
    wall-clock time and inflates CPU time, so it says nothing about the
    program."""
    return [t for t in trials if t["steal_frac"] <= STEAL_LIMIT]


def least_stolen(trials):
    """The steady trials, topped up to at least half of all trials (and
    MIN_TRIALS) with the least-stolen others, in trial order."""
    keep = max(len(steady(trials)), MIN_TRIALS, (len(trials) + 1) // 2)
    ranked = sorted(range(len(trials)), key=lambda i: trials[i]["steal_frac"])
    return [trials[i] for i in sorted(ranked[:keep])]


def measure(workload, seed, seconds, trace):
    trace_out = None
    if trace:
        (BUILD / "traces").mkdir(parents=True, exist_ok=True)
        trace_out = BUILD / "traces" / f"{workload}.json"
    trials, problems = [], []
    voided = None  # requests of a trial that died; voids the whole run
    start = time.monotonic()
    k = 0
    while True:
        elapsed = time.monotonic() - start
        calm = steady(trials)
        enough = k >= MIN_TRIALS and (trace or samples(trials) >= MIN_SAMPLES)
        enough_calm = len(calm) >= MIN_TRIALS and (trace or samples(calm) >= MIN_SAMPLES)
        if enough and elapsed >= seconds and (enough_calm or elapsed >= STEAL_GRACE * seconds):
            break
        if k >= MIN_TRIALS and elapsed >= HARD_CAP_S:
            break
        timeout = min(TRIAL_TIMEOUT_S, RUN_DEADLINE_S - elapsed)
        result = run_trial(workload, trial_seed(seed, k), trace_out, timeout=timeout)
        k += 1
        if "crashed" in result:
            problems.append(result["crashed"])
            voided = 0
            break
        if result.get("rss_exceeded"):
            problems.append(f"memory ceiling: {result['rss_mb']:.0f} MiB > "
                            f"{result['limit_mb']} MiB")
            voided = result["attempted"]
            break
        trials.append(result)
    return trials, problems, voided


def report(workload, seed, trace, trials, problems, voided):
    attempted = max(sum(t["attempted"] for t in trials) + (voided or 0), 1)
    if voided is None:
        failed = sum(t["attempted"] - t["committed"] if t["gate_ok"] else t["attempted"]
                     for t in trials)
    else:
        failed = attempted
    for t in trials:
        if not t["gate_ok"]:
            problems.append(f"correctness gate (seed {t['seed']}): {t['gate_error']}")
        if t["gen_late_p99_ms"] > GEN_LATE_LIMIT_MS:
            problems.append(f"invalid: generator ran {t['gen_late_p99_ms']:.1f} ms late "
                            f"at p99 (limit {GEN_LATE_LIMIT_MS} ms)")
    correct = not problems and bool(trials)

    # Failures count over every trial; figures come from the least-stolen.
    calm = steady(trials)
    measured = least_stolen(trials)
    timed = measured if trace or samples(measured) >= MIN_SAMPLES else trials
    blocks = latency_blocks(timed)
    committed = [t for t in measured if t["committed"] > 0]
    values = {
        "commit_p50_ms": median([percentile(b, 0.50) for b in blocks]),
        "commit_p99_ms": median([percentile(b, 0.99) for b in blocks]),
        "commit_rps": median([t["committed"] / t["window_s"] for t in committed
                              if t["window_s"] > 0]),
        "cpu_ms_per_req": median([1000.0 * t["cpu_s"] / t["committed"] for t in committed]),
        "peak_rss_mb": median([t["peak_rss_mb"] for t in measured]),
        "setup_s": median([t["setup_s"] for t in measured]),
    }
    first = trials[0] if trials else {}
    print(f"# host: nproc={first.get('nproc')} hardware_concurrency="
          f"{first.get('hardware_concurrency')} interpret_workers="
          f"{first.get('interpret_workers')} verifier_workers="
          f"{first.get('verifier_workers')} compiler=gcc-{first.get('compiler')} "
          f"build_type={first.get('build_type')} git={git_commit()} "
          f"source={source_digest()}")
    print(f"# workload {workload}: {WORKLOADS[workload]}")
    print(f"# seed={seed} trials={len(trials)} measured={len(measured)} "
          f"latency_trials={len(timed)} latency_samples={samples(timed)} "
          f"latency_blocks={len(blocks)} trace={'on' if trace else 'off'}")
    if len(calm) < len(trials):
        steal = [round(t["steal_frac"], 3) for t in trials]
        print(f"# steal: {len(trials) - len(calm)} trials had more than {STEAL_LIMIT:.0%} "
              f"of the host CPU stolen: {steal}")
    if len(measured) > len(calm):
        print(f"# WARN {len(measured) - len(calm)} measured trials had more than "
              f"{STEAL_LIMIT:.0%} host steal")
    for problem in problems:
        print(f"# FAIL {problem}")
    if trace:
        metrics = {}
        for name, unit in PER_LAYER:
            value = median([t["layers"].get(name, 0.0) for t in measured])
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
        print(f"# trace: {BUILD.name}/traces/{workload}.json")
    else:
        metrics = {}
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]:.6g} {unit}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def selftest():
    """Runs each workload briefly: the gate must pass on the honest run and
    fire on every planted fault."""
    ok = True
    (BUILD / "traces").mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        honest = run_trial(workload, 1, load_scale=0.25)
        passed = honest.get("gate_ok") is True and honest.get("committed", 0) > 0
        print(f"selftest {workload} honest: {'PASS' if passed else 'FAIL'} "
              f"{honest.get('gate_error') or honest.get('crashed', '')}")
        ok &= passed
        plants = ["tamper", "drop", "duplicate"]
        if workload.startswith("fifo"):
            plants.append("reorder")  # only FIFO promises an order
        plants.append("digest")  # caught by the traced replay
        for plant in plants:
            trace_out = BUILD / "traces" / "selftest.json" if plant == "digest" else None
            planted = run_trial(workload, 1, trace_out=trace_out, load_scale=0.25,
                                plant=plant)
            caught = planted.get("gate_ok") is False and bool(planted.get("gate_error"))
            print(f"selftest {workload} plant={plant}: "
                  f"{'PASS' if caught else 'FAIL'} ({planted.get('gate_error', '')})")
            ok &= caught
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return selftest()
    trials, problems, voided = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    report(args.workload, args.seed, bool(args.trace), trials, problems, voided)
    return 0


if __name__ == "__main__":
    sys.exit(main())
