#!/usr/bin/env python3
"""Whole-scenario benchmark of the ssbft simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds perfbench_measure from the
checkout's sources (build directory: $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench), runs one workload in a fresh measuring process,
checks every run's outcome, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. Exit status is 0 only when every check passed and every
metric named in BENCHMARK.json was measured. `--workload all` runs every
workload in turn, each in its own measuring process, and prints each one's
provenance and result lines. README.md next to this file documents the
workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("agree_flat_serial", "log_pipeline_sharded", "chaos_duty",
             "byz_cocktail")
# Longest a measuring process may take after its measuring budget (one
# oversized last round plus evaluation) before it is killed.
MEASURE_GRACE_S = 120


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build(root):
    src = os.path.join(root, "src")
    if not os.path.isdir(src) or not any(
            f.endswith(".cpp") for _, _, files in os.walk(src) for f in files):
        raise BenchError(f"no simulator sources under {src}; run from the "
                         "root of a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "perfbench_measure"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench_measure")


def run_measure(binary, workload, seed, seconds, mode):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=seconds + MEASURE_GRACE_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"perfbench_measure exceeded {seconds + MEASURE_GRACE_S} s")
    if done.returncode != 0:
        raise BenchError(f"perfbench_measure exited with {done.returncode}")
    records = []
    for line in done.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            raise BenchError(f"perfbench_measure printed a non-JSON line: {line[:120]}")
    return records


# --- evaluation --------------------------------------------------------------

def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        raise BenchError(f"{n} latency samples; the tail needs at least 11")
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def run_failures(run):
    """Outcome checks of one untraced run: reasons it failed (empty = ok)."""
    why = []
    if not run["pass"]:
        why.append("evaluate_stack(...).pass is false")
    if run["agreement_violations"]:
        why.append(f"{run['agreement_violations']} agreement violations")
    if run["validity_violations"]:
        why.append(f"{run['validity_violations']} validity violations")
    if run["phantom_decisions"]:
        why.append(f"the phantom value was decided {run['phantom_decisions']}"
                   " times")
    return why


def evaluate(records, trace, names):
    """Judge the measured records against the metric `names` expected.
    Returns (result, metrics, problems, detail): the result object without
    its metrics, every metric measured, every failed check, and what the
    result line has no room for."""
    problems = []
    runs = [r for r in records if r.get("type") == "run"]
    rounds = [r for r in records if r.get("type") == "layers"]
    probes = [r for r in records if r.get("type") == "probe"]
    process = next((r for r in records if r.get("type") == "process"), None)
    if not runs or process is None:
        raise BenchError("perfbench_measure produced no run or no process record")

    # by_scenario[i][k]: the k-th repeat of the workload's scenario i.
    by_scenario = {}
    for run in runs:
        by_scenario.setdefault(int(run["scenario"]), []).append(run)
    scenarios = [by_scenario[i] for i in sorted(by_scenario)]
    # Every repeat of a scenario must replay the same history.
    references = [repeats[0]["digest"] for repeats in scenarios]
    ok = {}
    for i, repeats in enumerate(scenarios):
        for k, run in enumerate(repeats):
            why = run_failures(run)
            if run["digest"] != references[i]:
                why.append(f"digest {run['digest']} != first run's "
                           f"{references[i]}")
            if why:
                problems.append(f"scenario {i} repeat {k}: " + "; ".join(why))
            ok[id(run)] = not why
    failed = sum(1 for run in runs if not ok[id(run)])
    attempted = len(runs)
    # The traced run and the serial twin must be invisible in the digest.
    for k, rnd in enumerate(rounds):
        attempted += 1
        digests = zip(rnd["digest_untraced"], rnd["digest_traced"],
                      rnd["digest_twin"], references)
        if len(rnd["digest_untraced"]) != len(references) or \
                any(len(set(d)) != 1 for d in digests):
            failed += 1
            problems.append(f"round {k}: digests differ (untraced "
                            f"{rnd['digest_untraced']}, traced "
                            f"{rnd['digest_traced']}, twin "
                            f"{rnd['digest_twin']}, first runs {references})")
    # A probe is the full scenario cut after its last recovery span, so the
    # probe under the workload's own seed must see the full run's windows.
    attempted += len(probes)
    if probes and probes[0]["stabilize_ms"] != \
            scenarios[0][0]["stabilize_ms"]:
        failed += 1
        problems.append(f"probe 0 windows {probes[0]['stabilize_ms']} != "
                        f"full run's {scenarios[0][0]['stabilize_ms']}")

    metrics = {}
    detail = {"runs": len(runs), "rounds": len(rounds),
              "probes": len(probes), "digests": references,
              "shards": process["shards"],
              "hardware_threads": process["hardware_threads"],
              "pinned_cpu": process["pinned_cpu"]}
    firsts = [next((r for r in repeats if ok[id(r)]), None)
              for repeats in scenarios]
    if None not in firsts:
        primary = firsts[0]
        tail_ms, tail_pct, samples = tail(primary["latency_ms"])
        detail.update(latency_tail_pct=tail_pct, latency_samples=samples,
                      completed=[r["completed"] for r in firsts],
                      injected=[r["injected"] for r in firsts])
        # A repeat's wall time is the sum over its scenarios and its peak
        # memory the largest; only repeats whose every run passed count.
        repeats = [repeat for repeat in zip(*scenarios)
                   if all(ok[id(run)] for run in repeat)]
        if not trace and repeats:
            setups = {}
            for r in records:
                if r.get("type") == "setup":
                    setups.setdefault(r["cpu"], []).append(r["setup_s"])
            walls = [sum(run["wall_s"] for run in repeat)
                     for repeat in repeats]
            peaks = [max(run["peak_rss_mb"] for run in repeat)
                     for repeat in repeats]
            windows = [w for p in probes for w in p["stabilize_ms"]] or \
                primary["stabilize_ms"]
            metrics = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.mean(statistics.median(v)
                                           for v in setups.values()),
                "peak_rss_mb": statistics.median(peaks),
                "latency_p50_ms": statistics.median(primary["latency_ms"]),
                "latency_tail_ms": tail_ms,
                "completed_frac": sum(r["completed"] for r in firsts) /
                sum(r["injected"] for r in firsts),
                "stabilize_p50_ms": statistics.median(windows),
            }
            detail.update(wall_s_repeats=walls, stabilize_windows=len(windows))
        elif trace and rounds:
            for key in rounds[0]:
                if key == "type" or key.startswith("digest"):
                    continue
                metrics[key] = statistics.median(r[key] for r in rounds)
            metrics["harness.latency_tail_pct"] = tail_pct

    for name in names:
        value = metrics.get(name)
        if value is None or not math.isfinite(value):
            problems.append(f"metric {name} was not measured")
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed}
    return result, metrics, problems, detail


def finish(result, metrics, problems, units):
    """Print the result line; the exit status for it."""
    result["metrics"] = {m: {"value": metrics[m], "unit": units[m]}
                         for m in units if m in metrics}
    for p in problems:
        log(f"CHECK FAILED: {p}")
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


# --- provenance --------------------------------------------------------------

def source_identity(root):
    """The commit when `root` is the top of a git repository, and always a
    hash of the src/ tree (the checkout the benchmark runs in may not be a
    repository)."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                os.path.samefile(lines[0], root):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    paths = sorted(os.path.join(base, name)
                   for base, _, files in os.walk(os.path.join(root, "src"))
                   for name in files)
    digest = hashlib.sha256()
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return commit, digest.hexdigest()


# --- main --------------------------------------------------------------------

def load_spec(root):
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def bench(args):
    root = os.getcwd()
    end_to_end, per_layer = load_spec(root)
    units = per_layer if args.trace else end_to_end
    binary = build(root)
    records = run_measure(binary, args.workload, args.seed, args.seconds,
                         "layers" if args.trace else "plain")
    return report(records, args, units, root)


def report(records, args, units, root):
    """Judge `records`, store them with their provenance, print the result
    line; the exit status."""
    result, metrics, problems, detail = evaluate(records, args.trace,
                                                 list(units))
    build_info = next(r for r in records if r.get("type") == "build")
    commit, src_sha = source_identity(root)
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": build_info["build_type"],
        "ssbft_tracing": bool(build_info["ssbft_tracing"]),
        "commit": commit, "src_sha256": src_sha, **detail,
    }
    print(json.dumps({"provenance": provenance}), flush=True)
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w") as fh:
        json.dump({"provenance": provenance, "problems": problems,
                   "metrics": metrics, "records": records}, fh)
    return finish(result, metrics, problems, units)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    # As an exception, SIGTERM makes subprocess.run kill and reap perfbench_measure.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            status |= bench(argparse.Namespace(**{**vars(args),
                                                  "workload": workload}))
        except BenchError as err:
            log(f"error: {workload}: {err}")
            status = 1
    return status


# --- self-test ---------------------------------------------------------------

def synthetic_records(trace, per_layer):
    """A passing measurement transcript of a two-scenario workload: two
    stabilization probes, three repeats, one traced round."""
    digests = ["00000000000000aa", "00000000000000bb"]
    windows = [3.0, 4.0, 5.0]
    records = [{"type": "build", "build_type": "Release", "ssbft_tracing": 1}]
    records += [{"type": "setup", "cpu": i % 2, "setup_s": 1e-3 + i * 1e-5}
                for i in range(4)]
    records += [{"type": "probe", "seed": 1, "stabilize_ms": windows},
                {"type": "probe", "seed": 7, "stabilize_ms": [2.0, 6.0, 1.0]}]
    for i in range(3):
        for scenario, digest in enumerate(digests):
            records.append({
                "type": "run", "scenario": scenario,
                "wall_s": 2.0 + 0.01 * i, "peak_rss_mb": 20.0 + i,
                "digest": digest, "pass": True,
                "agreement_violations": 0, "validity_violations": 0,
                "phantom_decisions": 0, "completed": 5 - 2 * scenario, "injected": 5,
                "latency_ms": [1.0 + 0.01 * k for k in range(40)],
                "stabilize_ms": windows})
    if trace:
        rnd = {"type": "layers", "digest_untraced": list(digests),
               "digest_traced": list(digests), "digest_twin": list(digests)}
        rnd.update({name: 1.0 for name in per_layer
                    if name != "harness.latency_tail_pct"})
        records.append(rnd)
    records.append({"type": "process", "hardware_threads": 4, "shards": 1,
                    "pinned_cpu": -1 if trace else 0})
    return records


def self_test():
    """Each seeded fault must make the benchmark exit non-zero; the clean
    transcript must exit zero with every metric in its result line."""
    import contextlib
    import copy
    import io

    root = os.path.dirname(HERE)
    end_to_end, per_layer = load_spec(root)

    def run_case(records, trace, units):
        args = argparse.Namespace(workload="self-test", seed=1, seconds=1,
                                  trace=trace)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = report(records, args, units, root)
        return code, json.loads(out.getvalue().splitlines()[-1])

    def mutate(trace, change):
        records = copy.deepcopy(synthetic_records(trace, per_layer))
        change(records)
        return records

    def runs(records):
        return [r for r in records if r.get("type") == "run"]

    def set_key(pick, key, value):
        return lambda records: pick(records).__setitem__(key, value)

    def layers(records):
        return next(r for r in records if r.get("type") == "layers")

    def set_digest(key, i):
        return lambda records: layers(records)[key].__setitem__(
            i, "00000000000000ab")

    cases = [
        ("repeat digest mismatch", 0, end_to_end,
         set_key(lambda rs: runs(rs)[4], "digest", "00000000000000ab")),
        ("second scenario digest mismatch", 0, end_to_end,
         set_key(lambda rs: runs(rs)[5], "digest", "00000000000000ab")),
        ("traced digest mismatch", 1, per_layer,
         set_digest("digest_traced", 0)),
        ("serial twin digest mismatch", 1, per_layer,
         set_digest("digest_twin", 1)),
        ("agreement violation", 0, end_to_end,
         set_key(lambda rs: runs(rs)[1], "agreement_violations", 1)),
        ("validity violation", 0, end_to_end,
         set_key(lambda rs: runs(rs)[0], "validity_violations", 2)),
        ("phantom value decided", 0, end_to_end,
         set_key(lambda rs: runs(rs)[3], "phantom_decisions", 1)),
        ("no repeat passes in every scenario", 0, end_to_end,
         lambda rs: [runs(rs)[k].__setitem__("pass", False)
                     for k in (0, 3, 5)]),
        ("stack outcome fails", 0, end_to_end,
         set_key(lambda rs: runs(rs)[0], "pass", False)),
        ("probe disagrees with the full run", 0, end_to_end,
         set_key(lambda rs: next(r for r in rs if r.get("type") == "probe"),
                 "stabilize_ms", [3.0, 4.0, 5.5])),
        ("missing per-layer metric", 1, per_layer,
         lambda rs: layers(rs).pop("net.sent")),
        ("missing end-to-end metric", 0,
         dict(end_to_end, unmeasured_metric="s"), lambda rs: None),
    ]
    failures = []
    for trace, units in ((0, end_to_end), (1, per_layer)):
        code, line = run_case(synthetic_records(trace, per_layer), trace,
                              units)
        if code != 0 or not line["correct"] or set(line["metrics"]) != \
                set(units):
            failures.append(f"clean transcript (trace {trace}) rejected")
    for name, trace, units, change in cases:
        code, line = run_case(mutate(trace, change), trace, units)
        if code == 0 or line["correct"]:
            failures.append(f"{name}: accepted")
    for failure in failures:
        log(f"self-test FAILED: {failure}")
    if not failures:
        log(f"self-test OK: clean transcripts accepted, {len(cases)} seeded "
            "faults rejected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
