#!/usr/bin/env python3
"""The repository benchmark: builds perfbench, runs workloads, checks
its outputs against pinned values and prints every metric by name.

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --trace 1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-pins

Run from the repository root. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones; with
--workload all each metric name is prefixed by its workload. The
exit code is non-zero when the build fails or any output check fails.
README.md in this directory defines every workload and metric.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PINS_PATH = os.path.join(HERE, "pins.json")
RUN_TIMEOUT_S = 170

# Every workload runs a fixed pool of trial seeds: trial cost varies
# several-fold by seed, so the pool, not one seed, is the workload. The
# --seed argument orders the pool (and so picks the warm-up seed).
POOLS = {
    "fig7": list(range(1, 8)),
    "field1k": list(range(1, 7)),
    "medium.fading": list(range(1, 21)),
}

# Deterministic outputs pinned per (workload, seed).
PINNED = ["download_s", "completion", "transmissions", "collided", "events",
          "delivered"]

# Metric names, units and directions live in BENCHMARK.json at the root.
SPEC_PATH = os.path.join(HERE, "..", "BENCHMARK.json")

# The stack counts (ndn.*, crypto.*, dapes.* metrics counted in events or
# KB) must all be zero on a workload that bypasses the NDN stack and all
# move on a stack workload. cs.evict may stay zero on a stack workload: the
# Fig. 7 collection (1280 packets) fits the 4096-entry content store.
STACK_LAYERS = ("ndn", "crypto", "dapes")
MAY_BE_ZERO_ON_STACK = {"ndn.cs.evict"}
STACK_WORKLOADS = {"fig7", "field1k"}


def load_spec():
    """(end-to-end, per-layer) lists of (name, unit) from BENCHMARK.json,
    plus its workload names."""
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    return ([(m["name"], m["unit"]) for m in spec["end_to_end"]],
            [(m["name"], m["unit"]) for m in spec["per_layer"]],
            [w["name"] for w in spec["workloads"]])


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "perfbench")


def configured_source(out):
    """The source directory a build tree was configured from, or None."""
    try:
        with open(os.path.join(out, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return os.path.realpath(line.split("=", 1)[1].strip())
    except OSError:
        pass
    return None


def build():
    """Configure (once) and build perfbench; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    source = configured_source(out)
    if source is not None and source != os.path.realpath(HERE):
        shutil.rmtree(out)  # configured from another checkout: start clean
        source = None
    if source is None:
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    # Compiler temporaries stay inside the build tree, not in /tmp.
    tmp = os.path.abspath(os.path.join(out, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_commit():
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(".")))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                           text=True, env=env, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


# -------------------------------------------------------------------- run

def run_binary(binary, workload, seeds, seconds, trace, tiny=False):
    cmd = [binary, "--workload", workload,
           "--seeds", ",".join(str(s) for s in seeds),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if tiny:
        cmd.append("--tiny")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                       text=True, timeout=RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit("perfbench: %s exited with %d" % (cmd[0], r.returncode))
    lines = [json.loads(line) for line in r.stdout.splitlines() if line.strip()]
    by_kind = {}
    for line in lines:
        by_kind.setdefault(line["kind"], []).append(line)
    return by_kind


def pinned_outputs(outputs):
    return {k: outputs[k] for k in PINNED}


def check_trial(trial, pins, trace):
    """Problems with one trial's outputs (empty list when it passes)."""
    problems = []
    seed = str(trial["seed"])
    got = pinned_outputs(trial["outputs"])
    want = pins.get(seed)
    if want is None:
        problems.append("seed %s has no pinned outputs" % seed)
    elif got != want:
        diff = {k: (got[k], want[k]) for k in PINNED if got[k] != want[k]}
        problems.append("seed %s outputs differ from pins (got, pinned): %s"
                        % (seed, diff))
    if trace:
        traced = pinned_outputs(trial["traced_outputs"])
        if traced != got:
            diff = {k: (traced[k], got[k]) for k in PINNED if traced[k] != got[k]}
            problems.append("seed %s traced outputs differ from untraced "
                            "(traced, untraced): %s" % (seed, diff))
        if trial["traced_counters"] != trial["counters"]:
            problems.append("seed %s codec/crypto/peer counts differ between "
                            "the traced and untraced runs" % seed)
        if trial["trace"]["dropped"] != 0:
            problems.append("seed %s trace dropped records" % seed)
    return problems


# ------------------------------------------------------------ aggregation

def end_to_end_metrics(runs):
    trials = runs["trial"]
    rounds = {}
    for t in trials:
        rounds.setdefault(t["round"], []).append(t["run_s"])
    n = len(trials)
    return {
        "trial_wall_s": statistics.median(
            statistics.fmean(v) for v in rounds.values()),
        "setup_s": statistics.median(t["run_s"] - t["loop_s"] for t in trials),
        "peak_rss_mb": runs["process"][0]["peak_rss_kb"] / 1024.0,
        "download_s": sum(t["outputs"]["download_s"] for t in trials) / n,
        "transmissions_k":
            sum(t["outputs"]["transmissions"] for t in trials) / n / 1000.0,
        "completion": sum(t["outputs"]["completion"] for t in trials) / n,
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(runs):
    trials = runs["trial"]
    build_counts = runs["build"][0]["counters"]
    k = runs["kernels"][0]
    n = len(trials)

    def total(fn):
        return sum(fn(t) for t in trials)

    def ev(name):
        return total(lambda t: t["trace"]["counts"][name])

    def ctr(name):  # codec / verify counts net of building the world
        return total(lambda t: t["counters"][name] - build_counts[name])

    loop = total(lambda t: t["loop_s"])
    rx, loss, coll = ev("medium.rx"), ev("medium.drop_loss"), ev("medium.drop_collision")
    idec, ddec, enc = ctr("interest_decodes"), ctr("data_decodes"), ctr("encodes")
    decodes = idec + ddec
    ns_decode = (ratio(idec * k["interest_decode_ns"] + ddec * k["data_decode_ns"], decodes)
                 if decodes else (k["interest_decode_ns"] + k["data_decode_ns"]) / 2)
    digests, mac_hits = ctr("digests"), ctr("mac_hits")
    prewarm = ev("crypto.prewarm")
    prewarm_cached = total(lambda t: t["trace"]["prewarm_cached"])
    sched_ops = ev("sched.schedule") + ev("sched.cancel") + ev("sched.fire")
    table_ops = sum(ev(e) for e in (
        "cs.insert", "cs.hit", "cs.miss", "cs.evict", "pit.insert",
        "pit.aggregate", "pit.satisfy", "pit.expire", "pit.loop_drop",
        "fib.hit", "fib.miss"))

    m = {
        "harness.loop_s": loop / n,
        "harness.sim_s_per_wall_s": ratio(total(lambda t: t["trace"]["sim_s"]), loop),
        "sim.sched.events": total(lambda t: t["outputs"]["events"]) / n,
        "sim.sched.schedule": ev("sched.schedule") / n,
        "sim.sched.cancel": ev("sched.cancel") / n,
        "sim.sched.fire": ev("sched.fire") / n,
        "sim.sched.cancel_ratio": ratio(ev("sched.cancel"), ev("sched.schedule")),
        "sim.sched.ns_per_event": k["sched_ns_per_event"],
        "sim.sched.ns_per_op": k["sched_ns_per_op"],
        "sim.medium.tx": ev("medium.tx") / n,
        "sim.medium.rx": rx / n,
        "sim.medium.drop_loss": loss / n,
        "sim.medium.drop_collision": coll / n,
        "sim.medium.capture": ev("medium.capture") / n,
        "sim.medium.fanout": ratio(rx + loss + coll, ev("medium.tx")),
        "sim.medium.rx_ratio": ratio(rx, rx + loss + coll),
        "sim.medium.collided_frames": total(lambda t: t["outputs"]["collided"]) / n,
        "sim.channel.state": ev("channel.state") / n,
        "sim.channel.bad_ratio": ratio(total(lambda t: t["trace"]["channel_bad"]),
                                       ev("channel.state")),
        "ndn.codec.interest_decodes": idec / n,
        "ndn.codec.data_decodes": ddec / n,
        "ndn.codec.encodes": enc / n,
        "ndn.codec.wire_cache_hits": ctr("wire_cache_hits") / n,
        "ndn.codec.decodes_per_rx": ratio(decodes, rx),
        "ndn.codec.ns_per_decode": ns_decode,
        "ndn.face.interest_frames": ctr("interest_frames") / n,
        "ndn.face.data_frames": ctr("data_frames") / n,
        "ndn.cs.hit": ev("cs.hit") / n,
        "ndn.cs.miss": ev("cs.miss") / n,
        "ndn.cs.insert": ev("cs.insert") / n,
        "ndn.cs.evict": ev("cs.evict") / n,
        "ndn.cs.hit_ratio": ratio(ev("cs.hit"), ev("cs.hit") + ev("cs.miss")),
        "ndn.pit.insert": ev("pit.insert") / n,
        "ndn.pit.aggregate": ev("pit.aggregate") / n,
        "ndn.pit.satisfy": ev("pit.satisfy") / n,
        "ndn.pit.expire": ev("pit.expire") / n,
        "ndn.pit.satisfy_ratio": ratio(ev("pit.satisfy"), ev("pit.insert")),
        "ndn.fib.hit": ev("fib.hit") / n,
        "ndn.fib.miss": ev("fib.miss") / n,
        "ndn.tables.ns_per_op": k["tables_ns_per_op"],
        "dapes.strategy.relay": ev("strategy.relay") / n,
        "dapes.strategy.suppress": ev("strategy.suppress") / n,
        "dapes.strategy.knowledge_forward": ev("strategy.knowledge_forward") / n,
        "dapes.strategy.knowledge_suppress": ev("strategy.knowledge_suppress") / n,
        "dapes.strategy.timeout": ev("strategy.timeout") / n,
        "dapes.strategy.forward_accuracy":
            total(lambda t: t["counters"]["forward_accuracy"]) / n,
        "dapes.peer.peak_state_kb":
            total(lambda t: t["counters"]["peak_state_bytes"]) / n / 1024.0,
        "dapes.peer.peak_knowledge_kb":
            total(lambda t: t["counters"]["peak_knowledge_bytes"]) / n / 1024.0,
        "crypto.digests": digests / n,
        "crypto.mac_hits": mac_hits / n,
        "crypto.mac_misses": ctr("mac_misses") / n,
        "crypto.prewarm_fresh": (prewarm - prewarm_cached) / n,
        "crypto.prewarm_cached": prewarm_cached / n,
        "crypto.digests_per_data_rx": ratio(digests, ddec),
        "crypto.ns_per_verify": k["verify_ns"],
        "crypto.ns_per_verify_cached": k["verify_cached_ns"],
        "trace.records": total(lambda t: t["trace"]["records"]) / n,
        "trace.overhead": ratio(total(lambda t: t["traced_run_s"]),
                                total(lambda t: t["run_s"])),
    }
    # Estimated shares of the event loop: count x per-op cost measured by
    # the kernels, over loop wall. Estimates, not spans.
    shares = {
        "sim.sched.est_share": sched_ops * k["sched_ns_per_op"],
        "ndn.codec.est_share": (idec * k["interest_decode_ns"]
                                + ddec * k["data_decode_ns"]
                                + enc * k["encode_ns"]),
        "ndn.tables.est_share": table_ops * k["tables_ns_per_op"],
        "crypto.est_share": (digests * k["verify_ns"]
                             + mac_hits * k["verify_cached_ns"]),
    }
    for name, ns in shares.items():
        m[name] = ratio(ns / 1e9, loop)
    m["other.est_share"] = 1.0 - sum(m[name] for name in shares)
    return m


def bypass_problems(workload, metrics, per_layer):
    """The stack counts must all be zero on a workload that bypasses the
    stack, and nonzero on a stack workload."""
    problems = []
    for name, unit in per_layer:
        if name.split(".")[0] not in STACK_LAYERS or unit not in ("count", "KB"):
            continue
        value = metrics[name]
        if workload in STACK_WORKLOADS:
            if value == 0 and name not in MAY_BE_ZERO_ON_STACK:
                problems.append("%s is zero on stack workload %s" % (name, workload))
        elif value != 0:
            problems.append("%s is %r on %s, which bypasses the stack"
                            % (name, value, workload))
    return problems


def evaluate(workload, runs, pins, specs, trace):
    """(problems, failed trial count, attempted, metrics) of one run."""
    problems = []
    failed = 0
    for trial in runs["trial"]:
        p = check_trial(trial, pins, trace)
        failed += bool(p)
        problems += p
    metrics = per_layer_metrics(runs) if trace else end_to_end_metrics(runs)
    if trace:
        problems += bypass_problems(workload, metrics, specs)
    return problems, failed, len(runs["trial"]), metrics


def emit(metrics, specs):
    return {name: {"value": metrics[name], "unit": unit} for name, unit in specs}


# ----------------------------------------------------------------- modes

def load_pins():
    with open(PINS_PATH) as f:
        return json.load(f)


def bench(args):
    binary = build()
    pins = load_pins()
    workloads = sorted(POOLS) if args.workload == "all" else [args.workload]
    end_to_end, per_layer, _ = load_spec()
    specs = per_layer if args.trace else end_to_end
    correct, attempted, failed, result = True, 0, 0, {}
    for workload in workloads:
        pool = POOLS[workload]
        seeds = random.Random(args.seed).sample(pool, len(pool))
        runs = run_binary(binary, workload, seeds, args.seconds, args.trace)
        if workload == workloads[0]:
            fingerprint = dict(runs["fingerprint"][0], git_commit=git_commit())
            fingerprint.pop("kind")
            print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
        problems, w_failed, w_attempted, metrics = evaluate(
            workload, runs, pins[workload], specs, args.trace)
        for p in problems:
            log("perfbench: CHECK FAILED: %s: %s" % (workload, p))
        if problems and not w_failed:
            w_failed = w_attempted  # a failed bypass check fails every trial
        correct = correct and not problems
        attempted += w_attempted
        failed += w_failed
        for name, unit in specs:
            print("%s %s %.6g %s" % (workload, name, metrics[name], unit))
        prefix = workload + "." if len(workloads) > 1 else ""
        result.update((prefix + name, value)
                      for name, value in emit(metrics, specs).items())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


def write_pins(args):
    binary = build()
    pins = {}
    for workload, pool in POOLS.items():
        runs = run_binary(binary, workload, pool, 0, False)
        pins[workload] = {str(t["seed"]): pinned_outputs(t["outputs"])
                          for t in runs["trial"]}
        log("pinned %s: %d seeds" % (workload, len(pool)))
    with open(PINS_PATH, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def self_test(args):
    """Tiny versions of every workload: every metric is emitted with its
    unit, the bypass check holds, and the output check trips on a wrong
    pinned value and on a traced/untraced mismatch."""
    binary = build()
    errors = []
    end_to_end, per_layer, workloads = load_spec()
    if sorted(workloads) != sorted(POOLS):
        errors.append("BENCHMARK.json workloads disagree with run.py's pools")
    for workload in POOLS:
        for trace in (False, True):
            runs = run_binary(binary, workload, [1], 0, trace, tiny=True)
            pins = {str(t["seed"]): pinned_outputs(t["outputs"])
                    for t in runs["trial"]}
            specs = per_layer if trace else end_to_end
            problems, _, _, metrics = evaluate(workload, runs, pins, specs, trace)
            errors += ["%s: %s" % (workload, p) for p in problems]
            missing = [name for name, _ in specs if not isinstance(
                metrics.get(name), (int, float))]
            if missing:
                errors.append("%s: metrics not computed: %s" % (workload, missing))
            # The output check must trip on a deliberately wrong pin ...
            wrong = json.loads(json.dumps(pins))
            wrong["1"]["transmissions"] += 1
            if not evaluate(workload, runs, wrong, specs, trace)[0]:
                errors.append("%s: a wrong pinned value went unnoticed" % workload)
            # ... and on traced outputs that differ from the untraced run.
            if trace:
                bad = json.loads(json.dumps(runs))
                bad["trial"][0]["traced_outputs"]["events"] += 1
                if not evaluate(workload, bad, pins, specs, trace)[0]:
                    errors.append("%s: a traced/untraced mismatch went unnoticed"
                                  % workload)
            log("self-test %s trace=%d: %d metrics" % (workload, trace, len(specs)))
    for e in errors:
        log("self-test FAILED: " + e)
    print("self-test " + ("passed" if not errors else "FAILED (%d)" % len(errors)))
    return 0 if not errors else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(POOLS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(args)
    if args.write_pins:
        return write_pins(args)
    if args.workload is None:
        ap.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
