#!/usr/bin/env python3
"""End-to-end benchmark of the BSP scheduler.

Builds the scheduler from source, generates a workload's inputs from the
seed, drives the built `scheduler` binary from outside as a subprocess
for a fixed number of seconds, checks every output, and prints one JSON
result object as the last line of standard output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source checkout. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json; `--trace 1` runs the workload once
in process under benchmark-side spans (perfbench/layers/layers.ml) and
reports the per-layer metrics. `--smoke` runs every workload on tiny
inputs in both modes and checks that each metric BENCHMARK.json names is
emitted with its unit. perfbench/README.md explains the workloads.

Everything the benchmark writes goes under .bench_build/perfbench/ in
the checkout: a temporary directory per run (removed at exit), the raw
samples of every run (samples.jsonl), the traced runs' spans, and the
cost ledger that checks costs repeat across runs of the same sources.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time

BUILD = {
    "scheduler": "bin/scheduler.exe",
    "generate": "bin/generate.exe",
    "evaluate": "bin/evaluate.exe",
    "calib": "perfbench/layers/calib.exe",
    "layers": "perfbench/layers/layers.exe",
}

# Every scheduling run gets this budget, so the per-stage cap
# (seconds/6 in Engine.schedule) is 100 s, far above any stage's time at
# these sizes: no deadline fires and the work done is fixed.
BUDGET_SECONDS = "600"

# Host-speed normalisation. The host's speed drifts by up to 2x within
# minutes, for CPU time as much as for wall time. The reference kernel
# (perfbench/layers/calib.ml) is timed in a burst after every operation,
# and every reported time is scaled by REF_ROUND_S over the mean kernel
# round of the bursts around it, i.e. expressed in seconds of a host on
# which one kernel round takes REF_ROUND_S. Raw seconds stay in the
# samples ledger.
REF_ROUND_S = 0.15

# Set-up samples: SETUP_FIRST before the first unit, SETUP_PER_UNIT
# after each unit.
SETUP_FIRST = 5
SETUP_PER_UNIT = 3
# Share of each one-shot unit's time spent on the reference kernel right
# after it.
KERNEL_SHARE = 0.15
MIN_UNITS = 3
SERVE_REQUESTS = 400
SERVE_BLOCK = 100
SERVE_ALGORITHMS = ["bspg", "source", "hdagg", "cilk"]

# (family, target nodes) per input.
WORKLOADS = {
    "oneshot-pipeline": {
        "kind": "oneshot",
        "inputs": [("spmv", 2000)],
        "args": ["-a", "pipeline", "-p", "4", "-g", "3", "-l", "5"],
    },
    "large-heuristic": {
        "kind": "oneshot",
        "inputs": [("spmv", 16000)],
        "args": ["-a", "bspg", "-p", "8", "-g", "3", "-l", "5"],
    },
    "multilevel-numa": {
        "kind": "oneshot",
        "inputs": [("exp", 4000)],
        "args": ["-a", "multilevel", "-p", "8", "-g", "5", "-l", "20", "--numa-delta", "3"],
        # Its run time moves about half as far as the kernel's when the
        # host shifts speed (log-log slope 0.49 across runs, against
        # 0.65-1.04 for the other workloads), so the factor is applied
        # as factor ** 0.5. With the full factor its spread over ten
        # seeds reached 0.24, against 0.11 this way and 0.12 raw.
        "host_exponent": 0.5,
    },
    "serve-mixed": {
        "kind": "serve",
        "inputs": [("spmv", 1500)] * 6 + [("exp", 1500)] * 6,
        "args": ["-p", "8", "-g", "3", "-l", "5"],
    },
}
LADDER = [4000, 8000, 16000]
# Smoke mode shrinks inputs to this many nodes, except for the pipeline
# and multilevel workloads: below about 2k nodes their ILP stages get
# slower, not faster (ILPfull becomes applicable; spmv-200 takes 20 s).
SMOKE_TARGET = 60
SMOKE_KEEPS_SIZE = ("oneshot-pipeline", "multilevel-numa")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Build and environment.


def build(root):
    for f in ("dune-project", "bin/scheduler.ml", "perfbench/layers/dune"):
        if not os.path.exists(os.path.join(root, f)):
            raise BenchError(f"not a scheduler source checkout: {f} is missing in {root}")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet"] + ["./" + t for t in BUILD.values()]
    r = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])
    return {k: os.path.join(root, "_build", "default", v) for k, v in BUILD.items()}


def program_env():
    """The environment every program runs in: no BSP_* settings (so
    --jobs 1 means one domain) and OCAMLRUNPARAM=v=0x400 only, which
    prints the exact allocation counts at exit."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("BSP_") and k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}
    env["OCAMLRUNPARAM"] = "v=0x400"
    return env


def source_digest(root):
    h = hashlib.sha256()
    for top in ("lib", "bin"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for f in sorted(filenames):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, root).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Host speed.


class Calibration:
    """Bursts of reference-kernel rounds. A burst's factor is
    REF_ROUND_S over its mean round time."""

    def __init__(self, exe, env):
        self.exe, self.env, self.rounds = exe, env, []

    def burst(self, seconds):
        n = max(1, min(40, round(seconds / REF_ROUND_S)))
        r = subprocess.run([self.exe, str(n)], env=self.env, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True)
        if r.returncode != 0:
            raise BenchError("calibration kernel failed")
        rounds = [float(line.split()[0]) for line in r.stdout.splitlines() if line]
        self.rounds += rounds
        return REF_ROUND_S / statistics.mean(rounds)


# ---------------------------------------------------------------------------
# Processes.


def run_measured(cmd, env, out_path, err_path):
    """Run to exit; return (seconds, exit status, ru_maxrss KiB, stdout, stderr)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        dt = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        out_text = f.read()
    with open(err_path) as f:
        err_text = f.read()
    return dt, p.returncode, ru.ru_maxrss, out_text, err_text


ALLOC_RE = re.compile(r"allocated_words: (\d+)")


def allocated_words(stderr):
    m = ALLOC_RE.search(stderr)
    if not m:
        raise BenchError("no allocated_words in the program's exit statistics")
    return int(m.group(1))


def evaluate_cost(exe, env, dag, sched, machine_args):
    r = subprocess.run([exe, dag, sched] + machine_args, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    m = re.search(r"valid schedule: \d+ supersteps, cost (\d+)", r.stdout)
    if r.returncode != 0 or not m:
        return None
    return int(m.group(1))


def machine_args(args):
    """The -p/-g/-l/--numa-delta part of a workload's scheduler arguments."""
    out, i = [], 0
    while i < len(args):
        if args[i] in ("-p", "-g", "-l", "--numa-delta"):
            out += args[i:i + 2]
        i += 2
    return out


# ---------------------------------------------------------------------------
# Inputs.

GEN_RE = re.compile(r"(\d+) nodes, (\d+) edges")


def generate(exe, env, path, family, target, seed):
    r = subprocess.run([exe, "-f", family, "-n", str(target), "--seed", str(seed), path],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    m = GEN_RE.search(r.stdout)
    if r.returncode != 0 or not m:
        raise BenchError(f"bsp-generate failed for {family} {target}: {r.stdout.strip()}")
    return {"file": os.path.basename(path), "family": family, "generator_seed": seed,
            "nodes": int(m.group(1)), "edges": int(m.group(2))}


def make_inputs(exes, env, tmp, spec, seed, smoke):
    files, info = [], []
    for k, (family, target) in enumerate(spec["inputs"]):
        if smoke and spec not in (WORKLOADS[w] for w in SMOKE_KEEPS_SIZE):
            target = SMOKE_TARGET
        path = os.path.join(tmp, f"in{k}.hdag")
        info.append(generate(exes["generate"], env, path, family, target, seed * 100 + k))
        files.append(path)
    return files, info


def frame(payload):
    return struct.pack(">I", len(payload)) + payload


def serve_requests(files, args, seed):
    """The serve mix: SERVE_REQUESTS framed requests drawn by a seeded RNG
    from every (instance, algorithm) pair, each carrying its hyperDAG
    inline. Returns the frames and the (instance, algorithm) of each."""
    texts = []
    for f in files:
        with open(f, "rb") as fh:
            texts.append(fh.read())
    header = "".join(f"{args[i].lstrip('-')} {args[i + 1]}\n" for i in range(0, len(args), 2))
    rng = random.Random(seed)
    frames, picks = [], []
    for i in range(SERVE_REQUESTS):
        k, alg = rng.randrange(len(files)), rng.choice(SERVE_ALGORITHMS)
        doc = (f"id r{i}\nalgorithm {alg}\nseconds {BUDGET_SECONDS}\n{header}hyperdag\n").encode() + texts[k]
        frames.append(frame(doc))
        picks.append((k, alg))
    return frames, picks


# ---------------------------------------------------------------------------
# Workload units.


class Run:
    """Samples and failures of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.units = []  # dicts: start, seconds, rss_kib, alloc_words, factor
        self.latencies = []  # (raw seconds, host factor)
        self.costs = []
        self.setup = []  # (raw seconds, host factor)

    def fail(self, msg):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)


def oneshot_unit(run, exes, env, tmp, spec, dag, algorithm=None):
    """One scheduler process: spawn to exit, its output re-checked by
    bsp-evaluate. Returns the unit's sample, or None on a failure."""
    args = list(spec["args"])
    if algorithm:
        args[args.index("-a") + 1] = algorithm
    out = os.path.join(tmp, "out.schedule")
    cmd = [exes["scheduler"], dag] + args + ["--seconds", BUDGET_SECONDS, "-j", "1", "-q", "-o", out]
    run.attempted += 1
    started = time.time()
    dt, code, rss, stdout, stderr = run_measured(cmd, env, os.path.join(tmp, "stdout"), os.path.join(tmp, "stderr"))
    if code != 0:
        run.fail(f"scheduler exited with {code}: {stderr.strip()[-300:]}")
        return None
    try:
        printed = int(stdout.split()[0])
    except (IndexError, ValueError):
        run.fail(f"scheduler printed no cost: {stdout[:200]!r}")
        return None
    checked = evaluate_cost(exes["evaluate"], env, dag, out, machine_args(spec["args"]))
    if checked != printed:
        run.fail(f"bsp-evaluate says {checked}, scheduler printed {printed}")
        return None
    return {"start": started, "seconds": dt, "rss_kib": rss, "alloc_words": allocated_words(stderr),
            "cost": printed}


def read_exact(stream, n):
    data = stream.read(n)
    if data is None or len(data) != n:
        raise BenchError("serve session closed its output early")
    return data


def exchange(proc, payload_frame):
    proc.stdin.write(payload_frame)
    proc.stdin.flush()
    (length,) = struct.unpack(">I", read_exact(proc.stdout, 4))
    return json.loads(read_exact(proc.stdout, length))


STATS_PROBE = frame(b"id probe\nstats\n")


def serve_session(run, exes, env, tmp, frames=None, cal=None, factor=1.0):
    """One `scheduler serve --stdio` process with a fresh cache. Returns
    (setup seconds, replies, latencies, rss KiB, words); each latency is a
    (raw seconds, host factor) pair. With a calibration, a one-round
    kernel burst runs after every SERVE_BLOCK requests, and each block's
    factor is the mean of the bursts around it (the first block starts
    from `factor`): request latencies are short against the host's
    speed shifts, so a factor per session left the tail mixed."""
    cache = os.path.join(tmp, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    cmd = [exes["scheduler"], "serve", "--stdio", "--cache", cache, "-j", "1"]
    err_path = os.path.join(tmp, "serve.stderr")
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
        try:
            run.attempted += 1
            probe = exchange(proc, STATS_PROBE)
            setup = time.perf_counter() - t0
            if probe.get("status") != "ok":
                run.fail(f"stats probe answered {probe}")
            replies, lat, block = [], [], []
            for i, f in enumerate(frames or []):
                t = time.perf_counter()
                replies.append(exchange(proc, f))
                block.append(time.perf_counter() - t)
                if len(block) == SERVE_BLOCK or i == len(frames) - 1:
                    after = cal.burst(REF_ROUND_S) if cal else factor
                    lat += [(x, (factor + after) / 2) for x in block]
                    factor, block = after, []
            proc.stdin.close()
            _, status, ru = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(err_path) as f:
        stderr = f.read()
    if proc.returncode != 0:
        run.fail(f"serve exited with {proc.returncode}: {stderr.strip()[-300:]}")
    return setup, replies, lat, ru.ru_maxrss, allocated_words(stderr)


def check_replies(run, exes, env, tmp, files, picks, replies, args, known):
    """Every reply ok with a cost; one cost per (instance, algorithm) across
    the run; the first schedule of each pair re-checked by bsp-evaluate."""
    costs = []
    for (k, alg), rep in zip(picks, replies):
        run.attempted += 1
        cost = rep.get("cost")
        if rep.get("status") != "ok" or not isinstance(cost, int):
            run.fail(f"request on instance {k} with {alg} answered {str(rep)[:200]}")
            continue
        if (k, alg) not in known:
            sched = os.path.join(tmp, "reply.schedule")
            with open(sched, "w") as fh:
                fh.write(rep.get("schedule", ""))
            checked = evaluate_cost(exes["evaluate"], env, files[k], sched, machine_args(args))
            if checked != cost:
                run.fail(f"bsp-evaluate says {checked} for a reply of cost {cost}")
                continue
            known[(k, alg)] = cost
        elif known[(k, alg)] != cost:
            run.fail(f"instance {k} with {alg}: cost {cost}, earlier {known[(k, alg)]}")
            continue
        costs.append(cost)
    return costs


# ---------------------------------------------------------------------------
# Measurement.


def measure(exes, env, tmp, name, spec, files, seed, seconds, smoke):
    """The timed run. Each operation's time is scaled by the host-speed
    factor of the kernel bursts just before and after it: the mean of
    the two for a one-shot unit and for a block of serve requests. A
    set-up takes the factor of the operation before it: the burst after
    a one-shot unit, or the last block of a serve session."""
    run = Run()
    cal = Calibration(exes["calib"], env)

    def setups(k, factor):
        for _ in range(k):
            if spec["kind"] == "oneshot":
                s = oneshot_unit(run, exes, env, tmp, spec, files[0], algorithm="trivial")
                if s:
                    run.setup.append((s["seconds"], factor))
            else:
                run.setup.append((serve_session(run, exes, env, tmp)[0], factor))

    factor = cal.burst(2 * REF_ROUND_S)
    setups(1 if smoke else SETUP_FIRST, factor)

    frames, picks = (serve_requests(files, spec["args"], seed) if spec["kind"] == "serve" else (None, None))
    known = {}
    t_start = time.perf_counter()
    while True:
        if spec["kind"] == "oneshot":
            before = factor
            unit = oneshot_unit(run, exes, env, tmp, spec, files[0])
            factor = cal.burst(KERNEL_SHARE * (unit["seconds"] if unit else 1.0))
            if unit:
                unit["factor"] = (before + factor) / 2
                run.costs.append(unit["cost"])
                run.latencies.append((unit["seconds"], unit["factor"]))
        else:
            started = time.time()
            _, replies, lat, rss, words = serve_session(run, exes, env, tmp, frames, cal, factor)
            factor = lat[-1][1] if lat else factor  # the last block's
            run.costs += check_replies(run, exes, env, tmp, files, picks, replies, spec["args"], known)
            session = sum(x for x, _ in lat)
            unit = {"start": started, "seconds": session, "rss_kib": rss, "alloc_words": words,
                    "hits": sum(1 for r in replies if r.get("cache") == "hit"),
                    "factor": sum(x * f for x, f in lat) / session}
            run.latencies += lat
        if unit:
            run.units.append(unit)
        setups(0 if smoke else SETUP_PER_UNIT, factor)
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(u["seconds"] for u in run.units) if run.units else 1.0
        if len(run.units) >= MIN_UNITS and elapsed + 1.1 * typical > seconds:
            break
        if not run.units and elapsed > seconds:
            break
        if smoke:
            break
    if not run.units or not run.costs or not run.setup:
        raise BenchError(f"{name}: no successful operation; {run.problems}")

    exponent = spec.get("host_exponent", 1.0)
    latencies = [x * f ** exponent for x, f in run.latencies]
    p50 = statistics.median(latencies)
    # The tail is the 95th percentile only when at least ten samples lie
    # beyond it. A one-shot run has a handful of processes, so no
    # percentile above the median qualifies and the tail is the median.
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[-1] if len(latencies) >= 200 else p50
    metrics = {
        "wall_s": statistics.median(u["seconds"] * u["factor"] ** exponent for u in run.units),
        "setup_s": statistics.median(x * f ** exponent for x, f in run.setup),
        "cost_geomean": statistics.geometric_mean(run.costs),
        "peak_rss_mb": statistics.median(u["rss_kib"] for u in run.units) / 1024,
        "alloc_mwords": statistics.median(u["alloc_words"] for u in run.units) / 1e6,
        "req_p50_s": p50,
        "req_p95_s": p95,
    }
    record = {
        "calibration_rounds_s": cal.rounds,
        "setup_raw_s_and_factor": run.setup,
        "units": run.units,
        "request_samples": len(latencies),
        "request_samples_beyond_p95": sum(1 for x in latencies if x > p95),
        "latencies_raw_s": [x for x, _ in run.latencies] if spec["kind"] == "serve" else [],
    }
    return run, metrics, record


def traced(exes, env, tmp, spec, files, seed, smoke):
    """The traced run: per-layer metrics from perfbench/layers, with its
    costs checked against the CLI's on the same inputs."""
    run = Run()
    spans = os.path.join(tmp, "spans.json")
    ladder = []
    for k, target in enumerate(LADDER):
        path = os.path.join(tmp, f"ladder{k}.hdag")
        generate(exes["generate"], env, path, "spmv", SMOKE_TARGET * 2 ** k if smoke else target,
                 seed * 100 + 50 + k)
        ladder.append(path)
    if spec["kind"] == "oneshot":
        s = oneshot_unit(run, exes, env, tmp, spec, files[0])
        cli_costs = [s["cost"]] if s else []
        algorithm = spec["args"][spec["args"].index("-a") + 1]
        m = machine_args(spec["args"])
        p, g, l = m[1], m[3], m[5]
        delta = m[7] if len(m) > 6 else "0"
        cmd = [exes["layers"], "oneshot", algorithm, files[0], p, g, l, delta, spans]
    else:
        frames, picks = serve_requests(files, spec["args"], seed)
        _, replies, _, _, _ = serve_session(run, exes, env, tmp, frames)
        cli_costs = check_replies(run, exes, env, tmp, files, picks, replies, spec["args"], {})
        reqs = os.path.join(tmp, "requests.bin")
        with open(reqs, "wb") as fh:
            fh.write(b"".join(frames))
        cache = os.path.join(tmp, "layers-cache")
        shutil.rmtree(cache, ignore_errors=True)
        cmd = [exes["layers"], "serve", reqs, cache, spans] + files
    cmd += ["--ladder"] + ladder
    run.attempted += 1
    r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise BenchError(f"traced run failed: {r.stderr.strip()[-1000:]}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    if not (out["untraced_costs"] == out["traced_costs"] == cli_costs):
        run.fail(f"traced costs {out['traced_costs'][:5]} / untraced {out['untraced_costs'][:5]}"
                 f" differ from the CLI's {cli_costs[:5]}")
    record = {"untraced_s": out["untraced_s"], "traced_s": out["traced_s"], "ladder": out["ladder"]}
    return run, out["metrics"], record, spans


# ---------------------------------------------------------------------------
# Ledgers.


def check_cost_ledger(path, key, costs, run):
    """Costs must repeat exactly across runs of the same sources."""
    ledger = {}
    if os.path.exists(path):
        with open(path) as f:
            ledger = json.load(f)
    digest = hashlib.sha256(json.dumps(sorted(set(costs))).encode()).hexdigest()[:16]
    if key in ledger and ledger[key] != digest:
        run.fail(f"costs differ from an earlier run of the same sources ({key})")
    ledger[key] = digest
    with open(path + ".tmp", "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)


def benchmark(root, name, seed, seconds, trace, smoke=False):
    spec = WORKLOADS[name]
    exes = build(root)
    env = program_env()
    state = os.path.join(root, ".bench_build", "perfbench")
    tmp = os.path.join(state, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        files, inputs = make_inputs(exes, env, tmp, spec, seed, smoke)
        load_before = os.getloadavg()
        started = time.time()
        if trace:
            run, metrics, record, spans = traced(exes, env, tmp, spec, files, seed, smoke)
            shutil.copy(spans, os.path.join(state, f"spans-{name}-{seed}.json"))
        else:
            run, metrics, record = measure(exes, env, tmp, name, spec, files, seed, seconds, smoke)
            if not smoke:
                key = f"{source_digest(root)}:{name}:{seed}"
                check_cost_ledger(os.path.join(state, "costs.json"), key, run.costs, run)
        record.update({
            "workload": name, "seed": seed, "trace": trace, "smoke": smoke, "started": started,
            "finished": time.time(), "nproc": os.cpu_count(), "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(), "inputs": inputs, "metrics": metrics,
            "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
        })
        with open(os.path.join(state, "samples.jsonl"), "a") as f:
            f.write(json.dumps(record) + "\n")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return run, metrics, record


def result_line(run, metrics, units):
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def declared(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def smoke(root):
    bad = []
    for name in WORKLOADS:
        for trace in (0, 1):
            units = declared(root, trace)
            run, metrics, _ = benchmark(root, name, 1, 1, trace, smoke=True)
            res = result_line(run, {k: metrics.get(k) for k in units}, units)
            missing = [k for k, v in res["metrics"].items() if not isinstance(v["value"], (int, float))]
            extra = sorted(set(metrics) - set(units))
            status = "ok" if not (missing or extra or run.failed) else "FAIL"
            log(f"smoke {name} trace={trace}: {status} {len(units)} metrics"
                + (f" missing={missing}" if missing else "") + (f" undeclared={extra}" if extra else "")
                + (f" problems={run.problems}" if run.failed else ""))
            if status != "ok":
                bad.append((name, trace))
    return not bad


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs; check metric names and units")
    a = ap.parse_args()
    root = os.getcwd()
    # On SIGTERM, unwind so that children are stopped and temporary files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # One CPU for the program, the kernel and this script, so the kernel
    # times the same core the operations ran on: the two cores of the
    # development host shift speed independently.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if a.smoke:
            return 0 if smoke(root) else 1
        if not a.workload:
            ap.error("--workload is required")
        units = declared(root, a.trace)
        run, metrics, record = benchmark(root, a.workload, a.seed, a.seconds, a.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 1
    summary = {k: record[k] for k in ("workload", "seed", "nproc", "loadavg_before", "loadavg_after", "inputs")}
    summary["units_raw_s_and_factor"] = [(u["seconds"], u["factor"]) for u in record.get("units", [])]
    summary["problems"] = run.problems
    print(json.dumps(summary))
    print(json.dumps(result_line(run, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
