#!/usr/bin/env python3
"""The repository's benchmark: user-facing dvf commands, timed end to end.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify|fig5|serve --seed N \
        --seconds S --trace 0|1

The script builds dvf from source (release profile), runs the workload as
a closed loop from this one process (one op in flight at a time), checks
every op's output against its reference, prints a report with sample
counts, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics.  It exits 1 when any op failed,
and 2 without a result when the checkout is not a dvf source tree.

--trace 0 reports the end-to-end metrics of the workload.  --trace 1
reports the per-layer metrics of the traced in-process pass
(perfbench/layers.ml), which is the same on every workload.  See
perfbench/README.md for the workloads, the metrics and why they were
chosen.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

DVF = os.path.join(ROOT, "_build", "default", "bin", "dvf_cli.exe")
LAYERS = os.path.join(ROOT, "_build", "default", "perfbench", "layers.exe")
GOLDEN_VERIFY = os.path.join(ROOT, "test", "golden", "verify_default.txt")
REF_FIG5 = os.path.join(BENCH, "ref", "fig5.txt")
REF_SERVE = os.path.join(BENCH, "ref", "serve.jsonl")
REF_COUNTS = os.path.join(BENCH, "ref", "counts.json")
WORK = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("verify", "fig5", "serve")

# One serve round, from the fastest request kind to the slowest as
# measured on a 2-core host: (op, workload, copies per round).  Every
# kind is sent at least once; timed:MC carries extra copies so that the
# median lands inside its group (16 ms, among kinds of 10-20 ms), and
# verify:FT so that the 90th percentile lands inside its group (0.4 s,
# 150 ms from the kinds on either side).  Without them p50 and p90 fall
# on the boundary between two kinds whose latencies differ severalfold.
# MG dvf and CG/MG/FT sweep are left out: one of them takes 3-24 s, so
# it would fill most of a run and repeat what fig5 measures.
ROUND = [
    ("dvf", "VM", 1), ("dvf", "NB", 1), ("dvf", "MC", 1), ("dvf", "CG", 1),
    ("verify", "VM", 1), ("timed", "VM", 1), ("levels", "VM", 1),
    ("verify", "MC", 1), ("sweep", "VM", 1), ("verify", "NB", 1),
    ("timed", "NB", 1), ("timed", "MC", 22), ("levels", "NB", 1),
    ("levels", "MC", 1), ("levels", "FT", 1), ("levels", "MG", 1),
    ("sweep", "NB", 1), ("sweep", "MC", 1), ("timed", "FT", 1),
    ("timed", "MG", 1), ("dvf", "FT", 1), ("levels", "CG", 1),
    ("verify", "FT", 4), ("verify", "MG", 1), ("timed", "CG", 1),
    ("verify", "CG", 1),
]
P50_KIND = ("timed", "MC")
P90_KIND = ("verify", "FT")

# Set-up repetitions per run; setup_s is their median.
SETUPS = {"verify": 15, "fig5": 15, "serve": 5}
TIME_LIMIT_S = 170
PINGS = 201


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def now():
    return time.perf_counter()


# --- statistics -------------------------------------------------------------


def nearest_rank(q, n):
    """1-based rank of the q-quantile of n samples (nearest-rank rule)."""
    return max(1, math.ceil(round(q * n, 6)))


def percentile(samples, q):
    """Nearest-rank q-quantile, or None unless at least ten samples lie
    beyond it (a tail figure resting on fewer is not reported)."""
    n = len(samples)
    if n == 0 or n - nearest_rank(q, n) < 10:
        return None
    return sorted(samples)[nearest_rank(q, n) - 1]


def round_requests(rng):
    """One round of the serve mix in a seeded order.  The composition is
    fixed; only the order depends on the seed."""
    kinds = [(op, wl) for op, wl, copies in ROUND for _ in range(copies)]
    rng.shuffle(kinds)
    return kinds


def request_line(op, workload):
    return json.dumps(
        {"id": f"{op}:{workload}", "op": op, "workload": workload},
        separators=(",", ":"),
    )


def model_error_pct(rows):
    """Largest aggregate |modeled - simulated| / simulated over every
    kernel x cache pair, in percent.  rows: (kernel, cache, sim, model)."""
    totals = {}
    for kernel, cache, sim, model in rows:
        s, m = totals.get((kernel, cache), (0.0, 0.0))
        totals[(kernel, cache)] = (s + sim, m + model)
    return 100.0 * max(abs(m - s) / s for s, m in totals.values())


def table_rows(text):
    """Fig. 4 rows of a rendered [dvf verify] table."""
    rows = []
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip("|").split("|")]
        if len(cells) == 6 and cells[0] != "kernel" and line.startswith("|"):
            rows.append((cells[0], cells[1], float(cells[3]), float(cells[4])))
    return rows


def json_rows(response_lines):
    """Fig. 4 rows of serve verify responses."""
    rows = []
    for line in response_lines:
        for r in json.loads(line)["result"]["rows"]:
            rows.append(
                (r["workload"], r["cache"]["name"], r["simulated"], r["modeled"])
            )
    return rows


# --- processes ----------------------------------------------------------------


class Children:
    """Every process this run starts; all are ended before it exits."""

    def __init__(self):
        self.live = []

    def spawn(self, cmd, **kw):
        p = subprocess.Popen(cmd, cwd=ROOT, **kw)
        self.live.append(p)
        return p

    def reap(self, p):
        """Wait for p; return (exit code, peak RSS in MB)."""
        _, status, usage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(p)
        return p.returncode, usage.ru_maxrss * 1024 / 1e6

    def stop_all(self):
        for p in list(self.live):
            try:
                p.kill()
            except OSError:
                pass
            self.reap(p)


class Ops:
    """Op outcomes: latency samples of the ops that passed, and failures."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failures = []

    def record(self, latency, error):
        self.attempted += 1
        if error is None:
            self.latencies.append(latency)
        else:
            self.failures.append(error)


def fresh_op(children, cmd, expected, log):
    """One fresh dvf process whose stdout must equal expected.
    Returns (latency s, peak RSS MB, error or None)."""
    t0 = now()
    p = children.spawn(cmd, stdout=subprocess.PIPE, stderr=log)
    try:
        out = p.stdout.read()
    finally:
        p.stdout.close()
        code, rss = children.reap(p)
    latency = now() - t0
    if code != 0:
        return latency, rss, f"{' '.join(cmd[1:])}: exit code {code}"
    if out != expected:
        return latency, rss, f"{' '.join(cmd[1:])}: output differs from reference"
    return latency, rss, None


class Daemon:
    """A dvf serve process answering one request at a time over pipes."""

    def __init__(self, children, store, log):
        self.children = children
        self.p = children.spawn(
            [DVF, "serve", "-j", "2", "--tape-store", store],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
        )

    def request(self, line):
        """Send one line; return (latency s, response line)."""
        t0 = now()
        self.p.stdin.write(line.encode() + b"\n")
        self.p.stdin.flush()
        response = self.p.stdout.readline()
        latency = now() - t0
        if not response:
            raise BenchError("dvf serve closed its output")
        return latency, response.decode().rstrip("\n")

    def close(self):
        """End the daemon; return (exit code, peak RSS MB)."""
        self.p.stdin.close()
        try:
            return self.children.reap(self.p)
        finally:
            self.p.stdout.close()


def serve_check(line, response, references):
    """Error for a serve response, or None when it is ok and byte-equal
    to the reference."""
    try:
        ok = json.loads(response).get("ok") is True
    except ValueError:
        return f"{line}: response is not JSON"
    if not ok:
        return f"{line}: ok is not true"
    key = json.loads(line)["id"]
    if response != references.get(key):
        return f"{line}: response differs from reference"
    return None


# --- workloads ----------------------------------------------------------------


def fill_store(children, store, golden, log):
    """Capture every workload's tape into a fresh store (not timed)."""
    _, _, error = fresh_op(
        children, [DVF, "verify", "-j", "2", "--tape-store", store], golden, log
    )
    if error:
        raise BenchError("filling the tape store failed: " + error)
    # Write the new tapes back before anything is timed.
    os.sync()


def version_setup(children, log):
    """Set-up of a fresh-process workload: the dvf binary starts and
    answers (the start-up cost every op pays, where work moved into
    module initialisation would show)."""
    t0 = now()
    p = children.spawn([DVF, "--version"], stdout=subprocess.DEVNULL, stderr=log)
    code, _ = children.reap(p)
    if code != 0:
        raise BenchError("dvf --version failed")
    return now() - t0


def run_fresh(args, children, log, cmd, expected):
    setups = [version_setup(children, log) for _ in range(SETUPS[args.workload])]
    ops, rss = Ops(), []
    start = now()
    while ops.attempted == 0 or now() - start < args.seconds:
        latency, peak, error = fresh_op(children, cmd, expected, log)
        ops.record(latency, error)
        rss.append(peak)
    loop = now() - start
    return setups, ops, loop, {"peak_rss_mb": (statistics.median(rss), len(rss))}


def run_verify(args, children, log, work):
    golden = read_bytes(GOLDEN_VERIFY)
    setups, ops, loop, extra = run_fresh(
        args, children, log, [DVF, "verify", "-j", "2"], golden
    )
    if ops.latencies:
        # Every op that passed printed exactly the golden rows.
        extra["model_error_pct"] = (model_error_pct(table_rows(golden.decode())), 1)
    return setups, ops, loop, extra


def run_fig5(args, children, log, work):
    return run_fresh(args, children, log, [DVF, "fig5"], read_bytes(REF_FIG5))


def run_serve(args, children, log, work):
    references = serve_references()
    store = os.path.join(work, "store")
    fill_store(children, store, read_bytes(GOLDEN_VERIFY), log)
    rng = random.Random(args.seed)
    warm = sorted({(op, wl) for op, wl, _ in ROUND if op == "dvf"})
    # Each set-up starts a daemon, warms every tape from the store,
    # answers a ping and builds the per-workload profiling instances a
    # dvf request creates on first use.  The last daemon serves the run;
    # the others end right after set-up, and their peak RSS is the warm
    # daemon's.  (Over the run the RSS keeps growing round after round,
    # so a peak taken at the end would grow with host speed.)
    setups, warm_rss, daemon = [], [], None
    for _ in range(SETUPS["serve"]):
        if daemon is not None:
            warm_rss.append(daemon.close()[1])
        t0 = now()
        daemon = Daemon(children, store, log)
        daemon.request('{"id":0,"op":"ping"}')
        for op, wl in warm:
            line = request_line(op, wl)
            _, response = daemon.request(line)
            error = serve_check(line, response, references)
            if error:
                raise BenchError("set-up request failed: " + error)
        setups.append(now() - t0)
    ops, verify_responses = Ops(), {}
    start = now()
    try:
        while ops.attempted == 0 or now() - start < args.seconds:
            for op, wl in round_requests(rng):
                line = request_line(op, wl)
                latency, response = daemon.request(line)
                error = serve_check(line, response, references)
                ops.record(latency, error)
                if error is None and op == "verify":
                    verify_responses[wl] = response
    except BenchError as e:
        ops.record(0.0, str(e))
    loop = now() - start
    code, end_rss = daemon.close()
    if code != 0:
        ops.record(0.0, f"dvf serve exited with code {code}")
    extra = {
        "peak_rss_mb": (statistics.median(warm_rss), len(warm_rss)),
        "peak_rss_end_mb": (end_rss, 1),
    }
    p90 = percentile(ops.latencies, 0.9)
    if p90 is not None:
        extra["op_s_p90"] = (p90, len(ops.latencies))
    if len(verify_responses) == len({wl for op, wl, _ in ROUND if op == "verify"}):
        extra["model_error_pct"] = (
            model_error_pct(json_rows(verify_responses.values())),
            len(verify_responses),
        )
    return setups, ops, loop, extra


def end_to_end(args, children, log, work):
    run = {"verify": run_verify, "fig5": run_fig5, "serve": run_serve}
    setups, ops, loop, extra = run[args.workload](args, children, log, work)
    n = len(ops.latencies)
    metrics = {"setup_s": (statistics.median(setups), "s", len(setups))}
    if n:
        metrics["op_s_p50"] = (statistics.median(ops.latencies), "s", n)
        metrics["ops_per_s"] = (n / loop, "1/s", n)
    units = {"peak_rss_mb": "MB", "peak_rss_end_mb": "MB", "op_s_p90": "s",
             "model_error_pct": "%"}
    for name, (value, samples) in extra.items():
        metrics[name] = (value, units[name], samples)
    return ops, metrics


# --- traced run -----------------------------------------------------------------


def spans_metrics(spans, traced_wall):
    """Per-layer self times and counts from the traced pass's spans."""
    children_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            children_ns[s["parent"]] = (
                children_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
            )
    layer = {}
    tagged = {}
    counts = {}
    model_calls = 0
    top_heap_words = 0
    for s in spans:
        self_s = (s["end_ns"] - s["start_ns"] - children_ns.get(s["id"], 0)) / 1e9
        name = s["name"]
        if name.startswith("op."):
            continue
        layer[name] = layer.get(name, 0.0) + self_s
        tagged[(name, s["tag"])] = tagged.get((name, s["tag"]), 0.0) + self_s
        for k, v in s["counts"].items():
            if k == "top_heap_words":
                top_heap_words = max(top_heap_words, v)
            else:
                counts[f"{name}.{k}"] = counts.get(f"{name}.{k}", 0) + v
        if name == "model":
            model_calls += 1
    counts["model.calls"] = model_calls
    m = {f"{name}.s": v for name, v in layer.items()}
    m["model.MG.s"] = tagged.get(("model", "MG"), 0.0)
    m["model.FT.s"] = tagged.get(("model", "FT"), 0.0)
    m["untraced.s"] = traced_wall - sum(layer.values())
    m["gc.top_heap_mb"] = top_heap_words * 8 / 1e6
    m["gc.major_collections"] = counts.pop("model.major_collections", 0)
    return m, counts


def layers_pass(children, log, work, trace, store, requests, checks):
    """Run the in-process pass; check its outputs; return its result and
    spans."""
    out = os.path.join(work, f"layers{trace}")
    os.makedirs(out)
    p = children.spawn(
        [LAYERS, "--trace", str(trace), "--store", store, "--requests",
         requests, "--out", out],
        stdout=log, stderr=log,
    )
    code, _ = children.reap(p)
    if code != 0:
        checks.record(0.0, f"layers.exe --trace {trace}: exit code {code}")
        return None, [], []
    for name, expected in (("verify.txt", read_bytes(GOLDEN_VERIFY)),
                           ("fig5.txt", read_bytes(REF_FIG5))):
        ok = read_bytes(os.path.join(out, name)) == expected
        checks.record(0.0, None if ok else f"traced pass: {name} differs")
    references = serve_references()
    lines = read_bytes(requests).decode().splitlines()
    responses = read_bytes(os.path.join(out, "serve.jsonl")).decode().splitlines()
    if len(responses) != len(lines):
        checks.record(0.0, "traced pass: wrong number of serve responses")
    for line, response in zip(lines, responses):
        checks.record(0.0, serve_check(line, response, references))
    spans = []
    if trace:
        with open(os.path.join(out, "spans.jsonl")) as f:
            spans = [json.loads(l) for l in f if l.strip()]
    with open(os.path.join(out, "result.json")) as f:
        return json.load(f), spans, responses


def traced(args, children, log, work):
    checks = Ops()
    golden = read_bytes(GOLDEN_VERIFY)
    store = os.path.join(work, "store")
    fill_store(children, store, golden, log)
    requests = os.path.join(work, "requests.jsonl")
    with open(requests, "w") as f:
        for op, wl in round_requests(random.Random(args.seed)):
            f.write(request_line(op, wl) + "\n")
    plain, _, _ = layers_pass(children, log, work, 0, store, requests, checks)
    result, spans, responses = layers_pass(
        children, log, work, 1, store, requests, checks
    )
    if plain is None or result is None:
        return checks, {}
    traced_wall = sum(result["wall_ns"].values()) / 1e9
    plain_wall = sum(plain["wall_ns"].values()) / 1e9
    metrics, counts = spans_metrics(spans, traced_wall)
    metrics["overhead.s"] = traced_wall - plain_wall
    # The untraced -j 2 verify op against the serial layer time of the
    # traced verify op.
    latency, _, error = fresh_op(children, [DVF, "verify", "-j", "2"], golden, log)
    checks.record(latency, error)
    serial = next(
        (s["end_ns"] - s["start_ns"]) / 1e9 for s in spans if s["name"] == "op.verify"
    )
    metrics["parallel.efficiency"] = serial / (2 * latency)
    # Client ping latency through the pipes minus in-process handling.
    daemon = Daemon(children, store, log)
    pings = [daemon.request('{"id":0,"op":"ping"}')[0] for _ in range(PINGS)]
    code, _ = daemon.close()
    checks.record(0.0, None if code == 0 else f"dvf serve exit code {code}")
    metrics["transport.s"] = statistics.median(pings) - plain["ping_ns"] / 1e9
    metrics.update(counts)
    metrics["simulate.events_per_s"] = (
        counts["simulate.events"] / metrics["simulate.s"]
    )
    verify_responses = {
        line: response
        for line, response in zip(read_bytes(requests).decode().splitlines(), responses)
        if json.loads(line)["op"] == "verify"
    }
    metrics["model.error_pct"] = model_error_pct(json_rows(verify_responses.values()))
    with open(REF_COUNTS) as f:
        reference = json.load(f)
    for name, value in reference.items():
        if counts.get(name) != value:
            checks.record(0.0, f"count {name} = {counts.get(name)}, reference {value}")
    return checks, metrics


# --- main ---------------------------------------------------------------------


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def serve_references():
    references = {}
    for line in read_bytes(REF_SERVE).decode().splitlines():
        if line:
            references[json.loads(line)["id"]] = line
    return references


def require_source_tree():
    needed = ["dune-project", "bin/dvf_cli.ml", "test/golden/verify_default.txt"]
    missing = [p for p in needed if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        raise BenchError(
            "not a dvf source tree (missing " + ", ".join(missing) + ")"
        )


def build(log):
    # No shared dune cache: the run writes only inside the checkout.
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "--cache=disabled",
           "./bin/dvf_cli.exe", "./perfbench/layers.exe"]
    if subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=log).returncode != 0:
        raise BenchError("build failed: " + " ".join(cmd))


def ocaml_version():
    out = subprocess.run([LAYERS, "--version"], cwd=ROOT, capture_output=True)
    return out.stdout.decode().strip() or "unknown"


def print_log_tail(path, lines=30):
    """The end of the stderr of every process the run started."""
    with open(path, errors="replace") as f:
        tail = f.read().splitlines()[-lines:]
    for line in tail:
        print(line, file=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def report(args, ops, values, declared):
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace} "
        f"nproc={len(os.sched_getaffinity(0))} ocaml={ocaml_version()}"
    )
    print(f"ops attempted={ops.attempted} failed={len(ops.failures)}")
    for error in ops.failures[:20]:
        print("FAILED", error)
    print(f"{'metric':24s} {'value':>16s} {'unit':8s} samples")
    for name, (value, unit, samples) in values.items():
        print(f"{name:24s} {value:16.6g} {unit:8s} {samples}")
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]][0], "unit": m["unit"]}
    correct = not ops.failures and len(metrics) == len(declared)
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return correct


def main(argv):
    args = parse_args(argv)
    children = Children()

    def on_alarm(signum, frame):
        raise BenchError(f"run exceeded {TIME_LIMIT_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    try:
        require_source_tree()
        os.makedirs(WORK, exist_ok=True)
        work = tempfile.mkdtemp(prefix="run-", dir=WORK)
        log_path = os.path.join(work, "log.txt")
        try:
            with open(log_path, "w") as log:
                build(log)
                signal.alarm(TIME_LIMIT_S)
                if args.trace:
                    ops, metrics = traced(args, children, log, work)
                    units = {m["name"]: m["unit"] for m in declared_metrics(1)}
                    values = {k: (v, units.get(k, ""), 1) for k, v in metrics.items()}
                else:
                    ops, values = end_to_end(args, children, log, work)
            correct = report(args, ops, values, declared_metrics(args.trace))
            if not correct:
                print_log_tail(log_path)
        except BenchError:
            print_log_tail(log_path)
            raise
        finally:
            children.stop_all()
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
