"""relprof benchmark: end-to-end timings of real CLI commands, and a traced
per-module breakdown.

    python3 bench/run.py --workload sparse-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Every case runs in a fresh interpreter
(``bench/worker.py``), one at a time, with empty library caches; its stdout
is checked and its digest printed.  With ``--trace 0`` the workload is
repeated while the next pass still fits in ``--seconds`` (at least once) and
the end-to-end metrics are medians over passes.  With ``--trace 1`` one
untraced pass and two traced passes (PYTHONHASHSEED 0 and 1) run, and the
per-layer metrics are printed.  The last stdout line is one JSON object.

``--record-golden`` rewrites the golden stdout copies from one pass at the
default seed instead of measuring.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, EXPECTED_SITES, UNREACHED_SITES, WORKLOADS, Case, write_inputs,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden"
WORKER = BENCH / "worker.py"

HARD_LIMIT_S = 170  # the whole run ends within this, whatever --seconds says
INPUT_WRITES = 5  # set-up repeats for the median input-writing time
# A typical worker.reference_loop_times() sample on the 2-core box the
# benchmark was defined on: solve_s is reported at that machine speed.
REFERENCE_S = 0.030


@dataclass
class CaseResult:
    case: Case
    problems: list  # empty when exit code, output checks and golden copy agree
    data: dict  # the worker's JSON result, plus setup_s

    @property
    def ok(self):
        return not self.problems


def run_case(case, inputs, trace, hashseed, deadline):
    argv = [inputs[a[1:-1]] if a.startswith("{") else a for a in case.argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hashseed))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps({"argv": argv, "trace": trace})],
            capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return CaseResult(case, ["timed out"], {})
    try:
        data = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return CaseResult(case, [f"worker exit {proc.returncode}: {' | '.join(tail)}"], {})
    data["setup_s"] = data["ready"] - spawned
    if "error" in data:
        return CaseResult(case, [data["error"]], data)
    problems = []
    if data["exit"] != 0:
        problems.append(f"exit code {data['exit']}: {proc.stderr.strip()[-200:]}")
    try:
        problems += case.check(data["stdout"])
    except ValueError as exc:
        problems.append(f"unreadable output: {exc}")
    return CaseResult(case, problems, data)


def golden_problems(workload, result):
    path = GOLDEN / workload / f"{result.case.id}.txt"
    if not path.is_file():
        return [f"no golden copy at {path.relative_to(ROOT)}"]
    if path.read_text(encoding="utf-8") != result.data["stdout"]:
        return [f"stdout differs from {path.relative_to(ROOT)}"]
    return []


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_pass(workload, inputs, trace, hashseed, deadline, digests):
    """One run of every case; checks outputs, golden copies and that stdout
    repeats across passes of this run."""
    results = []
    label = f"traced PYTHONHASHSEED={hashseed}" if trace else "untraced"
    for case in WORKLOADS[workload]:
        result = run_case(case, inputs, trace, hashseed, deadline)
        sha = "-"
        if "stdout" in result.data:
            result.problems += golden_problems(workload, result)
            sha = digest(result.data["stdout"])
            if digests.setdefault(case.id, sha) != sha:
                result.problems.append("stdout differs between passes")
        results.append(result)
        d = result.data
        status = "ok" if result.ok else "FAIL " + "; ".join(result.problems)
        print(f"  [{label}] {case.id}: {d.get('seconds', float('nan')):.3f} s "
              f"(cpu {d.get('cpu_seconds', float('nan')):.3f} s), "
              f"peak {d.get('peak_rss_mib', float('nan')):.1f} MiB, "
              f"sha256 {sha}: {status}", flush=True)
        if any(p == "timed out" for p in result.problems):
            break
    return results


def solve_seconds(results):
    """Summed case wall time at the reference machine speed: the pass's wall
    time times REFERENCE_S over the mean reference-loop time measured around
    its cases.  Rescaling the whole pass by many samples removes the drift of
    the machine's speed between runs without adding the noise of single
    samples."""
    samples = [t for r in results for t in r.data.get("reference_s", ())]
    return wall_seconds(results) * REFERENCE_S / statistics.mean(samples) if samples else 0.0


def wall_seconds(results):
    return sum(r.data.get("seconds", 0.0) for r in results)


def input_setup(seed):
    """Write the seeded inputs INPUT_WRITES times; returns (paths relative to the
    checkout, so that stdout naming them is the same in every checkout, and the
    median seconds)."""
    times = []
    for _ in range(INPUT_WRITES):
        start = time.perf_counter()
        paths = write_inputs(seed, ROOT, f"{OUT.name}/inputs")
        times.append(time.perf_counter() - start)
    return paths, statistics.median(times)


def end_to_end(workload, seconds, inputs, write_s, deadline):
    passes, digests = [], {}
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results = run_pass(workload, inputs, False, 0, deadline, digests)
        passes.append(results)
        took = time.monotonic() - began
        if (len(results) < len(WORKLOADS[workload])
                or time.monotonic() - start + took > seconds
                or time.monotonic() + took > deadline):
            break
    flat = [r for p in passes for r in p]
    solves = [solve_seconds(p) for p in passes]
    ready = [r.data["setup_s"] for r in flat if "setup_s" in r.data]
    peaks = [max(r.data.get("peak_rss_mib", 0.0) for r in p) for p in passes]
    failed = sum(not r.ok for r in flat)
    print(f"solve_s: median of {len(solves)} passes {[round(s, 3) for s in solves]} "
          f"(wall {[round(wall_seconds(p), 3) for p in passes]})")
    print(f"setup_s: median interpreter start + import relprof.cli of {len(ready)} spawns, "
          f"plus median input writing of {INPUT_WRITES} ({write_s * 1e3:.2f} ms)")
    metrics = {
        "solve_s": (statistics.median(solves), "s"),
        "setup_s": (statistics.median(ready) + write_s if ready else 0.0, "s"),
        "peak_rss_mib": (statistics.median(peaks), "MiB"),
        "pass_frac": (1 - failed / len(flat), "ratio"),
    }
    return flat, metrics, True


def write_spans(workload, seed, results):
    path = OUT / f"spans-{workload}-seed{seed}.tsv.gz"
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
        handle.write("case\tspan\tparent\tname\tsite\tstart_ns\tend_ns\n")
        for r in results:
            sites = r.data.get("sites", [])
            for index, (site, parent, start, end) in enumerate(r.data.get("spans", [])):
                name, where = sites[site]
                handle.write(f"{r.case.id}\t{index}\t{parent}\t{name}\t{where}\t{start}\t{end}\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def sites_ok(workload, traced_results, sites):
    """Every import site assigned to the workload recorded a call."""
    ok = True
    present = {s for r in traced_results for s in r.data.get("present", ())}
    for site, expected in sorted(EXPECTED_SITES.items()):
        if expected != workload or sites.get(site, 0) > 0:
            continue
        if site in sites or site in present:
            # a copy that exists but was never rebound would miss calls silently
            print(f"SELF-CHECK FAIL: import site {site} recorded no call")
            ok = False
        else:
            print(f"note: import site {site} no longer exists")
    print("import site calls: " + " ".join(f"{s}={n}" for s, n in sorted(sites.items())))
    unknown = sorted(s for s in sites if s not in EXPECTED_SITES and s not in UNREACHED_SITES)
    if unknown:
        print(f"note: import sites without an assigned workload: {unknown}")
    return ok


def report_waste(traced_results):
    """Per-case counts of the known waste: double incidence builds and the
    share of time in the Fraction nullspace."""
    for r in traced_results:
        t = r.data.get("trace")
        if t is None:
            continue
        f, counters = t["functions"], t["counters"]
        nullspace_s = f.get("linalg.nullspace", (0, 0, 0))[2] / 1e9
        print(f"case {r.case.id}: "
              f"incidence.build_incidence.calls={f.get('incidence.build_incidence', (0,))[0]} "
              f"nullspace share={nullspace_s / max(r.data['seconds'], 1e-9):.2f} "
              f"canonical_code hits={counters['structures.canonical_code.hits']} "
              f"misses={counters['structures.canonical_code.misses']}")


def traced(workload, seed, inputs, deadline):
    plain = run_pass(workload, inputs, False, 0, deadline, {})
    digests = {}
    runs = [run_pass(workload, inputs, True, h, deadline, digests) for h in (0, 1)]
    merged = [tracing.merge([r.data["trace"] for r in results if "trace" in r.data])
              for results in runs]
    counts = [tracing.deterministic_counts(m) for m in merged]
    for name in tracing.DETERMINISTIC:
        print(f"count {name}: {counts[0][name]} (PYTHONHASHSEED=0), {counts[1][name]} (=1)")
    correct = counts[0] == counts[1]
    if not correct:
        print("SELF-CHECK FAIL: counts differ between traced passes")
    correct = sites_ok(workload, runs[0], merged[0]["sites"]) and correct
    report_waste(runs[0])
    write_spans(workload, seed, runs[0])
    base = solve_seconds(plain)
    overhead = (solve_seconds(runs[0]) - base) / base if base else 0.0
    return plain + runs[0] + runs[1], tracing.layer_metrics(merged[0], overhead), correct


def record_golden(workload):
    inputs, _ = input_setup(DEFAULT_SEED)
    folder = GOLDEN / workload
    folder.mkdir(parents=True, exist_ok=True)
    for case in WORKLOADS[workload]:
        result = run_case(case, inputs, False, 0, time.monotonic() + 600)
        if not result.ok:
            sys.exit(f"{case.id}: {'; '.join(result.problems)}")
        (folder / f"{case.id}.txt").write_text(result.data["stdout"], encoding="utf-8")
        print(f"recorded {case.id}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    started = time.monotonic()
    if not (SRC / "relprof" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'relprof'} not found; run from a relprof checkout")
    OUT.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden(args.workload)
        return 0
    inputs, write_s = input_setup(args.seed)
    deadline = started + HARD_LIMIT_S
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(WORKLOADS[args.workload])} cases, trace {args.trace}")
    if args.trace:
        results, metrics, correct = traced(args.workload, args.seed, inputs, deadline)
    else:
        results, metrics, correct = end_to_end(
            args.workload, args.seconds, inputs, write_s, deadline)
    failed = sum(not r.ok for r in results)
    correct = correct and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
