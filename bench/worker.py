"""Run one benchmark case in a fresh interpreter and print its result as JSON.

    PYTHONPATH=src python3 bench/worker.py '{"argv": [...], "trace": false}'

A fresh process per case gives every case empty library caches and its own
peak resident set, as a CLI invocation has.  ``relprof.cli`` is imported
before the clock starts; the moment it is loaded is reported as ``ready`` on
the system-wide monotonic clock, so the caller can time interpreter start-up.
"""

import contextlib
import io
import json
import sys
import time


def e_ranks(path):
    """Library case: the age basis of a finite structure up to its size, then
    the exact rank of multiplication by e out of every degree."""
    from relprof import algebra, fileformat

    struct = fileformat.load_source(path)
    basis = algebra.AgeBasis.build(struct, struct.domain_size)
    for n in range(struct.domain_size):
        print(f"degree={n} rank={algebra.e_rank(basis, n)} dim={basis.dimension(n)} "
              f"next={basis.dimension(n + 1)}")
    return 0


LIBRARY = {"library:e-ranks": e_ranks}

REFERENCE_LOOP = 100_000
REFERENCE_REPEATS = 5


def peak_rss_mib():
    """This process's peak resident set.  ``ru_maxrss`` would not do: Linux
    carries it across exec, so it can report the spawning process's peak."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def reference_loop_times():
    """Times of a fixed pure-Python loop, taken around each case: on a shared
    box the machine's speed drifts by +-25% within minutes, and run.py
    rescales case times by these samples."""
    times = []
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        counts = {}
        for i in range(REFERENCE_LOOP):
            key = (i % 97, i % 89)
            counts[key] = counts.get(key, 0) + 1
        sorted(counts.items())
        times.append(time.perf_counter() - start)
    return times


def resolves(site):
    """Whether an import site ("module.name", "module.Class.name") still
    exists in the program, wrapped or not."""
    head, *names = site.split(".")
    if head == "bench":
        return True
    obj = sys.modules.get("relprof." + head)
    for name in names:
        obj = getattr(obj, name, None)
    return obj is not None


def main():
    from relprof import cli  # pulls in numpy and every relprof module

    ready = time.monotonic()
    from relprof import presentations, structures

    case = json.loads(sys.argv[1])
    argv = case["argv"]
    result = {"ready": ready}
    caches = {
        "canonical_code": structures.canonical_code,
        "enumerate_age": presentations.enumerate_age,
    }
    warm = [name for name, fn in caches.items() if fn.cache_info().currsize]
    if warm:
        result["error"] = f"library caches not cold at case start: {warm}"
        print(json.dumps(result))
        return
    if argv[0] in LIBRARY:
        func, call_args = LIBRARY[argv[0]], argv[1:]
    else:
        func, call_args = cli.main, [list(argv)]
    tracer = None
    if case["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        if func is cli.main:
            func = tracer.top("cli.main", func)
    reference_before = reference_loop_times()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start, cpu_start = time.perf_counter(), time.process_time()
        code = func(*call_args)
        result["seconds"] = time.perf_counter() - start
        result["cpu_seconds"] = time.process_time() - cpu_start
    result["reference_s"] = reference_before + reference_loop_times()
    result["exit"] = code
    result["stdout"] = out.getvalue()
    result["peak_rss_mib"] = peak_rss_mib()
    if tracer is not None:
        result["trace"] = tracer.summary(caches["canonical_code"])
        result["sites"] = tracer.sites
        from workloads import EXPECTED_SITES

        result["present"] = [site for site in EXPECTED_SITES if resolves(site)]
        result["spans"] = tracer.spans
    print(json.dumps(result))


if __name__ == "__main__":
    main()
