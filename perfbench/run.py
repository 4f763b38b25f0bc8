"""The cqlogic benchmark: three closed-loop workloads with one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload {flagg,los,cli} --seed N --seconds S --trace {0,1}

``--trace 0`` times whole sweeps over the workload's items, repeating them
while another sweep fits in ``--seconds`` (at least one), and prints the
end-to-end metrics. ``--trace 1`` runs one traced sweep and prints the
per-layer metrics. Every item's verdict is compared with the digest pinned
in ``expected.json``. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the machine and the run. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

if __name__ == "__main__":
    # cqlogic does its work on one thread. numpy's default BLAS thread pool
    # made each cql request 75 ms slower at the median on a 2-CPU host, and
    # its start-up time bimodal, so every process of the benchmark uses one
    # thread. This must precede the first import of numpy.
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import hostspeed  # noqa: E402  (imports numpy, after the thread setting)
import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
EXPECTED = os.path.join(HERE, "expected.json")
CHILD = os.path.join(HERE, "child.py")
SETUP_PROBES = 5
TAIL_BEYOND = 10
# The host's speed drifts by about 20% over a few seconds. A long item
# averages that out; a short one samples a single moment. So an untraced
# sweep runs every item faster than SHORT_ITEM_S again after each of the
# next long items, then at the end, until it has run SHORT_RUNS times, and
# takes the median of its runs as its latency.
SHORT_ITEM_S = 0.05
SHORT_RUNS = 15
# A cql request is timed against a fresh-process probe (see hostspeed),
# which costs about half a request, so one probe serves three requests.
CLI_PROBE_EVERY = 3


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# -- workloads ------------------------------------------------------------------


def topology_key(topo):
    opens = sorted("".join(sorted(u)) or "-" for u in topo.opens)
    return "%s:%s" % ("".join(topo.points), ",".join(opens))


class Flagg:
    """The Flagg round trip over every topology on at most three points."""

    def __init__(self, seed):
        from cqlogic import spaces
        self.sp = spaces
        topologies = [t for points in inputs.FLAGG_POINTS
                      for t in spaces.enumerate_topologies(points)]
        self.items = [topologies[i] for i in inputs.flagg_order(seed, len(topologies))]
        self.keys = ["flagg/" + topology_key(t) for t in self.items]
        self.lap = hostspeed.WallClock().lap

    def run(self, topo):
        sp = self.sp
        options = [{}, {"materialize": False}]
        if len(topo.opens) <= 4:
            options.append({"materialize": True})
        output = []
        for option in options:
            space = sp.space_from_topology(topo, **option)
            self.lap()
            output.append((space, sp.induced_topology(space)))
            self.lap()
        return output

    def verdict(self, topo, output):
        if any(induced.opens != topo.opens for _, induced in output):
            return "induced topology differs from the source"
        names = [[[space.V.element_name(e) for e in row] for row in space.dist]
                 for space, _ in output]
        return digest(json.dumps(names).encode())


class Los:
    """Every Łoś entry of every D-product of a seeded chain:4 corpus."""

    def __init__(self, seed):
        from cqlogic import coquantale, formulas, semantics, spaces, ultraproduct
        self.up = ultraproduct
        vq = coquantale.builtin("chain:%d" % inputs.CHAIN)
        sig = formulas.Signature(predicates=[("P", 1, formulas.identity_modulus(vq))])
        self.corpus = [
            semantics.validate_structure(spaces.validate_space(vq, points, dist), sig,
                                         {"P": pvals}, name=name)
            for name, points, dist, pvals in inputs.los_corpus(seed)]
        self.pool = semantics.enumerate_formulas(sig, vq, 2, 1)
        self.items = inputs.los_products(len(self.corpus))
        self.keys = ["los/%d/%s/%d" % (inputs.variant(seed), "".join(map(str, combo)), gen)
                     for combo, gen in self.items]

    def run(self, item):
        combo, gen = item
        up = self.up
        dp = up.d_product_structure([self.corpus[i] for i in combo],
                                    up.PrincipalUltrafilter(len(combo), gen))
        return [up.los_check(dp, phi) for phi in self.pool]

    def verdict(self, item, reports):
        if not all(r.all_equal for r in reports):
            return "a Łoś equality fails"
        data = [[r.formula, [e.left for e in r.entries], [h[2:] for h in r.hypothesis]]
                for r in reports]
        return digest(json.dumps(data).encode())


class Cli:
    """A fixed script of cql requests, each in a fresh process."""

    def __init__(self, seed):
        os.makedirs(WORK, exist_ok=True)
        defs = os.path.join(os.path.basename(WORK), "defs-%d.cql" % inputs.variant(seed))
        text, _, _ = inputs.cli_defs(seed)
        with open(os.path.join(ROOT, defs), "w", encoding="utf-8") as handle:
            handle.write(text)
        self.items = inputs.cli_requests(seed, defs)
        self.keys = ["cli/%d/%d" % (inputs.variant(seed), i) for i in range(len(self.items))]
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("CQL_SEED", "PERFBENCH_TRACE", "PERFBENCH_SPAWN")}
        self.peak_rss_mb = []
        self.trace_dir = None
        self.traced = 0

    def run(self, args):
        env = self.env
        if self.trace_dir is not None:
            env = dict(env, PERFBENCH_TRACE=os.path.join(self.trace_dir, str(self.traced)))
            self.traced += 1
        env = dict(env, PERFBENCH_SPAWN=repr(time.monotonic()))
        proc = subprocess.Popen([sys.executable, CHILD] + args, cwd=ROOT, env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        with proc.stdout:
            out = proc.stdout.read()
        code, rss_mb = wait_child(proc)
        self.peak_rss_mb.append(rss_mb)
        return code, out

    def verdict(self, args, output):
        code, out = output
        return "%d:%s" % (code, digest(out))


def wait_child(proc):
    """Reap a child and return its exit code and its own peak RSS in MB.

    ``os.wait4`` gives the rusage of that child alone; RUSAGE_CHILDREN
    would give the running maximum over every child reaped so far.
    """
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


WORKLOADS = {"flagg": Flagg, "los": Los, "cli": Cli}


# -- measurement --------------------------------------------------------------------


def tail_percentile(count):
    """The highest whole percentile whose nearest rank leaves at least
    TAIL_BEYOND of ``count`` items beyond it."""
    for p in range(99, 0, -1):
        if count - math.ceil(p * count / 100) >= TAIL_BEYOND:
            return p
    raise ValueError("need more than %d items for a tail percentile" % TAIL_BEYOND)


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def sweep(work, expected, tracer=None, resample_short=False, clock=None):
    """Run every item; return (item seconds, failed item count).

    With ``resample_short``, short items are run again (see SHORT_ITEM_S).
    Traced sweeps run every item exactly once, so that the counts repeat.
    Each item starts on a collected heap, and the previous item's output is
    freed before the clock starts, so that no item pays for another's garbage.
    ``clock`` times each run (see hostspeed); by default it gives wall time.
    """
    clock = clock or hostspeed.WallClock()
    work.lap = clock.lap           # a workload may call it between the steps of an item
    runs = [[] for _ in work.items]
    short, bad = [], set()
    for index, (key, item) in enumerate(zip(work.keys, work.items)):
        if tracer is not None:
            tracer.item = index
        gc.collect()
        clock.start()
        try:
            output = work.run(item)
        except Exception:
            runs[index].append(clock.stop())
            traceback.print_exc(file=sys.stderr)
            bad.add(index)
            continue
        runs[index].append(clock.stop())
        got = work.verdict(item, output)
        output = None
        if got != expected.get(key):
            print("perfbench: %s gave %s, pinned %s" % (key, got, expected.get(key)),
                  file=sys.stderr)
            bad.add(index)
        elif resample_short:
            if clock.raw[runs[index][0]] < SHORT_ITEM_S:
                short.append(index)
            else:
                bad |= rerun(work, unfinished(short, bad, runs), runs, clock)
    while unfinished(short, bad, runs):
        bad |= rerun(work, unfinished(short, bad, runs), runs, clock)
    seconds = clock.seconds()
    return [statistics.median(seconds[j] for j in r) for r in runs], len(bad)


def unfinished(short, bad, runs):
    return [i for i in short if i not in bad and len(runs[i]) < SHORT_RUNS]


def rerun(work, indices, runs, clock):
    """Time each listed item once more; return the indices that raised.

    The items are short, so the host is probed once, after the last.
    """
    gc.collect()
    bad = set()
    for n, i in enumerate(indices, 1):
        clock.start()
        try:
            work.run(work.items[i])
        except Exception:
            traceback.print_exc(file=sys.stderr)
            bad.add(i)
        runs[i].append(clock.stop(probe=n == len(indices)))
    return bad


def probe_setup(workload, seed, clock):
    """Record the seconds from spawning a fresh process until its inputs are ready."""
    start = time.monotonic()
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe",
                          "--workload", workload, "--seed", str(seed)],
                         cwd=ROOT, capture_output=True, text=True, check=True, timeout=120)
    clock.record(float(out.stdout.split()[-1]) - start)


def machine_facts():
    facts = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": importlib.metadata.version("numpy"),
             "loadavg": [round(x, 2) for x in os.getloadavg()]}
    for path, field, key in (("/proc/meminfo", "MemTotal", "mem_total"),
                             ("/proc/cpuinfo", "model name", "cpu_model")):
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(field):
                        facts[key] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return facts


def metric(value, unit):
    return {"value": value, "unit": unit}


def host_clock(work):
    """The clock that scales the workload's items to host speed (see hostspeed)."""
    if isinstance(work, Cli):
        return hostspeed.HostClock(hostspeed.child_probe, every=CLI_PROBE_EVERY)
    return hostspeed.HostClock(hostspeed.probe)


def timed_run(args, work, expected):
    setup_clock = hostspeed.HostClock(hostspeed.child_probe)
    for _ in range(SETUP_PROBES):
        probe_setup(args.workload, args.seed, setup_clock)
    setup = setup_clock.seconds()
    clock = host_clock(work)
    per_sweep = len(work.items)
    latencies, sweeps, failed = [], [], 0
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        lat, bad = sweep(work, expected, resample_short=True, clock=clock)
        latencies += lat
        failed += bad
        sweeps.append(sum(lat))
        now = time.perf_counter()
        if now - begin + (now - started) > args.seconds:
            break
    if isinstance(work, Cli):
        peak = max(work.peak_rss_mb)
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    p = tail_percentile(per_sweep)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "sweep_s": metric(statistics.median(sweeps), "s"),
        "items_per_s": metric(len(latencies) / sum(sweeps), "1/s"),
        "item_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "item_tail_ms": metric(1000 * nearest_rank(latencies, p), "ms"),
        "peak_rss_mb": metric(peak, "MB"),
        "ok_frac": metric(1 - failed / len(latencies), "ratio"),
    }
    info = {"sweeps": len(sweeps), "items_per_sweep": per_sweep,
            "tail_percentile": p, "tail_items": len(latencies),
            "setup_probes": setup, "sweep_seconds": sweeps,
            "item_wall_seconds": sum(clock.raw),
            "probe_quartiles_ms": [1000 * q for q in statistics.quantiles(clock.probes, n=4)],
            "setup_wall_probes": setup_clock.raw,
            "setup_probe_quartiles_ms": [1000 * q for q in
                                         statistics.quantiles(setup_clock.probes, n=4)]}
    return len(latencies), failed, metrics, info


def traced_run(args, work, expected):
    import spans
    prefix = os.path.join(WORK, "trace-%s-%d" % (args.workload, args.seed))
    os.makedirs(WORK, exist_ok=True)
    if isinstance(work, Cli):
        work.trace_dir = prefix
        os.makedirs(prefix, exist_ok=True)
        latencies, failed = sweep(work, expected, clock=host_clock(work))
        summaries = []
        for i in range(work.traced):
            with open(os.path.join(prefix, "%d.json" % i), encoding="utf-8") as handle:
                summaries.append(json.load(handle))
        total = spans.merge(summaries)
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            latencies, failed = sweep(work, expected, tracer, clock=host_clock(work))
        finally:
            tracer.uninstall()
        total = spans.merge([tracer.dump(prefix)])
    layer = spans.layer_metrics(total, sum(latencies))
    metrics = {name: metric(value, unit) for name, (value, unit) in layer.items()}
    return len(latencies), failed, metrics, {"spans": os.path.relpath(prefix, ROOT)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="internal: prepare the inputs and print the clock")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cqlogic", "__init__.py")):
        print("perfbench: no cqlogic sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe:
        WORKLOADS[args.workload](args.seed)
        print(repr(time.monotonic()))
        return 0
    with open(EXPECTED, encoding="utf-8") as handle:
        expected = json.load(handle)

    work = WORKLOADS[args.workload](args.seed)
    run = traced_run if args.trace else timed_run
    attempted, failed, metrics, info = run(args, work, expected)
    info.update(workload=args.workload, seed=args.seed, variant=inputs.variant(args.seed),
                trace=args.trace, machine=machine_facts())
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
