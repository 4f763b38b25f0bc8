"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

import hostspeed
import inputs
import run
import spans

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load_benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- seeded inputs --------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_same_seed_gives_same_inputs(seed):
    assert inputs.cli_defs(seed) == inputs.cli_defs(seed)
    assert inputs.cli_requests(seed, "d.cql") == inputs.cli_requests(seed, "d.cql")
    assert inputs.los_corpus(seed) == inputs.los_corpus(seed)
    assert inputs.flagg_order(seed, 34) == inputs.flagg_order(seed, 34)
    assert inputs.cli_defs(seed) == inputs.cli_defs(seed + inputs.VARIANTS)


def test_seeds_change_the_inputs():
    defs = {inputs.cli_defs(v)[0] for v in range(inputs.VARIANTS)}
    corpora = {repr(inputs.los_corpus(v)) for v in range(inputs.VARIANTS)}
    assert len(defs) == inputs.VARIANTS
    assert len(corpora) > inputs.VARIANTS // 2
    assert inputs.flagg_order(1, 34) != inputs.flagg_order(2, 34)


def test_workload_sizes_match_their_definition():
    assert len(inputs.los_products()) == 102
    assert len(inputs.cli_requests(0, "d.cql")) >= 100
    for v in range(inputs.VARIANTS):
        for _, points, dist, pvals in inputs.los_corpus(v):
            assert len(points) <= 3 and inputs._fits_modulus(dist, pvals)


# -- tail rule -----------------------------------------------------------------------


@pytest.mark.parametrize("count, expected", [(11, 9), (20, 50), (34, 70), (101, 90),
                                             (102, 90), (1000, 99)])
def test_tail_percentile_leaves_ten_items_beyond(count, expected):
    p = run.tail_percentile(count)
    assert p == expected
    beyond = count - (-(-p * count // 100))
    assert beyond >= 10
    if p < 99:
        assert count - (-(-(p + 1) * count // 100)) < 10


def test_tail_percentile_needs_more_than_ten_items():
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_nearest_rank():
    values = list(range(100, 0, -1))
    assert run.nearest_rank(values, 90) == 90
    assert run.nearest_rank(values, 50) == 50
    assert run.nearest_rank([5, 1, 3], 70) == 5     # ceil(2.1) = rank 3
    assert run.nearest_rank([5, 1, 3], 1) == 1


# -- spans -------------------------------------------------------------------------------


def test_self_time_subtracts_children_only():
    # root [0, 10] holds [1, 3] and [4, 8]; [4, 8] holds [5, 6]
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [10.0, 3.0, 8.0, 6.0]
    parents = [-1, 0, 0, 2]
    assert list(spans.self_times(starts, ends, parents)) == [4.0, 2.0, 3.0, 1.0]


def test_recursion_counts_calls_but_opens_one_span():
    tracer = spans.Tracer()

    def fact(n):
        return 1 if n == 0 else n * traced(n - 1)

    traced = tracer.wrap(0, fact, None)
    assert traced(5) == 120
    assert tracer.calls[0] == 6
    assert len(tracer.span_start) == 1
    summary = tracer.summary()
    assert summary["spans"][tracer.names[0]] == 1
    assert summary["self"][tracer.names[0]] >= 0


def test_install_rebinds_every_module_name():
    sys.path.insert(0, run.SRC)
    from cqlogic import cli, semantics, ultraproduct
    original = semantics.eval_table
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ultraproduct.eval_table is semantics.eval_table
        assert semantics.eval_table.__wrapped__ is original
        assert hasattr(cli.validate_space, "__wrapped__")
    finally:
        tracer.uninstall()
    assert semantics.eval_table is original
    assert ultraproduct.eval_table is original


# -- metric names ------------------------------------------------------------------------


def test_metric_names_and_units():
    bench = load_benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME_RE.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(spans.LAYER_METRICS)
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)


def test_layer_metrics_cover_every_listed_name():
    empty = spans.merge([spans.Tracer().summary()])
    values = spans.layer_metrics(empty, 1.0)
    assert [(name, unit) for name, (_, unit) in values.items()] == \
        [(name, unit) for name, unit, _ in spans.LAYER_METRICS]


# -- per-child peak RSS ---------------------------------------------------------------------


def test_peak_rss_is_per_child():
    big = subprocess.Popen([sys.executable, "-c", "b = b'x' * (120 * 2**20)"])
    _, big_mb = run.wait_child(big)
    small = subprocess.Popen([sys.executable, "-c", "pass"])
    _, small_mb = run.wait_child(small)
    assert big_mb > 120
    assert small_mb < big_mb - 80


# -- without the program -----------------------------------------------------------------------


def test_fails_without_the_program():
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        for workload in sorted(run.WORKLOADS):
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                                  "--seed", "1", "--seconds", "1", "--trace", "0"],
                                 cwd=bare, capture_output=True, text=True, timeout=60)
            assert out.returncode != 0
            assert out.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


# -- sweeps ------------------------------------------------------------------------------------


class FakeWork:
    """Items named "long" sleep past SHORT_ITEM_S; "short" ones return at once."""

    def __init__(self, items, fail_on=None):
        self.items = items
        self.keys = ["k%d" % i for i in range(len(items))]
        self.calls = [0] * len(items)
        self.fail_on = fail_on

    def run(self, item):
        index, kind = item
        self.calls[index] += 1
        if self.fail_on == (index, self.calls[index]):
            raise RuntimeError("injected")
        if kind == "long":
            time.sleep(run.SHORT_ITEM_S * 1.2)
        return kind

    def verdict(self, item, output):
        return "ok"


def fake(kinds, fail_on=None):
    return FakeWork(list(enumerate(kinds)), fail_on)


def test_short_items_are_rerun_after_long_ones_and_topped_up():
    work = fake(["short", "long", "short", "long", "long"])
    expected = {k: "ok" for k in work.keys}
    latencies, failed = run.sweep(work, expected, resample_short=True)
    assert failed == 0
    assert work.calls == [run.SHORT_RUNS, 1, run.SHORT_RUNS, 1, 1]
    assert len(latencies) == 5 and min(latencies[1], latencies[3]) > run.SHORT_ITEM_S


def test_reruns_stop_at_short_runs():
    work = fake(["short"] + ["long"] * (run.SHORT_RUNS + 2))
    run.sweep(work, {k: "ok" for k in work.keys}, resample_short=True)
    assert work.calls[0] == run.SHORT_RUNS


def test_traced_sweeps_run_each_item_once():
    work = fake(["short", "long", "short"])
    latencies, failed = run.sweep(work, {k: "ok" for k in work.keys})
    assert failed == 0 and work.calls == [1, 1, 1]


def test_an_item_failing_on_a_rerun_counts_once():
    work = fake(["short", "long", "long", "long"], fail_on=(0, 2))
    latencies, failed = run.sweep(work, {k: "ok" for k in work.keys}, resample_short=True)
    assert failed == 1
    assert work.calls[0] == 2


def test_a_wrong_verdict_fails_the_item():
    work = fake(["short", "long"])
    latencies, failed = run.sweep(work, {"k0": "ok", "k1": "other"})
    assert failed == 1


# -- host-speed clock --------------------------------------------------------------------------


def fake_probe(readings):
    """A probe with nominal duration 1 s that returns ``readings`` in turn."""
    values = iter(readings)

    def probe():
        return next(values)

    probe.nominal_s = 1.0
    return probe


def test_host_clock_scales_by_the_probes_on_either_side():
    clock = hostspeed.HostClock(fake_probe([1.0, 3.0, 2.0]))
    clock.record(4.0)              # between probes 1 and 3: host at half speed
    clock.record(6.0)              # between probes 3 and 2
    assert clock.seconds() == [2.0, 2.4]
    assert clock.raw == [4.0, 6.0]


def test_host_clock_probes_every_nth_and_once_at_the_end():
    clock = hostspeed.HostClock(fake_probe([1.0, 2.0, 4.0]), every=2)
    for elapsed in (3.0, 3.0, 6.0):
        clock.record(elapsed)
    assert clock.seconds() == [2.0, 2.0, 2.0]
    assert len(clock.probes) == 3


def test_a_lap_cuts_a_long_measurement_into_parts():
    clock = hostspeed.HostClock(fake_probe([1.0, 3.0, 1.0]))
    clock.start()
    clock.t0 -= hostspeed.LAP_S + 1.0     # pretend the first step ran that long
    clock.lap()
    clock.t0 -= 1.0
    clock.stop()
    first, second = clock.parts[0][0][0], clock.parts[0][1][0]
    assert clock.seconds() == pytest.approx([first / 2 + second / 2])


def test_a_short_step_does_not_probe():
    clock = hostspeed.HostClock(fake_probe([1.0, 1.0]))
    clock.start()
    clock.lap()
    clock.stop()
    assert len(clock.probes) == 2 and len(clock.parts[0]) == 1


def test_wall_clock_gives_wall_time():
    clock = hostspeed.WallClock()
    clock.record(0.5)
    clock.lap()
    assert clock.seconds() == [0.5]
