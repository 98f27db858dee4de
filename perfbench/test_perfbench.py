"""Tests for the benchmark's own helpers (not for the program it measures).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from common import Metrics, put_layer_shares
from stats import (
    OpenLoop,
    constant_schedule,
    mix_median,
    percentile,
    samples_beyond,
    tail,
    tail_percentile,
)
from tracer import (
    Probe,
    ProbeError,
    Probes,
    Span,
    Tracer,
    layer_totals,
    self_times,
)


# -- operation time of a mix ---------------------------------------------------


def test_mix_median_weighs_each_kinds_median_by_its_share():
    assert mix_median([5.0, 1.0, 3.0], ["op"] * 3) == 3.0
    # 3 fast plans and 1 slow merge: 3/4 * 10 + 1/4 * 100.
    assert mix_median([9.0, 10.0, 11.0, 100.0], ["plan"] * 3 + ["merge"]) == 32.5


# -- tail percentile -----------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    p = tail_percentile(n)
    assert p == expected
    if p is not None:
        assert samples_beyond(n, p) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values[::-1], 99.9) == 100


def test_tail_reports_percentile_and_sample_count():
    t = tail([float(x) for x in range(40)])
    assert (t.percentile, t.value, t.samples) == (75.0, 29.0, 40)
    assert tail([1.0] * 19) is None


# -- self time -----------------------------------------------------------------


def _span(id_, name, start, end, parent=None, tid=1):
    return Span(id=id_, name=name, pid=1, tid=tid, start=start, end=end, parent=parent)


def test_self_time_subtracts_nested_children():
    root = _span(1, "root", 0, 100)
    a = _span(2, "a", 10, 40, root)
    a1 = _span(3, "a1", 20, 30, a)
    b = _span(4, "b", 50, 60, root)
    selfs = self_times([root, a, a1, b])
    assert selfs == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_takes_union_of_parallel_children_on_other_threads():
    root = _span(1, "root", 0, 100)
    a = _span(2, "io", 10, 60, root, tid=2)
    b = _span(3, "io", 20, 70, root, tid=3)
    late = _span(4, "io", 90, 130, root, tid=2)  # clipped to the parent
    selfs = self_times([root, a, b, late])
    assert selfs[1] == 100 - 60 - 10


def test_spans_on_different_threads_do_not_nest():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(name):
        with tracer.span(name):
            barrier.wait(timeout=10)

    threads = [threading.Thread(target=work, args=(n,)) for n in ("t1", "t2")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert all(sp.parent is None for sp in tracer.spans)
    selfs = self_times(tracer.spans)
    assert all(selfs[sp.id] == sp.duration for sp in tracer.spans)


def test_pool_work_inherits_the_submitting_span():
    tracer = Tracer()
    with Probes(tracer, []):
        with tracer.span("merge") as merge:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(lambda i: _traced(tracer, "read"), range(4)))
    reads = [sp for sp in tracer.spans if sp.name == "read"]
    assert len(reads) == 4 and all(sp.parent is merge for sp in reads)
    assert ThreadPoolExecutor.submit.__name__ == "submit"
    totals = layer_totals(tracer.spans)
    assert totals.self_ns["merge"] < totals.inclusive_ns["merge"]


def _traced(tracer, name):
    with tracer.span(name):
        return sum(range(1000))


def test_layer_totals_counts_a_reentrant_layer_once():
    root = _span(1, "io", 0, 100)
    inner = _span(2, "io", 10, 90, root)
    totals = layer_totals([root, inner])
    assert totals.inclusive_ns["io"] == 100
    assert totals.self_ns["io"] == 100


def test_layer_shares_cover_every_declared_layer_and_read_zero_when_unreached():
    op = _span(1, "recover.op", 0, 200)
    merge = _span(2, "core.merge", 0, 100, op)
    read = _span(3, "io.blobfile.read", 10, 60, merge)
    read.add("file_bytes", 8.0)
    metrics = Metrics()
    put_layer_shares([op, merge, read], "recover.op", 2, metrics)
    assert metrics["core.merge_pct"]["value"] == 50.0
    assert metrics["core.merge.self_pct"]["value"] == 25.0
    assert metrics["io.blobfile.read_pct"]["value"] == 25.0
    assert metrics["nn.forward_pct"]["value"] == 0.0
    assert metrics["trace.unattributed_pct"]["value"] == 50.0
    assert metrics["io.blobfile.bytes_read"]["value"] == 4.0
    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    assert all(declared.get(name) == m["unit"] for name, m in metrics.items())


def test_spilled_child_spans_link_under_the_forked_parent(tmp_path):
    tracer = Tracer(spill_dir=tmp_path)
    with tracer.span("merge") as merge:
        pass
    records = [
        {"id": 7, "name": "rank", "tid": 5, "start": merge.start, "end": merge.end,
         "parent": merge.id, "counts": {}},
        {"id": 8, "name": "read", "tid": 5, "start": merge.start, "end": merge.start + 1,
         "parent": 7, "counts": {"file_bytes": 3.0}},
    ]
    (tmp_path / "spans-4242.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    assert tracer.collect_spilled() == 2
    rank = next(sp for sp in tracer.spans if sp.name == "rank")
    read = next(sp for sp in tracer.spans if sp.name == "read")
    assert rank.parent is merge and read.parent is rank and read.pid == 4242
    assert len({sp.id for sp in tracer.spans}) == 3


def test_chrome_trace_is_valid_trace_event_json(tmp_path):
    tracer = Tracer()
    with tracer.span("train.step"):
        with tracer.span("nn.forward") as sp:
            sp.add("tokens", 4)
    doc = json.loads(tracer.export_chrome(tmp_path / "t.json").read_text())
    complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert {e["name"] for e in complete} == {"train.step", "nn.forward"}
    for e in complete:
        assert {"ts", "dur", "pid", "tid", "args"} <= e.keys() and e["dur"] >= 0
    fwd = next(e for e in complete if e["name"] == "nn.forward")
    assert fwd["args"]["tokens"] == 4


# -- probes ----------------------------------------------------------------------


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    impl = types.ModuleType("fakepkg.impl")
    user = types.ModuleType("fakepkg.user")

    def write(x):
        return x * 2

    class Base:
        def step(self):
            return "stepped"

    class Child(Base):
        pass

    impl.write, impl.Base, impl.Child = write, Base, Child
    user.write = write  # ``from .impl import write``
    mods = {"fakepkg": pkg, "fakepkg.impl": impl, "fakepkg.user": user}
    sys.modules.update(mods)
    yield impl, user
    for name in mods:
        sys.modules.pop(name)


def test_probes_wrap_every_binding_and_restore(fake_package):
    impl, user = fake_package
    original = impl.write
    tracer = Tracer()
    probes = [Probe("io.write", "fakepkg.impl:write"),
              Probe("optim.step", "fakepkg.impl:Child.step")]
    with Probes(tracer, probes, package="fakepkg") as installed:
        assert user.write(2) == 4 and impl.write(3) == 6
        assert impl.Child().step() == "stepped"
        assert impl.Base().step() == "stepped"  # the parent class is untouched
        installed.check_fired(["io.write", "optim.step"])
    assert impl.write is original and user.write is original
    assert "step" not in vars(impl.Child)
    assert [sp.name for sp in tracer.spans] == ["io.write", "io.write", "optim.step"]


def test_probe_that_never_fires_fails_loudly(fake_package):
    tracer = Tracer()
    with Probes(tracer, [Probe("io.write", "fakepkg.impl:write")], package="fakepkg") as p:
        pass
    with pytest.raises(ProbeError, match="io.write"):
        p.check_fired(["io.write"])


def test_missing_probe_target_fails_and_restores(fake_package):
    impl, _ = fake_package
    original = impl.write
    probes = [Probe("io.write", "fakepkg.impl:write"),
              Probe("gone", "fakepkg.impl:renamed_away")]
    with pytest.raises(ProbeError, match="renamed_away"):
        Probes(Tracer(), probes, package="fakepkg").install()
    assert impl.write is original


# -- open loop ---------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_open_loop_charges_lateness_to_later_requests():
    clock = FakeClock()
    loop = OpenLoop([0.1, 0.2, 0.9], clock=clock, sleep=clock.sleep)
    service = {0: 0.25, 1: 0.05, 2: 0.05}  # the first send stalls the generator

    def send(arrival):
        clock.now += service[arrival.index]
        arrival.finished = loop.now()

    loop.run(send)
    a, b, c = loop.arrivals
    assert a.late == pytest.approx(0.0) and a.latency == pytest.approx(0.25)
    # Due at 0.2, sent at 0.35 behind the stall: 0.15 late, and its
    # latency runs from the due time, not from the late send.
    assert b.sent == pytest.approx(0.35) and b.late == pytest.approx(0.15)
    assert b.latency == pytest.approx(0.2)
    assert c.late == pytest.approx(0.0) and c.latency == pytest.approx(0.05)
    assert loop.max_late() == pytest.approx(0.15)


def test_constant_schedule_spaces_arrivals_evenly():
    a = constant_schedule(5.0, 10.0, 0.5)
    assert len(a) == 50
    assert a[0] == pytest.approx(0.1)
    assert all(b - x == pytest.approx(0.2) for x, b in zip(a, a[1:]))
