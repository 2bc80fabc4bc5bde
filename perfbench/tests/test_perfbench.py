"""Tests of the benchmark itself: ``python -m pytest perfbench/tests``."""

import io
import contextlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import oracle as o  # noqa: E402
import run  # noqa: E402
from spans import BOUNDARIES, Span, Tracer, self_times  # noqa: E402

CLI = run.load_program(ROOT)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_toy_functions():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        inner(2.0)
        clock.now += 0.5
        inner(0.25)

    def outer():
        clock.now += 4.0
        mid()

    inner = tracer.wrap("inner", leaf)
    mid = tracer.wrap("middle", middle)
    tracer.request_span(7, tracer.wrap("outer", outer))
    selfs = self_times(tracer.spans)
    assert selfs == {"cli.main": 0.0, "outer": 4.0, "middle": 1.5, "inner": 2.25}
    assert [s.request for s in tracer.spans] == [7] * 5
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 2, 2]


def test_counter_bookkeeping_is_excluded_from_every_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def slow_count(args, result):
        clock.now += 10.0

    def work():
        clock.now += 1.0

    counted = tracer.wrap("counted", work, slow_count)
    tracer.wrap("outer", lambda: (counted(), counted()))()
    assert self_times(tracer.spans) == {"outer": 0.0, "counted": 2.0}


def test_self_times_subtract_only_direct_children():
    spans = [Span("a", 0, 10, None, 0), Span("b", 1, 6, 0, 0), Span("c", 2, 5, 1, 0)]
    assert self_times(spans) == {"a": 5, "b": 2, "c": 3}


def test_tracer_rebinds_every_alias_and_restores_them():
    import mrbleib.cli as cli
    import mrbleib.cohomology as coh
    import mrbleib.linalg as linalg

    before = (cli.execute, coh.rank, linalg.rank, cli.cohomology_dimensions, coh.apply_delta)
    tracer = Tracer()
    tracer.install()
    try:
        assert coh.rank is linalg.rank and coh.rank is not before[1]
        assert cli.cohomology_dimensions.__wrapped__ is before[3]
        assert coh.apply_delta is before[4]  # per-cochain evaluators stay unwrapped
        for _layer, modname, fname in BOUNDARIES:
            assert hasattr(getattr(sys.modules[modname], fname), "__wrapped__"), fname
    finally:
        tracer.uninstall()
    assert (cli.execute, coh.rank, linalg.rank, cli.cohomology_dimensions) == before[:4]


def test_tracer_fails_loudly_on_an_alias_it_cannot_rebind(monkeypatch):
    import mrbleib.cohomology as coh

    class Sticky(types.ModuleType):
        def __setattr__(self, name, value):
            pass

    sticky = Sticky("mrbleib.sticky")
    sticky.__dict__["rank"] = coh.rank
    monkeypatch.setitem(sys.modules, "mrbleib.sticky", sticky)
    tracer = Tracer()
    try:
        with pytest.raises(RuntimeError, match="mrbleib.sticky.rank"):
            tracer.install()
    finally:
        tracer.uninstall()
    assert not hasattr(coh.rank, "__wrapped__")


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    def texts(seed):
        return [sorted(r.files.items()) for r in gen.requests(workload, seed, 0, set())]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_no_document_repeats_in_the_longest_run(workload):
    # a faster program runs more passes: the generators must not run dry
    seen = set()
    count = 0
    for p in range(run.MAX_PASSES):
        for req in gen.requests(workload, 1, p, seen):
            count += len(req.unique)
    assert len(seen) == count


def test_evaluator_agrees_with_a_known_defect():
    # [e1,e1] = e1 in dimension one: the Leibniz identity fails by -e1
    alg = o.algebra(1, [(1, 1, 1, 1)])
    assert o.leibniz_residuals(alg) == [((1, 1, 1), [o.Fraction(-1)])]
    assert o.is_valid(o.algebra(3, gen.SL2), gen.diag(-2, 2, -2), o.Fraction(-4))


def test_g3_degree_three_request_counts(tmp_path):
    text = gen.doc_text(o.algebra(3, [(1, 1, 3, 1)]), gen.diag(1, 0, 0), o.ONE)
    path = tmp_path / "g3.json"
    path.write_text(text)
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.request_span(0, CLI.main, ["cohomology", str(path)]) == 0
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["algebra.leibniz_defect.calls"][0] == 16
    assert m["algebra.mrb_defect.calls"][0] == 20
    assert m["cohomology.delta_matrix.calls"][0] == 15
    assert len(tracer.distinct["cohomology.delta_matrix"]) == 8


COUNTS = ("calls", "cohomology.assembled_entries", "cohomology.nnz", "linalg.max_bits",
          "linalg.Matrix.entries")


def exact_counts(tracer):
    return {k: v for k, (v, unit) in tracer.metrics().items()
            if unit != "s" and any(k.endswith(c) or k == c for c in COUNTS)}


def test_counts_repeat_exactly(tmp_path):
    runs = [run.execute(CLI, "session-mix", 5, 0, 1, tmp_path / str(n), limit=25)
            for n in range(2)]
    first, second = (exact_counts(r.tracers[0]) for r in runs)
    assert first == second
    assert first["documents.parse_document.calls"] > 0


def test_reports_identical_with_and_without_tracer(tmp_path):
    plain = run.Run(CLI, "session-mix", 2, tmp_path / "a", limit=40)
    traced = run.Run(CLI, "session-mix", 2, tmp_path / "b", limit=40)
    plain.run_pass(0, traced=False)
    traced.run_pass(0, traced=True)
    assert [oc.out for oc in plain.outcomes] == [oc.out for oc in traced.outcomes]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_smoke(workload, tmp_path):
    result = run.execute(CLI, workload, 1, 0, 0, tmp_path, limit=3)
    assert len(result.passes) == 1
    bad = [(oc.request.kind, oc.problem) for oc in result.outcomes
           if oc.problem and not oc.request.contract_break]
    assert not bad


def test_refuses_a_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coh-sparse", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
