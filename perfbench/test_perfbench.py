"""Tests of the benchmark's own logic: span arithmetic, wrapper binding and
the output checks.

    python3 -m pytest perfbench -q
"""
import random
import signal
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from calibrate import NEAREST, REFERENCE_S, TICK_S, Ticker  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_time, summarize  # noqa: E402

import nildual.cli  # noqa: E402,F401
from nildual import io_formats, loops, potentials  # noqa: E402
from nildual.nil3 import DomainGrid  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        Span("cli.cmd_dual", 0.0, 10.0, None, 0),
        Span("sym.sym_maps", 1.0, 4.0, 0, 0),
        Span("verify.analyze_sheet", 5.0, 9.0, 0, 0),
        Span("spinors.dirac_data", 6.0, 7.0, 2, 0),
        Span("spinors.dirac_data", 7.5, 8.0, 2, 0, {"nodes": 3}),
        Span("cli.cmd_dual", 20.0, 22.0, None, 1),
    ]
    per_iter = summarize(spans)
    first = per_iter[0]
    assert first["cli.cmd_dual"]["self"] == pytest.approx(3.0)
    assert first["cli.cmd_dual"]["total"] == pytest.approx(10.0)
    assert first["sym.sym_maps"]["self"] == pytest.approx(3.0)
    assert first["verify.analyze_sheet"]["self"] == pytest.approx(2.5)
    assert first["spinors.dirac_data"]["self"] == pytest.approx(1.5)
    assert first["spinors.dirac_data"]["calls"] == 2
    assert first["spinors.dirac_data"]["nodes"] == 3
    assert per_iter[1]["cli.cmd_dual"]["self"] == pytest.approx(2.0)

    metrics = layer_metrics(spans, overhead_s=0.25)
    # cli metrics are inclusive; every value is a median over iterations
    assert metrics["cli.cmd_dual.s"] == (pytest.approx(6.0), "s")
    assert metrics["sym.sym_maps.s"] == (pytest.approx(1.5), "s")
    assert metrics["trace.overhead_s"] == (0.25, "s")


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 10.0, None, 0), Span("b", 1.0, 3.0, 0, 0),
             Span("c", 2.0, 4.0, 0, 0), Span("d", 9.0, 12.0, 0, 0)]
    children = {0: [1, 2, 3]}
    assert self_time(spans, 0, children) == pytest.approx(10.0 - 3.0 - 1.0)


def _bindings():
    """Every callable bound in a nildual module or on MatrixLoop."""
    out = {(name, attr): value
           for name, mod in list(sys.modules.items())
           if name == "nildual" or name.startswith("nildual.")
           for attr, value in vars(mod).items() if callable(value)}
    out.update({("MatrixLoop", attr): value
                for attr, value in vars(loops.MatrixLoop).items()})
    return out


def _assert_restored(before):
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_wrappers_bind_every_holder_and_restore_it():
    before = _bindings()
    original = potentials.dpw_pipeline
    with Tracer().installed():
        assert nildual.cli.dpw_pipeline is not original
        assert nildual.cli.dpw_pipeline is potentials.dpw_pipeline
        assert nildual.cli.iof.write_json is io_formats.write_json
        assert (vars(loops.MatrixLoop)["mul"]
                is not before[("MatrixLoop", "mul")])
    _assert_restored(before)


def test_wrappers_restored_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer().installed():
            raise RuntimeError("boom")
    _assert_restored(before)


def test_wrapped_calls_record_parent_and_counts():
    tracer = Tracer()
    tracer.iteration = 4
    floop = loops.MatrixLoop.identity((2, 3))
    with tracer.installed():
        potentials.frame_field_from_loop(floop, 1.0, None)
        floop.mul(floop)
    names = [s.name for s in tracer.spans]
    assert names == ["potentials.frame_field_from_loop"] \
        + ["loops.MatrixLoop.eval"] * 3 + ["loops.MatrixLoop.mul"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0, 0, None]
    assert all(s.iteration == 4 for s in tracer.spans)
    assert tracer.spans[-1].counts == {"block_products": 6}


def test_nonfinite_obj_is_flagged(tmp_path):
    (tmp_path / "good.obj").write_text("# schema=1\nv 0.5 1 -2e-17\nf 1 1 1\n")
    assert checks.nonfinite_files(tmp_path) == []
    (tmp_path / "bad.obj").write_text("# schema=1\nv 0.5 nan 1\n")
    (tmp_path / "bad.csv").write_text("# schema=1\ni,j,x,y,re,im\n0,0,0,0,-inf,0\n")
    assert checks.nonfinite_files(tmp_path) == [
        "non-finite value in bad.csv", "non-finite value in bad.obj"]


def test_byte_changed_csv_is_flagged(tmp_path):
    grid = DomainGrid(-1, 1, -1, 1, 5, 5)
    io_formats.write_field_csv(tmp_path / "lam0_B.csv",
                               np.full(grid.shape, 0.25 + 0.5j), grid)
    reference = checks.digests(tmp_path)
    assert checks.changed_files(reference, checks.digests(tmp_path)) == []
    path = tmp_path / "lam0_B.csv"
    data = bytearray(path.read_bytes())
    data[-2] ^= 1
    path.write_bytes(bytes(data))
    assert checks.changed_files(reference, checks.digests(tmp_path)) == [
        "not deterministic: lam0_B.csv"]


def test_missed_cache_is_flagged(tmp_path):
    run_dir = tmp_path / "example_paraboloid_0123"
    run_dir.mkdir()
    (run_dir / "frames.json").write_text("{}")
    assert checks.cache_misses(tmp_path, [run_dir]) == []
    (tmp_path / "example_paraboloid_4567").mkdir()
    assert checks.cache_misses(tmp_path, [run_dir]) == [
        "cache miss: unexpected run directory example_paraboloid_4567"]
    (run_dir / "frames.json").unlink()
    assert checks.cache_misses(tmp_path, [run_dir])[0] == \
        "cache miss: no frames.json in example_paraboloid_0123"


def test_dual_with_other_flags_misses_the_cache(tmp_path):
    common = ["--example", "paraboloid", "--grid=-0.5,0.5,-0.5,0.5,17,17",
              "--out", str(tmp_path)]
    assert run.call_cli(nildual.cli.main, ["generate", *common])[0] == 0
    expected = [run.run_dir(tmp_path, "paraboloid")]
    assert checks.cache_misses(tmp_path, expected) == []
    run.call_cli(nildual.cli.main, ["dual", *common, "--allow-reflection"])
    problems = checks.cache_misses(tmp_path, expected)
    assert len(problems) == 1 and "unexpected run directory" in problems[0]


class _StubWorkload(run.Workload):
    def __init__(self, out, headroom):
        self.cli = types.SimpleNamespace(main=lambda argv: 0)
        self.out, self.headroom = out, headroom

    def commands(self, k):
        return self.out, [["noop"]]

    def check(self, out):
        return [], self.headroom


def test_failed_set_up_child_stops_the_run(tmp_path):
    wl = _StubWorkload(tmp_path, 0.5)
    wl.setup_repeats = 1
    wl.setup_commands = lambda repeat: [["generate", "--example", "nowhere",
                                         "--out", str(tmp_path)]]
    with pytest.raises(RuntimeError, match="set-up child exited 1"):
        run.set_up(wl)


def test_headroom_above_one_fails_the_iteration(tmp_path):
    order = random.Random(0)
    assert run.run_iteration(_StubWorkload(tmp_path, 0.9), 0, order)[2] == []
    problems = run.run_iteration(_StubWorkload(tmp_path, 1.25), 1, order)[2]
    assert problems == ["a check is at 1.25 of its tolerance"]


def test_failed_verify_report_is_flagged(tmp_path):
    rep = {"passed": False, "checks": [
        {"name": "flatness", "max": 5e-7, "tolerance": 1e-6, "passed": True},
        {"name": "minimality", "max": 3e-6, "tolerance": 1e-6,
         "passed": False}]}
    (tmp_path / "run").mkdir()
    io_formats.write_json(tmp_path / "run" / "report.json", rep)
    problems, headroom = checks.verify_reports(tmp_path)
    assert problems == ["verify failed in run: ['minimality']"]
    assert headroom == pytest.approx(3.0)


def test_self_duality_ratio_from_written_fields(tmp_path):
    grid = DomainGrid(-1, 1, -1, 1, 11, 11)
    h = 1.0 + grid.zz.real ** 2
    B = h ** 2 / 16.0 * np.exp(1j * grid.zz.imag)
    B[5, 5] *= 1.0 + 2e-7          # the worst interior node
    B[0, 0] *= 2.0                 # boundary band: outside the check
    io_formats.write_field_csv(tmp_path / "B.csv", B, grid)
    io_formats.write_field_csv(tmp_path / "h.csv", h.astype(complex), grid)
    ratio = checks.self_duality_ratio(tmp_path / "B.csv", tmp_path / "h.csv",
                                      1e-6)
    assert ratio == pytest.approx(0.2, rel=1e-6)


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    assert run.tail_percentile([float(i) for i in range(20)])[0] == 50
    assert run.tail_percentile([float(i) for i in range(100)])[0] == 90



def test_ticker_rescales_a_step_less_its_ticks():
    ticker = Ticker()
    # a unit took 2 REFERENCE_S before t = 10 and REFERENCE_S from then on
    ticker.samples = [(float(t), REFERENCE_S * (2 if t < 10 else 1))
                      for t in range(20)]
    # t = 12..18 inside: 7 ticks at full speed
    assert ticker.seconds(12.0, 18.0) == pytest.approx(6.0 - 7 * REFERENCE_S)
    # no tick inside: the NEAREST nearest, t = 2, 3 and 1, at half speed
    assert ticker.seconds(2.4, 2.6) == pytest.approx(0.1)
    # 9.5..10.5 holds t = 10 alone; the nearest add 9 and 11
    assert ticker.seconds(9.5, 10.5) == pytest.approx(
        (1.0 - REFERENCE_S) * 3 / 4)


def test_ticker_ticks_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Ticker() as ticker:
        deadline = time.monotonic() + 30
        while len(ticker.samples) < NEAREST and time.monotonic() < deadline:
            sum(range(10000))
        with ticker.paused():
            ticks = len(ticker.samples)
            end = time.monotonic() + 2 * TICK_S
            while time.monotonic() < end:
                sum(range(10000))
            assert len(ticker.samples) == ticks
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(ticker.samples) >= NEAREST
