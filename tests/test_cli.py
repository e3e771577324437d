"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betainc

from pradial import _csvtext, cli
from pradial.cli import main, write_csv
from pradial.distributions import RadialLawW
from pradial.lpgeom import sample_pnpw
from pradial.matrixball import sample_spectra
from pradial.measures import MeasureRep
from pradial.rates import rate_cone
from pradial.rng import _row_blocks

SRC = Path(__file__).resolve().parents[1] / "src"


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_strict_json(path):
    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def sha16(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# wrappers of a cli function, each made from the function it replaces

def b_without_atoms(real):
    """norm_split_B drawing with theta = 0, whatever theta it is given."""
    def draw(n, p, m, law, rng, size):
        return real(n, p, m, RadialLawW(alpha=law.alpha), rng, size=size)
    return draw


def b_with_nan(real):
    """norm_split_B with every hundredth draw nan."""
    def draw(*args, **kwargs):
        b = real(*args, **kwargs)
        b[::100] = np.nan
        return b
    return draw


def b_at_half_alpha(real):
    """norm_split_B drawing at half the alpha it is given."""
    def draw(n, p, m, law, rng, size):
        return real(n, p, m, RadialLawW(theta=law.theta, alpha=law.alpha / 2),
                    rng, size=size)
    return draw


def failed_chain(real):
    """sample_spectra whose chain reads as outside its acceptance window."""
    def draw(*args, **kwargs):
        s = real(*args, **kwargs)
        return dataclasses.replace(
            s, chain=dataclasses.replace(s.chain, ok=False))
    return draw


def _reference_fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def reference_write_csv(path, header, rows):
    """The row-at-a-time csv.writer the block writer replaced; its bytes
    are the format every CSV output keeps."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        for row in rows:
            w.writerow([_reference_fmt(v) for v in row])


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            1e-5, 1e-4, 1e16, 1e15, 0.1, -2.5, 1.0 / 3.0, 1.7976931348623157e308]


@pytest.mark.filterwarnings("error")
class TestWriteCsv:
    def assert_same(self, tmp_path, header, rows):
        write_csv(tmp_path / "new.csv", header, rows)
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_float64_specials(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.concatenate([np.array(_SPECIAL * 3).reshape(-1, 5),
                            rng.standard_normal((20_000, 5)) ** 9])
        self.assert_same(tmp_path, [f"x{i}" for i in range(1, 6)], x)
        back = np.loadtxt(tmp_path / "new.csv", delimiter=",", skiprows=1)
        assert back.tobytes() == x.tobytes()

    def test_float32_widens_like_repr(self, tmp_path):
        x = (np.random.default_rng(6).standard_normal((300, 3)) * 1e-3) \
            .astype(np.float32)
        self.assert_same(tmp_path, ["a", "b", "c"], x)
        first = read_csv(tmp_path / "new.csv")[1][0]
        assert first == repr(float(x[0, 0]))

    def test_strided_and_transposed(self, tmp_path):
        x = np.random.default_rng(7).standard_normal((9000, 8))
        self.assert_same(tmp_path, ["a", "b", "c"], x[::3, 1:7:2])
        self.assert_same(tmp_path, [f"c{i}" for i in range(9000)], x.T)

    def test_zero_and_one_row(self, tmp_path):
        self.assert_same(tmp_path, ["x1", "x2"], np.empty((0, 2)))
        assert (tmp_path / "new.csv").read_bytes() == b"x1,x2\n"
        self.assert_same(tmp_path, ["x1", "x2"], np.array([[0.1, -0.0]]))

    @pytest.mark.parametrize("legacy", [False, "1.13"])
    def test_mixed_tuple_rows(self, tmp_path, legacy):
        # numpy's legacy print mode shortens str(np.float64) to 12 digits;
        # the cells must not follow it
        rows = [(20, 1.5e-9, np.float64(1.0 / 3.0), "", 0, 0.125,
                 np.float64(0.1)),
                (4000, 0.0, math.inf, 3.0 / 2000, 1, 0.125, np.float64(np.inf)),
                (np.int64(7), np.float32(0.1), -math.inf, "", 1, math.nan,
                 -0.0)]
        with np.printoptions(legacy=legacy):
            self.assert_same(tmp_path, ["n", "prob_exact",
                                        "neg_log_prob_over_n", "freq_mc",
                                        "censored", "rate_infimum", "gap"],
                             rows)

    def test_integer_and_bool_arrays_keep_their_text(self, tmp_path):
        # an integer cell reads as its digits, as it does in a tuple row,
        # not as the float it widens to
        write_csv(tmp_path / "new.csv", ["a", "b"], np.array([[1, 2]]))
        assert (tmp_path / "new.csv").read_bytes() == b"a,b\n1,2\n"
        self.assert_same(tmp_path, ["a", "b", "c"],
                         np.arange(-6, 3000).reshape(-1, 3) * 10 ** 12)
        self.assert_same(tmp_path, ["a", "b"], np.array([[True, False]]))

    def test_streams_in_blocks(self, tmp_path):
        # boxing the whole 20000 x 50 table at once costs about 70 MB of
        # traced Python objects; one block at a time stays near 1 MB
        x = np.random.default_rng(8).standard_normal((20_000, 50))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", [f"x{i}" for i in range(50)], x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_streams_in_blocks_on_many_cpus(self, tmp_path, monkeypatch):
        # the workers are capped, so eight CPUs hold no more blocks in
        # flight than two
        on_cpus(monkeypatch, 8)
        self.test_streams_in_blocks(tmp_path)


def test_json_takes_numpy_scalars_as_plain_values(tmp_path):
    cli.write_json(tmp_path / "r.json", {"ok": np.bool_(True), "n": np.int64(3),
                                         "x": [np.float32(-np.inf), 0.5]})
    assert read_strict_json(tmp_path / "r.json") == {"ok": True, "n": 3,
                                                     "x": ["-inf", 0.5]}


def repr_text(x):
    """The CSV text of a 2-D array with every cell repr(float(v))."""
    return "".join(",".join(map(repr, row)) + "\n" for row in x.tolist())


def float_text(x):
    """The text _format_block gives a float block, as str."""
    scratch = np.empty(x.size * _csvtext._SLOTS)
    return _csvtext._format_block(x, scratch).tobytes().decode()


def test_float_text_computes_in_its_scratch():
    # every block-sized array of the formatter is a view of its scratch:
    # what it allocates besides, on a block of 2^16 cells, is the index
    # arrays and temporaries of the few cells on a rarer path; block-sized
    # temporaries took 9.6 MB
    x = np.random.default_rng(14).standard_normal((1 << 10, 64)) ** 3
    scratch = np.empty(x.size * _csvtext._SLOTS)
    want = _csvtext._float_text(x, scratch).tobytes()  # builds the tables
    tracemalloc.start()
    try:
        got = _csvtext._float_text(x, scratch).tobytes()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want == repr_text(x).encode()
    assert peak < 1.5e6


def test_float_text_stays_in_its_scratch():
    # the text is a view of the scratch, and nothing past the block's
    # _SLOTS floats a cell is touched
    x = np.random.default_rng(16).standard_normal((500, 7)) ** 5
    scratch = np.full((x.size + 3) * _csvtext._SLOTS, -7.25)
    text = _csvtext._float_text(x, scratch)
    assert np.shares_memory(text, scratch)
    assert text.tobytes() == repr_text(x).encode()
    assert (scratch[x.size * _csvtext._SLOTS:] == -7.25).all()


# cells around the 4 bytes the shortest cell has and the 8 a copied word
# has: runs of short ones, the 25-byte longest, and cells with a point
# inside their digits, which go to repr
_LAYOUT_EDGES = [0.5, 1.0, -0.0, 2.0, 0.25, 0.5, 0.5, -1.2345678901234567e-100,
                 0.5, 12.5, 1234567890123456.0, -1234567890123456.0, 1.0,
                 2.0, 1e16, -1.5, 0.0, 12.0, 1e22, 0.001, -9.5e-5]


@pytest.mark.parametrize("cols", [1, 3, 7])
def test_float_text_layout_edges(cols):
    x = np.tile(np.array(_LAYOUT_EDGES), 3 * cols).reshape(-1, cols)
    assert float_text(x) == repr_text(x)
    assert len(repr(-1.2345678901234567e-100) + ",") == 25


@pytest.mark.parametrize("cpus", [1, 2])
def test_write_csv_layout_edges(tmp_path, monkeypatch, cpus):
    # 84 000 edge cells, more than one block, in one column and in five
    on_cpus(monkeypatch, cpus)
    for cols in (1, 5):
        x = np.tile(np.array(_LAYOUT_EDGES), 4000 * cols).reshape(-1, cols)
        TestWriteCsv().assert_same(tmp_path, [f"c{i}" for i in range(cols)], x)


def _neighbours(x):
    return np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])


@pytest.mark.filterwarnings("error")
class TestFloatText:
    """The numpy formatter of float blocks against repr, cell by cell."""

    def assert_repr(self, x):
        x = np.asarray(x, dtype=float).reshape(-1, 3)
        got, want = float_text(x), repr_text(x)
        if got != want:
            bad = [(g, w) for g, w in zip(got.replace("\n", ",").split(","),
                                          want.replace("\n", ",").split(","))
                   if g != w]
            pytest.fail(f"{len(bad)} cells differ from repr, e.g. {bad[:5]}")

    def test_powers_of_ten(self):
        # X rounds to exactly 1e16 or 1e17 next to a power of ten, where a
        # decimal exponent from log10 is one too high
        p10 = np.array([float(f"1e{k}") for k in range(-323, 309)])
        self.assert_repr(_neighbours(np.concatenate([p10, -p10])))

    def test_powers_of_two(self):
        # below a power of two the rounding interval is half as wide
        p2 = np.ldexp(1.0, np.arange(-1074, 1024))
        self.assert_repr(_neighbours(np.concatenate([p2, -p2])))

    def test_integers_around_2_53(self):
        x = np.arange(2 ** 53 - 3000, 2 ** 53 + 3000, dtype=np.int64)
        self.assert_repr(np.concatenate([x, -x, x * 10 ** 3]).astype(float))

    def test_one_to_seventeen_digits(self):
        rng = np.random.default_rng(11)
        x = [float(f"{rng.integers(10 ** (k - 1), 10 ** k)}e{e}")
             for k in range(1, 18) for e in rng.integers(-330, 300, 198)]
        self.assert_repr(x)

    def test_specials_and_float32(self):
        self.assert_repr(_SPECIAL)
        x = np.random.default_rng(12).standard_normal((300, 3)) ** 7
        specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-45, -1e-45,
                    1e-38, 0.1, -2.5, 1.0 / 3.0, 1e16, 3.4028235e38]
        x32 = np.concatenate([specials, x.ravel()]).astype(np.float32)
        x32 = x32[:x32.size // 3 * 3].reshape(-1, 3)
        assert float_text(x32) == repr_text(x32.astype(float))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=3, max_size=300))
    def test_any_bit_pattern(self, bits):
        bits = np.array(bits[:len(bits) // 3 * 3], dtype=np.uint64)
        self.assert_repr(bits.view(np.float64))

    @pytest.mark.parametrize("draw", [
        lambda g: sample_pnpw(50, 2.0, RadialLawW.dirac(), g, size=10 ** 4),
        lambda g: sample_pnpw(50, 0.015, RadialLawW.dirac(), g, size=4000),
        lambda g: sample_pnpw(50, 0.7, RadialLawW(theta=0.3, alpha=2.0), g,
                              size=4000),
        lambda g: sample_pnpw(50, 3.0, RadialLawW.exponential(), g,
                              size=4000),
        lambda g: sample_spectra("H", 33, 2.0, 2.0, RadialLawW.exponential(),
                                 g, size=4000),
        lambda g: sample_spectra("M", 16, 2.0, 2.0, RadialLawW.exponential(),
                                 g, size=4000),
    ], ids=["cone-p2", "cone-p0.015", "pnpw-p0.7", "uniform-p3", "H-n33",
            "M-n16"])
    def test_repr_fallback_is_rare(self, monkeypatch, draw):
        # the samplers write points of a ball, in the one pass's range
        # (1e-280, 10): at most one cell in a thousand goes to repr
        from pradial.rng import RngStream

        real, seen = _csvtext._repr_cells, []
        monkeypatch.setattr(_csvtext, "_repr_cells",
                            lambda v: seen.append(v.size) or real(v))
        x = draw(RngStream(13)).points
        assert float_text(x) == repr_text(x)
        assert sum(seen) <= x.size / 1000


@pytest.fixture
def switching():
    """Threads switch every microsecond, so that state two of them share
    shows in what they write."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def on_cpus(monkeypatch, k):
    """Make the process's affinity set read as k CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)),
                        raising=False)


def within(seconds, call):
    """What call() raises, None if it returns; fails the test if call has
    not ended after the given seconds.  It runs on a daemon thread, so a
    call that hangs does not hold up the test run."""
    raised = []

    def target():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return raised[0] if raised else None


def test_float_text_threads_keep_their_own_canvas(monkeypatch, switching):
    # each worker of the runner formats into its own scratch: six workers
    # that format same-sized blocks at once, switching often, must not
    # share it
    from pradial.rng import _run_blocks

    blocks = [np.random.default_rng(s).standard_normal((400, 3)) ** 3
              for s in range(6)]
    got = {}

    def run(mine, scratch):
        for k in mine:
            got[k] = {_csvtext._format_block(blocks[k], scratch).tobytes()
                      for _ in range(20)}

    on_cpus(monkeypatch, 6)
    assert within(120, lambda: _run_blocks(
        range(6), run, blocks[0].size * _csvtext._SLOTS)) is None
    assert got == {k: {repr_text(b).encode()} for k, b in enumerate(blocks)}


def _big_table(kind):
    """A table of 4 row blocks or more: 21 000 rows of 50 floats (17
    blocks), or 30 000 of 7 mixed cells (4)."""
    rng = np.random.default_rng(9)
    if kind == "float64":
        x = rng.standard_normal((21_000, 50)) ** 9
        specials = np.array(_SPECIAL * 10).reshape(-1, 50)
        # at the start, across a block boundary and at the end
        b = _row_blocks(len(x), 50)[1].start
        x[:3] = x[b - 1:b + 2] = x[-3:] = specials
        return x
    if kind == "float32":
        return (rng.standard_normal((21_000, 50)) * 1e-3).astype(np.float32)
    u = rng.standard_normal(30_000)
    return [(i, float(v), np.float64(v / 3), "" if i % 2 else "a",
             _SPECIAL[i % len(_SPECIAL)], np.int64(-i), np.float32(v))
            for i, v in enumerate(u)]


@pytest.fixture
def two_cpus(monkeypatch):
    """write_csv sees two CPUs, whatever this host has."""
    on_cpus(monkeypatch, 2)


@pytest.mark.filterwarnings("error")
class TestParallelWriteCsv:
    """A table of more than one block is formatted on one thread per CPU,
    with the bytes of the serial loop."""

    @pytest.mark.parametrize("kind", ["float64", "float32", "tuples"])
    def test_bytes_match_reference(self, tmp_path, monkeypatch, switching,
                                   kind):
        rows = _big_table(kind)
        header = [f"c{i}" for i in range(len(rows[0]))]
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        for cpus in (1, 2, 3):
            on_cpus(monkeypatch, cpus)
            assert within(120, lambda: write_csv(
                tmp_path / "new.csv", header, rows)) is None
            assert (tmp_path / "new.csv").read_bytes() == \
                (tmp_path / "ref.csv").read_bytes(), cpus

    def test_no_worker_outlives_a_write(self, tmp_path, two_cpus):
        before = threading.active_count()
        write_csv(tmp_path / "big.csv", [f"x{i}" for i in range(50)],
                  _big_table("float64"))
        assert threading.active_count() == before

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses every write")
    def test_no_worker_outlives_a_failed_write(self, two_cpus):
        x, before = _big_table("float64"), threading.active_count()
        exc = within(120, lambda: write_csv(
            "/dev/full", [f"x{i}" for i in range(50)], x))
        assert isinstance(exc, OSError)
        assert threading.active_count() == before

    def test_failed_block_reaches_the_caller(self, tmp_path, monkeypatch,
                                             two_cpus):
        # worker 1, the thread the runner starts, fails on its second
        # block, block 3, while worker 0, the calling thread, waits for that
        # block's turn to write block 4
        real, caller, calls = cli._format_block, [], []

        def fail_once(block, scratch):
            if threading.get_ident() != caller[0]:
                calls.append(1)
                if len(calls) == 2:
                    raise ValueError("formatter failed")
            return real(block, scratch)

        def write():
            caller.append(threading.get_ident())
            write_csv(tmp_path / "big.csv", [f"x{i}" for i in range(50)], x)

        monkeypatch.setattr(cli, "_format_block", fail_once)
        x, before = _big_table("float64"), threading.active_count()
        exc = within(120, write)
        assert isinstance(exc, ValueError) and len(calls) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", ["affinity", "cpu_count"])
    def test_one_cpu_stays_in_process(self, tmp_path, monkeypatch, cpus):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started on one CPU")

        monkeypatch.setattr(threading, "Thread", refuse)
        if cpus == "affinity":
            on_cpus(monkeypatch, 1)
        else:
            # a platform without the affinity call falls back to cpu_count
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        x = np.random.default_rng(4).standard_normal((3000, 50))
        TestWriteCsv().assert_same(tmp_path, [f"x{i}" for i in range(50)], x)

    def test_parent_streams_in_blocks(self, tmp_path, two_cpus):
        # the two workers hold a block each in flight, a few hundred kB of
        # text and its temporaries, never the whole table
        x = _big_table("float64")
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", [f"x{i}" for i in range(50)], x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestSample:
    def test_cone_outputs_and_manifest(self, tmp_path):
        code, out = run(tmp_path, "sample", "--target", "cone", "--n", "3",
                        "--count", "50", "--seed", "7")
        assert code == 0
        rows = read_csv(out / "samples.csv")
        assert rows[0] == ["x1", "x2", "x3"]
        assert len(rows) == 51
        pts = np.array(rows[1:], dtype=float)
        assert np.allclose(np.sum(pts ** 2, axis=1), 1.0, atol=1e-10)
        man = read_json(out / "manifest.json")
        assert man["artifact"] == "pradial"
        assert man["command"] == "sample"
        assert man["config"]["seed"] == 7
        assert "samples.csv" in man["outputs"]
        assert man["threshold_overridden"] is False

    def test_missing_required_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "sample", "--target", "cone")
        assert code == 2

    def test_unknown_target_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "sample", "--target", "blob", "--n", "3")
        assert code == 2

    def test_byte_identical_rerun(self, tmp_path):
        args = ("sample", "--target", "pnpw", "--n", "4", "--count", "100",
                "--seed", "99")
        _, out1 = run(tmp_path / "a", *args)
        _, out2 = run(tmp_path / "b", *args)
        assert (out1 / "samples.csv").read_bytes() == \
            (out2 / "samples.csv").read_bytes()

    def test_mcmc_target_writes_diagnostics(self, tmp_path):
        # p != 2: the spectral targets run the chain
        code, out = run(tmp_path, "sample", "--target", "eigen-PH", "--n",
                        "3", "--count", "50", "--seed", "3", "--p", "3")
        assert code == 0
        diag = read_json(out / "diagnostics.json")
        assert diag["chain_ok"] is True
        assert 0.2 <= diag["accept_rate"] <= 0.6
        assert diag["method"] == "chain"

    @pytest.mark.parametrize("target", ["eigen-PH", "singular-PM"])
    def test_exact_target_writes_diagnostics(self, tmp_path, target):
        # p = 2: the spectra are drawn exactly, one independent state a row,
        # and no acceptance is reported
        code, out = run(tmp_path, "sample", "--target", target, "--n", "3",
                        "--count", "50", "--seed", "3")
        assert code == 0
        diag = read_strict_json(out / "diagnostics.json")
        assert diag == {"method": "exact", "states": 50}
        assert "diagnostics.json" in read_json(out / "manifest.json")["outputs"]

    @pytest.mark.parametrize("target", ["eigen-PH", "singular-PM"])
    def test_per_chain_diagnostics(self, tmp_path, target):
        code, out = run(tmp_path, "sample", "--target", target, "--n", "4",
                        "--count", "200", "--seed", "5", "--p", "3")
        assert code == 0
        diag = read_strict_json(out / "diagnostics.json")
        per_chain = diag["accept_per_chain"]
        assert len(per_chain) == 16  # the default number of chains
        assert all(0.0 < a < 1.0 for a in per_chain)
        # 16 chains keep ceil(200 / 16) = 13 states each, and a chain's ESS
        # is at most its length
        assert diag["states"] == 16 * 13
        assert 0.0 < diag["ess"] <= diag["states"]
        # reported, not gated: 50 states a chain is too few to hold it to
        # a bound
        assert 0.9 < diag["rhat"] < math.inf

    def test_states_are_the_base_of_ess(self, tmp_path):
        # 5 rows from 16 chains: each chain keeps one state, and the
        # diagnostics cover all 16
        code, out = run(tmp_path, "sample", "--target", "eigen-PH", "--n",
                        "3", "--count", "5", "--seed", "1", "--p", "3")
        assert code == 0
        assert len(read_csv(out / "samples.csv")) == 1 + 5
        diag = read_strict_json(out / "diagnostics.json")
        assert diag["states"] == 16
        assert 0.0 < diag["ess"] <= diag["states"]

    def test_diagnostics_report_the_direction(self, tmp_path):
        # the radius refresh mixes ||x||_p^p by construction, so the
        # direction's ESS and R-hat are reported beside it, ungated
        code, out = run(tmp_path, "sample", "--target", "singular-PM",
                        "--n", "6", "--count", "320", "--seed", "2", "--p", "3")
        assert code == 0
        diag = read_strict_json(out / "diagnostics.json")
        assert 0.0 < diag["ess_dir"] < diag["ess"]
        assert 0.9 < diag["rhat_dir"] < math.inf

    def test_weighted_pnpw_is_not_a_target(self, tmp_path, capsys):
        # the Delta_beta chain on the ball is the eigen-PH target
        code, out = run(tmp_path, "sample", "--target", "weighted-pnpw",
                        "--n", "3", "--count", "5", "--seed", "3")
        assert code == 2
        assert "--target" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, digest", [
        (("--target", "cone", "--n", "4", "--seed", "1", "--count", "2000"),
         "445346d7034470c2"),
        (("--target", "eigen-PH", "--n", "4", "--seed", "1", "--theta",
          "0.3", "--count", "300"), "bfb4efa929516ae4"),
        (("--target", "eigen-PH", "--n", "16", "--seed", "1", "--theta",
          "0.3", "--count", "300"), "5e4406995593553e"),
        (("--target", "singular-PM", "--n", "16", "--seed", "1", "--theta",
          "0.3", "--count", "300"), "8cecf415eda0c05e"),
        (("--target", "uniform", "--n", "4", "--seed", "1", "--count",
          "2000"), "4d5a317e3870d43d"),
        (("--target", "pnpw", "--n", "4", "--seed", "1", "--theta", "0.3",
          "--alpha", "2", "--count", "2000"), "3b542291eae923fd"),
        # beta != 2 turns on the orthant weight's power term
        (("--target", "singular-PM", "--n", "8", "--beta", "1", "--seed", "1",
          "--theta", "0.3", "--count", "300"), "17cea37949c18335"),
        (("--target", "singular-PM", "--n", "8", "--beta", "4", "--seed", "1",
          "--theta", "0.3", "--count", "300"), "f0cf27c5a5f7a4fb"),
        (("--target", "eigen-PH", "--n", "8", "--beta", "1", "--seed", "1",
          "--theta", "0.3", "--count", "300"), "07fe92eb883e1060"),
        # the same spectral rows at p = 3, where the chain draws them
        (("--target", "eigen-PH", "--n", "4", "--seed", "1", "--theta",
          "0.3", "--count", "300", "--p", "3"), "a3f87577f63c9c36"),
        (("--target", "eigen-PH", "--n", "16", "--seed", "1", "--theta",
          "0.3", "--count", "300", "--p", "3"), "b9ad3af37a9cf78d"),
        (("--target", "singular-PM", "--n", "16", "--seed", "1", "--theta",
          "0.3", "--count", "300", "--p", "3"), "4ead697dabe6ea05"),
        (("--target", "singular-PM", "--n", "8", "--beta", "1", "--seed", "1",
          "--theta", "0.3", "--count", "300", "--p", "3"), "ac6c31fa18a0b927"),
        (("--target", "singular-PM", "--n", "8", "--beta", "4", "--seed", "1",
          "--theta", "0.3", "--count", "300", "--p", "3"), "0d326b32f02913c5"),
        (("--target", "eigen-PH", "--n", "8", "--beta", "1", "--seed", "1",
          "--theta", "0.3", "--count", "300", "--p", "3"), "bbc3cb91a0e8ee1a"),
        # the tables the CLI writes most; at p = 0.015 a fifth of the cells
        # are 25 bytes long, with 3-digit exponents
        (("--target", "cone", "--n", "50", "--count", "2000", "--seed", "1",
          "--p", "0.015"), "7a6cce0cde04253a"),
        (("--target", "cone", "--n", "50", "--count", "2000", "--seed", "1",
          "--p", "0.7"), "31a09a3d84d31009"),
        (("--target", "cone", "--n", "50", "--count", "2000", "--seed", "1",
          "--p", "3"), "6c5b9e8386c23549"),
    ])
    def test_golden_digest(self, tmp_path, argv, digest):
        code, out = run(tmp_path, "sample", *argv)
        assert code == 0
        assert sha16(out / "samples.csv") == digest

    # cone and uniform are the W = delta_0 and W = Exp(1) laws of pnpw,
    # drawn by the one exact sampler from the same stream
    @pytest.mark.parametrize("orthant", [(), ("--orthant",)],
                             ids=["ball", "orthant"])
    @pytest.mark.parametrize("target, law", [
        ("cone", ("--theta", "1")),
        ("uniform", ("--theta", "0", "--alpha", "1"))])
    def test_exact_targets_are_pnpw_laws(self, tmp_path, target, law,
                                         orthant):
        common = ("--n", "3", "--seed", "4", "--count", "200") + orthant
        code, named = run(tmp_path / "a", "sample", "--target", target,
                          *common)
        assert code == 0
        code, mixed = run(tmp_path / "b", "sample", "--target", "pnpw",
                          *law, *common)
        assert code == 0
        assert (named / "samples.csv").read_bytes() == \
            (mixed / "samples.csv").read_bytes()

    # a chain target's weight fixes its support and its degree, so
    # `sample --orthant` and `test-norm-law --m` are usage errors there
    @pytest.mark.parametrize("command, target, flags", [
        pytest.param("sample", t, ("--orthant",), id=t)
        for t in ("eigen-PH", "singular-PM")] + [
        pytest.param("test-norm-law", t, ("--m", "2"), id=f"m-{t}")
        for t in ("eigen-PH", "singular-PM")])
    def test_orthant_rejected_for_chain_targets(self, tmp_path, capsys,
                                                command, target, flags):
        code, out = run(tmp_path, command, "--target", target, "--n", "3",
                        "--count", "5", "--seed", "1", *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("target", ["eigen-PH", "cone"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, target):
        code, out = run(tmp_path, "sample", "--target", target, "--n", "3",
                        "--count", "0", "--seed", "1")
        assert code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--target", "cone", "--n", "20", "--count", "2000", "--p", "0.005"),
        ("--target", "cone", "--n", "20", "--count", "2000", "--p", "2000"),
        ("--target", "singular-PM", "--n", "4", "--count", "500", "--p",
         "0.01")], ids=["cone-p0.005", "cone-p2000", "singular-PM-p0.01"])
    @pytest.mark.filterwarnings("error")
    def test_non_finite_cells_exit_3(self, tmp_path, capsys, argv):
        # the exact sampler overflows at p = 0.005 and divides 0 by 0 in
        # some rows at p = 2000, and the chain's states are nan at
        # p = 0.01: the rows are written, and the run fails naming them
        code, out = run(tmp_path, "sample", *argv, "--seed", "3")
        assert code == 3
        rows = read_csv(out / "samples.csv")[1:]
        bad = sum(not all(math.isfinite(float(c)) for c in r) for r in rows)
        assert bad > 0
        err = capsys.readouterr().err
        assert err.endswith(f"{bad} of {len(rows)} rows of samples.csv hold "
                            "non-finite cells; outputs retained\n")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    def test_small_p_rows_are_not_zero(self, tmp_path):
        # at n = 50, p = 0.01 the divisor (||x||_p^p)^(1/p) overflows while
        # each |x_i|^p is finite: the rows are on the sphere, not 0
        code, out = run(tmp_path, "sample", "--target", "cone", "--n", "50",
                        "--p", "0.01", "--count", "3", "--seed", "1")
        assert code == 0
        x = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
        assert np.all(np.any(x != 0.0, axis=1))
        assert np.allclose(np.sum(np.abs(x) ** 0.01, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("p", ["0.005", "2000"])
    def test_extreme_p_prints_one_stderr_line(self, tmp_path, p):
        # a fresh process, so that stderr holds any warning numpy prints:
        # pytest would capture it in process
        proc = subprocess.run(
            [sys.executable, "-m", "pradial.cli", "sample", "--target",
             "cone", "--n", "20", "--count", "2000", "--seed", "3", "--p", p,
             "--out", str(tmp_path)],
            env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1, proc.stderr

    def test_manifest_reruns_as_config(self, tmp_path):
        code, out1 = run(tmp_path / "a", "sample", "--target", "uniform",
                         "--n", "2", "--count", "30", "--seed", "5")
        assert code == 0
        out2 = tmp_path / "b"
        code = main(["sample", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)])
        assert code == 0
        assert (out1 / "samples.csv").read_bytes() == \
            (out2 / "samples.csv").read_bytes()


@pytest.mark.parametrize("count", [1, 2000, 10 ** 6, "nan"])
def test_ks_matches_scipy_bit_for_bit(tmp_path, monkeypatch, count):
    # the report's D and p-value are those of stats.kstest on the same B
    # draws below the atom cut, against the Beta law below it, a nan B
    # included, which makes both nan
    from scipy import stats

    real, drawn = cli.norm_split_B, []
    if count == "nan":
        real, count = b_with_nan(real), 2000

    def draw(*args, **kwargs):
        drawn.append(real(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(cli, "norm_split_B", draw)
    run(tmp_path, "test-norm-law", "--target", "euclid", "--n", "4",
        "--count", str(count), "--seed", "15")
    rep = read_strict_json(tmp_path / "out" / "norm_law_report.json")
    assert (rep["beta_shape_a"], rep["beta_shape_b"]) == (2.0, 1.0)
    cut = 1.0 - 1e-12
    below = drawn[0][~(drawn[0] >= cut)]
    want = stats.kstest(below, lambda t: betainc(2.0, 1.0, t)
                        / betainc(2.0, 1.0, cut))
    assert [rep["ks_statistic"], rep["p_value"]] == cli._strict(
        [want.statistic, want.pvalue])


class TestNormLaw:
    def test_euclid_passes(self, tmp_path):
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "5000", "--seed", "11")
        assert code == 0
        rep = read_json(out / "norm_law_report.json")
        assert rep["p_value"] > 0.01
        assert rep["beta_shape_a"] == 2.5  # (5 + 0)/2

    def test_threshold_override_recorded(self, tmp_path):
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "2000", "--seed", "11",
                        "--ks-pvalue-threshold", "0.5")
        man = read_json(out / "manifest.json")
        assert man["threshold_overridden"] is True

    def test_atom_mixture(self, tmp_path):
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "4000", "--seed", "13",
                        "--theta", "0.3")
        assert code == 0
        rep = read_json(out / "norm_law_report.json")
        assert rep["atom_fraction"] == pytest.approx(0.3, abs=0.03)
        lo, hi = rep["atom_count_interval"]
        assert lo <= rep["atom_fraction"] * rep["n_samples"] <= hi

    def test_all_atoms(self, tmp_path):
        # theta = 1: every draw is the atom, the binomial interval is the
        # one point count, and there is no continuous part to KS-test
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--theta", "1", "--count", "50")
        assert code == 0
        rep = read_json(out / "norm_law_report.json")
        assert rep["atom_count_interval"] == [50, 50]
        assert "ks_statistic" not in rep and "p_value" not in rep

    @pytest.mark.parametrize("alpha, wrapper, code", [
        (0.05, None, 0), (0.3, None, 0), (0.3, b_at_half_alpha, 3)],
        ids=["0.05", "0.3", "0.3-drawn-at-half"])
    def test_small_alpha(self, tmp_path, monkeypatch, alpha, wrapper, code):
        # at small alpha the Beta part also reaches the atom cut 1 - 1e-12,
        # I_{1e-12}(alpha, 2) of it: 0.26 at alpha = 0.05.  Those draws are
        # expected at the cut, and the gate still rejects draws made at
        # half the alpha it tests
        if wrapper:
            monkeypatch.setattr(cli, "norm_split_B",
                                wrapper(cli.norm_split_B))
        got, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                       "--n", "4", "--alpha", str(alpha), "--count", "10000",
                       "--seed", "1")
        assert got == code
        rep = read_json(out / "norm_law_report.json")
        assert rep["expected_atom_fraction"] == betainc(
            alpha, 2.0, 1.0 - (1.0 - 1e-12))

    def test_flagged_exit_3(self, tmp_path, capsys):
        # an (artificially) extreme p-value threshold trips the gate, with
        # and without atoms, and stderr says which test flagged
        for i, flags in enumerate([
                ("--count", "2000", "--seed", "17",
                 "--ks-pvalue-threshold", "0.9999"),
                ("--count", "200", "--theta", "0.5", "--alpha", "1",
                 "--ks-pvalue-threshold", "0.99")]):
            code, out = run(tmp_path / str(i), "test-norm-law", "--target",
                            "euclid", "--n", "5", *flags)
            assert code == 3
            rep = read_json(out / "norm_law_report.json")
            assert capsys.readouterr().err == (
                f"KS p-value {rep['p_value']:.3g} <= threshold {flags[-1]}; "
                "outputs retained\n")


    def test_failed_chain_exits_3(self, tmp_path, capsys, monkeypatch):
        # the same chain check as `sample`: a chain outside its acceptance
        # window flags the run, whatever the KS test says
        monkeypatch.setattr(cli, "sample_spectra",
                            failed_chain(cli.sample_spectra))
        code, out = run(tmp_path, "test-norm-law", "--target", "singular-PM",
                        "--n", "3", "--count", "200", "--seed", "3",
                        "--ks-pvalue-threshold", "0", "--p", "3")
        assert code == 3
        rep = read_json(out / "norm_law_report.json")
        assert rep["chain"]["chain_ok"] is False
        assert capsys.readouterr().err == (
            "chain diagnostics failed; outputs retained\n")


    def test_non_finite_b_exits_3(self, tmp_path, capsys, monkeypatch):
        # a nan B makes the KS p-value nan, which passes every threshold
        monkeypatch.setattr(cli, "norm_split_B", b_with_nan(cli.norm_split_B))
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "2000", "--seed", "11")
        assert code == 3
        rep = read_strict_json(out / "norm_law_report.json")
        assert rep["non_finite_b"] == 20
        assert capsys.readouterr().err == (
            "20 non-finite B draws; outputs retained\n")

    def test_no_continuous_part_exits_3(self, tmp_path):
        # at theta = 0.9999 five draws of B are all atoms, which leaves
        # nothing for the KS test
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--theta", "0.9999", "--count", "5",
                        "--seed", "1")
        assert code == 3
        rep = read_json(out / "norm_law_report.json")
        assert rep["flag"] == "no-continuous-part-samples"
        assert rep["atom_fraction"] == 1.0 and "p_value" not in rep

    def test_missing_atoms_exit_3(self, tmp_path, monkeypatch):
        # B drawn without its atom at theta = 0.5: the continuous part
        # passes the KS test, and the atom count lies outside its interval
        monkeypatch.setattr(cli, "norm_split_B",
                            b_without_atoms(cli.norm_split_B))
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--theta", "0.5", "--count", "400",
                        "--seed", "1")
        assert code == 3
        rep = read_json(out / "norm_law_report.json")
        assert rep["flag"] == "atom-fraction-outside-interval"
        assert rep["atom_fraction"] == 0.0 and rep["atom_count_interval"][0] > 0
        assert rep["p_value"] > 0.01


class TestRate:
    def test_beta_scan(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "beta-euclid", "--p",
                        "2", "--alpha", "1", "--x-steps", "199")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        # minimizer g/(g+alpha) = 1/3
        assert rep["min_x"] == pytest.approx(1.0 / 3.0, abs=0.01)
        assert rep["min_value"] == pytest.approx(0.0, abs=1e-3)
        rows = read_csv(out / "rate_scan.csv")
        assert rows[0] == ["x", "rate"]
        assert len(rows) == 200

    def test_point_evaluation(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "beta-euclid", "--p",
                        "2", "--alpha", "0", "--c", "-0.1", "--x", "0.5")
        rep = read_json(out / "rate_report.json")
        assert rep["value"] == pytest.approx(-0.5 * math.log(0.5) + 0.1,
                                             abs=1e-12)
        assert rep["branch"] == "alpha-zero"

    def test_emp_itemized_summands(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "emp-euclid", "--p",
                        "2", "--alpha", "1", "--analytic", "scaled-np",
                        "--z", "1.0")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "alpha-positive"
        assert sum(rep["summands"].values()) == pytest.approx(rep["value"],
                                                              abs=1e-9)

    def test_cone_h_arcsine(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "cone-H", "--p", "2",
                        "--beta", "2", "--analytic", "arcsine")
        rep = read_json(out / "rate_report.json")
        assert rep["value"] == pytest.approx(math.log(2.0) - 0.25, abs=1e-5)

    def test_atoms_csv_input(self, tmp_path):
        csv_path = tmp_path / "atoms.csv"
        csv_path.write_text("x\n0.1\n0.2\n0.3\n")
        code, out = run(tmp_path, "rate", "--target", "emp-euclid", "--p",
                        "2", "--alpha", "1", "--atoms-csv", str(csv_path))
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "cone-infinite"
        assert rep["value"] == "inf"

    def test_cone_infinite_below_gate(self, tmp_path):
        # m_2 of the atoms is 0.0467: the gate did not fire, the entropy
        # of an atomic measure is infinite
        csv_path = tmp_path / "atoms.csv"
        csv_path.write_text("x\n0.1\n0.2\n0.3\n")
        code, out = run(tmp_path, "rate", "--target", "cone-euclid", "--p",
                        "2", "--atoms-csv", str(csv_path))
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "cone-infinite"
        assert rep["value"] == "inf"

    def test_wigner_law_on_the_gate_is_finite(self, tmp_path):
        # the semicircle of radius 2 has m_2 = 1 exactly and is the zero
        # of the cone-H rate; its energy is 1/4
        code, out = run(tmp_path, "rate", "--target", "cone-H", "--p", "2",
                        "--beta", "2", "--analytic", "semicircle", "--b", "2")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "finite"
        assert rep["value"] == pytest.approx(0.0, abs=1e-8)

    def test_unresolved_energy_is_usage_error(self, tmp_path, capsys):
        # at p = 0.2 the mass of exp(-|x|^p / z) sits in a cusp at 0, while
        # the quantile cut puts the support ends ~2e4 interquartile widths
        # out; its energy is reported unresolved, not as a wrong number
        code, out = run(tmp_path, "rate", "--target", "cone-H", "--p", "0.2",
                        "--analytic", "scaled-np", "--z", "0.1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unresolved" in err
        assert not out.exists()

    def test_count_is_not_a_rate_flag(self, tmp_path):
        code, _ = run(tmp_path, "rate", "--target", "beta-euclid", "--x",
                      "0.3", "--count", "5")
        assert code == 2

    def test_invalid_target(self, tmp_path):
        code, _ = run(tmp_path, "rate", "--target", "beta-H", "--p", "2",
                      "--beta", "3")
        assert code == 2

    def test_zero_support_bound_is_kept(self, tmp_path):
        # --a 0 is the arcsine law on [0, 1], not the fallback a = -1
        code, out = run(tmp_path, "rate", "--target", "cone-M", "--p", "2",
                        "--analytic", "arcsine", "--a", "0", "--b", "1")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "finite"
        assert rep["value"] == pytest.approx(
            rate_cone(MeasureRep.arcsine(0.0, 1.0), "M", 2.0, 2.0)[0],
            abs=1e-12)

    def test_scan_starts_at_zero(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "beta-euclid",
                        "--x-min", "0", "--x-max", "0.5", "--x-steps", "3")
        assert code == 0
        rows = read_csv(out / "rate_scan.csv")
        assert [r[0] for r in rows[1:]] == ["0.0", "0.25", "0.5"]
        assert rows[1][1] == "inf"
        rep = read_json(out / "rate_report.json")
        assert rep["min_x"] == 0.25


@pytest.mark.filterwarnings("error")
class TestLdpVerify:
    def test_gap_shrinks(self, tmp_path):
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "20,40,80", "--seed", "1")
        assert code == 0
        rep = read_json(out / "ldp_report.json")
        assert rep["gap_monotone_decreasing"] is True
        assert rep["gap_final"] < 0.05
        rows = read_csv(out / "ldp_decay.csv")
        assert len(rows) == 4
        # exact decay rates exceed the infimum (upper-bound direction)
        gap = rows[0].index("gap")
        for r in rows[1:]:
            assert float(r[gap]) > 0

    def test_infimum_inside_event_is_zero(self, tmp_path):
        # b = 0.5 lies right of the minimizer x* = 1/3, so the event
        # holds the rate's zero
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.5", "--p",
                        "2", "--n-list", "20", "--seed", "1")
        assert code == 0
        rep = read_json(out / "ldp_report.json")
        assert rep["rate_infimum"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("b", ["0", "1.5", "-0.1"])
    def test_event_outside_unit_interval(self, tmp_path, capsys, b):
        code, out = run(tmp_path, "ldp-verify", "--event-b", b,
                        "--n-list", "20", "--seed", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--event-b" in err
        assert not out.exists()

    def test_decay_bytes_at_b_0_1(self, tmp_path):
        # the infimum at b = 0.1 is rate_beta(0.1), and the decay comes
        # from the log_prob_exact column
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "20,40,80", "--seed", "1")
        assert code == 0
        assert sha16(out / "ldp_decay.csv") == "d06f7ba07b3b2df3"

    def test_large_n_tail_is_finite(self, tmp_path):
        # at n = 4000 the tail probability underflows to 0.0 as a double;
        # its log does not, and the gap keeps shrinking
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "20,40,80,4000", "--seed", "1")
        assert code == 0
        rep = read_strict_json(out / "ldp_report.json")
        assert rep["gap_monotone_decreasing"] is True
        assert 0 < rep["gap_final"] < 0.01
        rows = read_csv(out / "ldp_decay.csv")
        last = dict(zip(rows[0], rows[-1]))
        assert float(last["prob_exact"]) == 0.0
        assert math.isfinite(float(last["log_prob_exact"]))
        assert float(last["neg_log_prob_over_n"]) == pytest.approx(
            -float(last["log_prob_exact"]) / 4000)

    def test_underflow_is_strict_json_and_exit_3(self, tmp_path,
                                                 monkeypatch):
        # a tail that is really non-finite still exits 3, with strict JSON
        monkeypatch.setattr(cli, "beta_log_cdf", lambda x, a, b: (
            -math.inf if a > 1000 else math.log(betainc(a, b, x))))
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "20,4000", "--seed", "1")
        assert code == 3
        rep = read_strict_json(out / "ldp_report.json")
        assert rep["gap_final"] == "inf"
        assert (out / "ldp_decay.csv").exists()

    @pytest.mark.parametrize("flags", [("--alpha-rate", "0"),
                                       ("--alpha-rate", "-1"),
                                       ("--alpha-rate", "0", "--monte-carlo")],
                             ids=["zero", "negative", "monte-carlo"])
    def test_alpha_rate_not_positive_is_usage_error(self, tmp_path, capsys,
                                                    flags):
        code, out = run(tmp_path, "ldp-verify", "--n-list", "20", "--seed",
                        "1", *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--alpha-rate" in err
        assert not out.exists()

    def test_tiny_alpha_rate_is_finite(self, tmp_path):
        # b = alpha n far below a = n / p: 1 - a/(a+b) rounds to 0, and
        # the log tail is still finite
        code, out = run(tmp_path, "ldp-verify", "--alpha-rate", "1e-300",
                        "--n-list", "20,40", "--seed", "1")
        assert code == 0
        rows = read_csv(out / "ldp_decay.csv")
        col = rows[0].index("log_prob_exact")
        assert all(math.isfinite(float(r[col])) for r in rows[1:])

    def test_monte_carlo_count_below_one_is_usage_error(self, tmp_path,
                                                        capsys):
        code, out = run(tmp_path, "ldp-verify", "--n-list", "20",
                        "--count", "0", "--monte-carlo", "--seed", "1")
        assert code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_monte_carlo_censoring(self, tmp_path):
        # at n = 80 the event probability is ~1e-12: MC sees zero hits and
        # reports the rule-of-three bound with the censoring flag set
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "80", "--count", "2000",
                        "--monte-carlo", "--seed", "21")
        assert code == 0
        rows = read_csv(out / "ldp_decay.csv")
        r = dict(zip(rows[0], rows[1]))
        assert int(r["censored"]) == 1
        assert float(r["freq_mc"]) == pytest.approx(3.0 / 2000)


class TestAsymptotics:
    def test_ratios_approach_one(self, tmp_path):
        code, out = run(tmp_path, "asymptotics", "--n-list", "50,400")
        assert code == 0
        rows = read_csv(out / "asymptotics.csv")
        head = rows[0]
        i_lap = head.index("laplace_ratio")
        i_brt = head.index("breitung_ratio")
        i_el = head.index("adapted_laplace_err")
        i_eb = head.index("adapted_breitung_err")
        small, big = rows[1], rows[2]
        assert abs(float(big[i_lap]) - 1.0) < abs(float(small[i_lap]) - 1.0)
        assert abs(float(big[i_brt]) - 1.0) < abs(float(small[i_brt]) - 1.0)
        assert float(big[i_el]) < 0.02
        assert float(big[i_eb]) < 0.02


@pytest.mark.filterwarnings("error")
class TestNormConst:
    def test_constant_weight_exact(self, tmp_path):
        code, out = run(tmp_path, "norm-const", "--weight", "one", "--n",
                        "3", "--p", "2", "--count", "1000", "--seed", "2")
        assert code == 0
        rep = read_json(out / "norm_const.json")
        expected = -3.0 * (math.log(2.0) + math.lgamma(1.5))
        assert rep["log_norm_const"] == pytest.approx(expected, abs=1e-12)
        assert rep["ess"] == 1000.0  # f == 1: every draw weighs the same

    def test_degenerate_estimate_is_strict_json(self, tmp_path, monkeypatch):
        # a weight that vanished on every draw degenerates to log C = -inf
        monkeypatch.setattr("pradial.cli.estimate_norm_const",
                            lambda *a, **k: (-math.inf, math.inf, 0.0))
        code, out = run(tmp_path, "norm-const", "--weight", "one", "--n",
                        "2", "--count", "10", "--seed", "2")
        assert code == 3
        rep = read_strict_json(out / "norm_const.json")
        assert rep["log_norm_const"] == "-inf"
        assert rep["se_log"] == "inf"
        assert rep["ess"] == 0.0

    def test_low_ess_exits_3(self, tmp_path, capsys):
        # Delta_2 at n = 16, p = 3: about ten of 10^5 draws carry the
        # importance estimate, whose se_log then measures nothing
        code, out = run(tmp_path, "norm-const", "--weight", "delta",
                        "--beta", "2", "--n", "16", "--p", "3", "--count",
                        "100000", "--seed", "5")
        assert code == 3
        rep = read_strict_json(out / "norm_const.json")
        assert rep["ess_floor"] == 1000.0
        assert rep["ess"] < rep["ess_floor"]
        assert capsys.readouterr().err == (
            f"importance ess {rep['ess']:.3g} below floor 1000; "
            "outputs retained\n")

    def test_ess_floor_is_a_hundredth_of_small_counts(self, tmp_path):
        code, out = run(tmp_path, "norm-const", "--weight", "delta",
                        "--beta", "2", "--n", "4", "--p", "2", "--count",
                        "20000", "--seed", "5")
        assert code == 0
        rep = read_strict_json(out / "norm_const.json")
        assert rep["ess_floor"] == 200.0
        assert rep["ess"] >= rep["ess_floor"]

    def test_one_draw_exits_3(self, tmp_path, capsys):
        # one draw has no spread: ess and se_log are nan, which no floor
        # comparison catches
        code, out = run(tmp_path, "norm-const", "--weight", "delta", "--n",
                        "3", "--count", "1", "--seed", "2")
        assert code == 3
        rep = read_strict_json(out / "norm_const.json")
        assert rep["ess"] == "nan" and rep["se_log"] == "nan"
        assert capsys.readouterr().err.count("\n") == 1

    def test_count_below_one_is_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "norm-const", "--weight", "one", "--n",
                        "2", "--count", "0", "--seed", "2")
        assert code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_power_zero_is_the_constant_weight(self, tmp_path):
        # |x|^0 is the constant weight: the exact constant, not |x|^1
        code, out = run(tmp_path, "norm-const", "--weight", "power", "--m",
                        "0", "--n", "3", "--p", "2", "--count", "1000",
                        "--seed", "2")
        assert code == 0
        rep = read_json(out / "norm_const.json")
        assert rep["weight"] == "|x|^0.0"
        expected = -3.0 * (math.log(2.0) + math.lgamma(1.5))
        assert rep["log_norm_const"] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("weight, p, log_c", [
        (("delta",), 2.0, -(math.log(2.0) + math.lgamma(1.5))),
        (("nabla", "--beta", "2"), 3.0, -math.lgamma(1.0 + 1.0 / 3.0))],
        ids=["delta", "nabla-2"])
    def test_single_coordinate_weight_is_constant(self, tmp_path, weight, p,
                                                  log_c):
        # at n = 1 there are no pairs, and nabla_2 has exponent 0: the
        # weight is 1 on its support (R for delta, the half-line for nabla)
        code, out = run(tmp_path, "norm-const", "--weight", *weight,
                        "--n", "1", "--p", str(p), "--count", "500",
                        "--seed", "2")
        assert code == 0
        rep = read_strict_json(out / "norm_const.json")
        assert rep["se_log"] == 0.0
        assert rep["log_norm_const"] == pytest.approx(log_c, abs=1e-12)

    @pytest.mark.parametrize("m", ["-1", "-1.5"])
    def test_power_weight_at_or_below_minus_one(self, tmp_path, capsys, m):
        # |x|^m e^{-|x|^p} is not integrable at 0 for m <= -1
        code, out = run(tmp_path, "norm-const", "--weight", "power", "--m", m,
                        "--n", "1", "--count", "2000", "--seed", "5")
        assert code == 2
        err = capsys.readouterr().err
        assert "m > -1" in err and err.count("\n") == 1
        assert not out.exists()

    def test_power_weight_above_minus_one(self, tmp_path):
        # at n = 1 the estimate is exact: C = p / (2 Gamma((1 + m)/p))
        code, out = run(tmp_path, "norm-const", "--weight", "power", "--m",
                        "-0.5", "--n", "1", "--count", "2000", "--seed", "5")
        assert code == 0
        rep = read_json(out / "norm_const.json")
        assert rep["log_norm_const"] == pytest.approx(-math.lgamma(0.25),
                                                      abs=1e-12)

    def test_unknown_weight(self, tmp_path):
        code, _ = run(tmp_path, "norm-const", "--weight", "frob", "--n", "3")
        assert code == 2

    def test_weights_are_the_kinds(self):
        prm, = [prm for prm in cli.COMMANDS["norm-const"][2]
                if prm.name == "weight"]
        assert prm.choices == ("one", "delta", "nabla", "power")

    # sha16 of norm_const.json, computed with the code in which each
    # weight carried its degree and evaluator as lambdas, before a weight
    # became its kind and exponent
    @pytest.mark.parametrize("weight, digest", [
        (("one",), "768cb7f637292a97"),
        (("delta",), "c7b354ea31bf6f56"),
        (("nabla",), "b48ad94b6760b15e"),
        (("power", "--m", "2"), "882cd2a31103c2ec")],
        ids=["one", "delta", "nabla", "power-2"])
    def test_report_digest(self, tmp_path, weight, digest):
        code, out = run(tmp_path, "norm-const", "--weight", *weight, "--n",
                        "3", "--count", "2000", "--seed", "5")
        assert code == 0
        assert sha16(out / "norm_const.json") == digest

    def test_output_root_env(self, tmp_path, monkeypatch):
        root = tmp_path / "envroot"
        monkeypatch.setenv("PRADIAL_OUTPUT_ROOT", str(root))
        monkeypatch.chdir(tmp_path)
        code = main(["norm-const", "--weight", "one", "--n", "2",
                     "--count", "500", "--seed", "4"])
        assert code == 0
        assert (root / "norm_const.json").exists()


class TestParameterTable:
    def test_parser_is_built_once(self):
        # building the six subparsers took about 1.5 ms on every main call
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv, files", [
        (["ldp-verify", "--n-list", "20,abc"], {}),
        (["asymptotics", "--n-list", "50,0"], {}),
        (["rate", "--target", "beta-euclid", "--x-steps", "0"], {}),
        (["sample", "--n", "abc", "--target", "cone"], {}),
        (["sample", "--config", "c.json"], {"c.json": "{not json"}),
        (["sample", "--config", "c.json"], {"c.json": '["cone"]'}),
        (["sample", "--config", "."], {}),
        (["sample", "--config", "c.json"],
         {"c.json": '{"target": "cone", "n": "abc"}'}),
        (["sample", "--config", "c.json"],
         {"c.json": '{"target": "blob", "n": 3}'}),
        (["sample", "--config", "c.json"],
         {"c.json": '{"target": "cone", "n": 3, "orthant": "yes"}'}),
        (["norm-const", "--config", "c.json"],
         {"c.json": '{"n": 3, "weight": "frob"}'}),
        (["ldp-verify", "--config", "c.json"], {"c.json": '{"n_list": "20,-1"}'}),
        (["rate", "--target", "emp-euclid", "--atoms-csv", "a.csv"],
         {"a.csv": "x,y\n0.1,0.2\n0.3,0.4\n"}),
        (["rate", "--target", "emp-H", "--grid-csv", "g.csv"],
         {"g.csv": "x\n0.1\n0.2\n"}),
        # knots out of order: a negative-width cell still passes the mass
        (["rate", "--target", "cone-H", "--grid-csv", "g.csv"],
         {"g.csv": "x,density\n0,1.5\n1,1\n0.5,0\n"}),
        # header-only files: no data rows
        (["rate", "--target", "emp-H", "--atoms-csv", "a.csv"],
         {"a.csv": "x\n"}),
        (["rate", "--target", "emp-H", "--grid-csv", "g.csv"],
         {"g.csv": "x,density\n"}),
        # degenerate analytic families: no interval to put the mass on
        (["rate", "--target", "cone-H", "--analytic", "semicircle", "--b",
          "0"], {}),
        (["rate", "--target", "cone-H", "--analytic", "uniform", "--a", "1",
          "--b", "0"], {}),
        (["rate", "--target", "emp-euclid", "--analytic", "scaled-np", "--z",
          "0"], {}),
        # these two fail inside the handler, after the config resolved
        (["rate", "--target", "cone-M", "--analytic", "uniform", "--a", "-1",
          "--b", "1"], {}),
        (["norm-const", "--weight", "delta", "--beta", "-1", "--n", "3"], {}),
        (["sample", "--target", "cone", "--n", "-2"], {}),
        (["sample", "--target", "eigen-PH", "--n", "0"], {}),
        (["test-norm-law", "--target", "euclid", "--n", "0"], {}),
        (["norm-const", "--n", "0"], {}),
    ])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys,
                                            monkeypatch, argv, files):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, out = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        # each ran: these two exited 0 and wrote "nan"
        (["rate", "--target", "beta-euclid", "--alpha", "nan", "--x", "0.5"],
         "--alpha"),
        (["rate", "--target", "beta-H", "--c", "nan", "--x", "0.5"], "--c"),
        # drew, then exited 3 on an ess of 0
        (["norm-const", "--weight", "delta", "--beta", "nan", "--n", "3",
          "--count", "5"], "--beta"),
        # exited 2 naming an internal b
        (["ldp-verify", "--alpha-rate", "nan"], "--alpha-rate"),
        (["sample", "--target", "cone", "--n", "3", "--p", "inf"], "--p"),
        (["test-norm-law", "--target", "euclid", "--n", "3",
          "--ks-pvalue-threshold=-inf"], "--ks-pvalue-threshold"),
        (["rate", "--target", "beta-euclid", "--config", "c.json"], "--x-max"),
        (["sample", "--target", "cone", "--n", "3", "--config", "c.json"],
         "--theta"),
    ])
    def test_non_finite_float_is_usage_error(self, tmp_path, capsys,
                                             monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        # json reads NaN and Infinity as floats
        (tmp_path / "c.json").write_text('{"x_max": NaN, "theta": Infinity}')
        code, out = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{flag} expects a finite number")
        assert not out.exists()

    def test_config_values_parsed_like_flags(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"target": "cone", "n": "3", "p": 2, "count": 5,'
                        ' "seed": 4, "unused": 1}')
        code, out = run(tmp_path, "sample", "--config", str(path))
        assert code == 0
        config = read_json(out / "manifest.json")["config"]
        assert config["n"] == 3 and config["count"] == 5
        assert type(config["p"]) is float and config["p"] == 2.0
        assert "unused" not in config
        code, flagged = run(tmp_path / "b", "sample", "--target", "cone",
                            "--n", "3", "--count", "5", "--seed", "4")
        assert (out / "samples.csv").read_bytes() == \
            (flagged / "samples.csv").read_bytes()
        assert (out / "manifest.json").read_bytes() == \
            (flagged / "manifest.json").read_bytes()

    # sha16 of manifest.json, pinned before the CLI became table-driven;
    # rate and asymptotics re-pinned when they lost count, which neither
    # reads.  Recorded defaults they hold: seed, count and p where the
    # command takes them, test-norm-law's theta, alpha and
    # ks_pvalue_threshold; rate beta, alpha 1.0, ktheta and c; sample
    # orthant false; ldp-verify event_b, alpha_rate and monte_carlo;
    # norm-const weight "one" and beta.
    @pytest.mark.parametrize("argv, digest", [
        (("sample", "--target", "cone", "--n", "3", "--count", "20",
          "--seed", "5"), "51f9edbe193a1b9b"),
        (("test-norm-law", "--target", "euclid", "--n", "4", "--count",
          "200", "--seed", "6"), "fa57251626c2a104"),
        (("rate", "--target", "beta-euclid", "--p", "2", "--x", "0.3"),
         "a947a190b11f1a3a"),
        (("ldp-verify", "--n-list", "20,40", "--seed", "7"),
         "d04e91cd595541eb"),
        (("asymptotics", "--n-list", "50", "--seed", "8"),
         "ae95f3a5963c68d9"),
        (("norm-const", "--n", "2", "--count", "50", "--seed", "9"),
         "05a4ca05c9c2bdf9"),
    ])
    def test_manifest_digest(self, tmp_path, argv, digest):
        code, out = run(tmp_path, *argv)
        assert code == 0
        assert sha16(out / "manifest.json") == digest
        # a rerun from the manifest records the same bytes
        code, again = run(tmp_path / "again", argv[0], "--config",
                          str(out / "manifest.json"))
        assert code == 0
        assert sha16(again / "manifest.json") == digest

    @pytest.mark.parametrize("argv", [
        ("rate", "--target", "beta-euclid", "--p", "2", "--x", "0.3"),
        ("asymptotics", "--n-list", "50", "--seed", "8")])
    def test_manifest_with_count_still_loads(self, tmp_path, argv):
        # manifests written while rate and asymptotics recorded count
        # rerun as before: a config key no row declares is ignored
        code, out = run(tmp_path, *argv)
        manifest = read_json(out / "manifest.json")
        manifest["config"]["count"] = 10000
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        code, again = run(tmp_path / "again", argv[0], "--config", str(old))
        assert code == 0
        assert (again / "manifest.json").read_bytes() == \
            (out / "manifest.json").read_bytes()

    @pytest.mark.parametrize("target, shape", [("eigen-PH", 3.0),
                                               ("singular-PM", 6.0)])
    def test_chain_norm_law_shape(self, tmp_path, target, shape):
        # (n + weight degree) / q at n = 3, p = 3, beta = 2: Delta_2 has
        # degree 6 with q = p; nabla_2 has degree 6 with q = p/2.  The
        # report carries the chain's diagnostics, as `sample` writes them
        # for the same draws
        argv = ("--target", target, "--n", "3", "--count", "200", "--seed",
                "3", "--p", "3")
        code, out = run(tmp_path / "law", "test-norm-law", *argv)
        assert code in (0, 3)
        report = read_json(out / "norm_law_report.json")
        assert report["beta_shape_a"] == shape
        _, drawn = run(tmp_path / "sample", "sample", *argv)
        assert report["chain"] == read_json(drawn / "diagnostics.json")

    @pytest.mark.parametrize("target, shape", [("eigen-PH", 4.5),
                                               ("singular-PM", 9.0)])
    def test_exact_norm_law_shape(self, tmp_path, target, shape):
        # the same shapes at p = 2, where the draws are exact: the report
        # carries no chain
        argv = ("--target", target, "--n", "3", "--count", "200", "--seed",
                "3")
        code, out = run(tmp_path, "test-norm-law", *argv)
        assert code == 0
        report = read_json(out / "norm_law_report.json")
        assert report["beta_shape_a"] == shape
        assert "chain" not in report


class TestRunProtocol:
    """main writes a handler's outputs in order, then a manifest that lists
    exactly them, whatever the exit code."""

    def _run_recorded(self, tmp_path, monkeypatch, argv):
        written = []
        for name in ("write_csv", "write_json"):
            real = getattr(cli, name)

            def spy(path, *rest, real=real):
                written.append(path.name)
                return real(path, *rest)

            monkeypatch.setattr(cli, name, spy)
        code, out = run(tmp_path, *argv, "--seed", "1")
        manifest = read_json(out / "manifest.json")
        assert written == manifest["outputs"] + ["manifest.json"]
        assert sorted(f.name for f in out.iterdir()) == sorted(written)
        return code, manifest["outputs"]

    @pytest.mark.parametrize("argv, code, outputs", [
        pytest.param(("sample", "--target", "cone", "--n", "3", "--count",
                      "20"), 0, ["samples.csv"], id="sample"),
        pytest.param(("sample", "--target", "eigen-PH", "--n", "3",
                      "--count", "50"), 0, ["samples.csv", "diagnostics.json"],
                     id="sample-chain"),
        pytest.param(("test-norm-law", "--target", "euclid", "--n", "5",
                      "--count", "2000", "--ks-pvalue-threshold", "0.9999"),
                     3, ["norm_law_report.json"], id="test-norm-law-flagged"),
        pytest.param(("rate", "--target", "beta-euclid", "--p", "2"), 0,
                     ["rate_scan.csv", "rate_report.json"], id="rate-scan"),
        pytest.param(("rate", "--target", "cone-euclid", "--p", "2"), 0,
                     ["rate_report.json"], id="rate-point"),
        pytest.param(("ldp-verify", "--n-list", "20,40"), 0,
                     ["ldp_decay.csv", "ldp_report.json"], id="ldp-verify"),
        pytest.param(("ldp-verify", "--event-b", "0.1", "--p", "2",
                      "--n-list", "20,4000"), 0,
                     ["ldp_decay.csv", "ldp_report.json"],
                     id="ldp-verify-underflow"),
        pytest.param(("asymptotics", "--n-list", "50"), 0,
                     ["asymptotics.csv"], id="asymptotics"),
        pytest.param(("norm-const", "--n", "2", "--count", "50"), 0,
                     ["norm_const.json"], id="norm-const"),
    ])
    def test_manifest_lists_outputs_in_write_order(
            self, tmp_path, monkeypatch, argv, code, outputs):
        assert self._run_recorded(tmp_path, monkeypatch, argv) == (
            code, outputs)

    def test_degenerate_norm_const_writes_all(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.setattr("pradial.cli.estimate_norm_const",
                            lambda *a, **k: (-math.inf, math.inf, 0.0))
        assert self._run_recorded(tmp_path, monkeypatch,
                                  ("norm-const", "--n", "2", "--count", "10")
                                  ) == (3, ["norm_const.json"])
        assert capsys.readouterr().err == (
            "importance ess 0 below floor 0.1; outputs retained\n")

    # each exit-3 gate: argv, {cli name: wrapper of it}, and the reasons,
    # formatted with the keys of the run's JSON outputs
    @pytest.mark.parametrize("argv, patches, reasons", [
        pytest.param(("test-norm-law", "--target", "euclid", "--n", "5",
                      "--theta", "0.9999", "--count", "5"), {},
                     ["no-continuous-part-samples"], id="no-continuous-part"),
        pytest.param(("test-norm-law", "--target", "euclid", "--n", "5",
                      "--theta", "0.5", "--count", "400"),
                     {"norm_split_B": b_without_atoms},
                     ["atom-fraction-outside-interval"], id="atom-fraction"),
        pytest.param(("test-norm-law", "--target", "euclid", "--n", "5",
                      "--count", "2000", "--ks-pvalue-threshold", "0.9999"),
                     {}, ["KS p-value {p_value:.3g} <= threshold 0.9999"],
                     id="ks"),
        pytest.param(("test-norm-law", "--target", "singular-PM", "--n", "3",
                      "--count", "200", "--p", "3",
                      "--ks-pvalue-threshold", "1"),
                     {"sample_spectra": failed_chain},
                     ["KS p-value {p_value:.3g} <= threshold 1.0",
                      "chain diagnostics failed"], id="ks-and-chain"),
        pytest.param(("sample", "--target", "cone", "--n", "3", "--count",
                      "10", "--p", "0.005"), {},
                     ["10 of 10 rows of samples.csv hold non-finite cells"],
                     id="non-finite-rows"),
        pytest.param(("test-norm-law", "--target", "euclid", "--n", "5",
                      "--count", "2000"), {"norm_split_B": b_with_nan},
                     ["20 non-finite B draws"], id="non-finite-b"),
        pytest.param(("ldp-verify", "--n-list", "20,40"),
                     {"beta_log_cdf": lambda real: lambda *a: -math.inf},
                     ["decay gap is not finite"], id="decay-gap"),
        pytest.param(("norm-const", "--n", "2", "--count", "10"),
                     {"estimate_norm_const": lambda real: lambda *a, **k: (
                         -math.inf, math.inf, 0.0)},
                     ["importance ess 0 below floor 0.1"], id="ess-zero"),
        pytest.param(("norm-const", "--weight", "delta", "--n", "3",
                      "--count", "1"), {},
                     ["importance ess nan below floor 0.01"], id="ess-nan"),
    ])
    def test_exit_3_is_one_line(self, tmp_path, monkeypatch, capsys, argv,
                                patches, reasons):
        # main alone words the line: the reasons, then "outputs retained"
        for name, wrap in patches.items():
            monkeypatch.setattr(cli, name, wrap(getattr(cli, name)))
        code, outputs = self._run_recorded(tmp_path, monkeypatch, argv)
        assert code == 3
        keys = {}
        for name in outputs:
            if name.endswith(".json"):
                keys.update(read_json(tmp_path / "out" / name))
        assert capsys.readouterr().err == "; ".join(
            reasons).format(**keys) + "; outputs retained\n"
