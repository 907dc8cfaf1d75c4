"""The native kernel's bit rules and its loader.

The stepping kernel's array code is C (``repro/native/kernel.c``); every
routine must give NumPy's bits.  These tests pin the rules the port rests
on — a row sum follows NumPy's pairwise tree, a weighted bincount
accumulates each bin in input order, ``np.maximum``/``np.minimum`` pick
their second operand on a tie of signed zeros, and a collapse's jitter is
NumPy's ``uniform`` map of a ``random()`` draw — and the loader's contract:
one build per source and flags, reused, never exposed half written, and a
named error when no compiler is found.
"""

import ctypes
import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import native
from repro.config.presets import make_scenario
from repro.model.simulator import simulate_scenario
from tests._golden_utils import metric_fingerprint

lib = native.library()


def _values(seed: int, n: int) -> np.ndarray:
    """``n`` doubles of either sign with magnitudes from 1e-12 to 1e12, a
    tenth of them signed zeros."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-12.0, 12.0, n) * rng.choice([-1.0, 1.0], n)
    zeros = rng.random(n) < 0.1
    values[zeros] = rng.choice([0.0, -0.0], int(zeros.sum()))
    return values


def _bits(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype=np.float64).tobytes()


class TestBitRules:
    @settings(max_examples=300, deadline=None)
    @given(width=st.one_of(st.integers(min_value=0, max_value=400),
                           st.sampled_from([7, 8, 9, 127, 128, 129, 255, 256, 257])),
           rows=st.integers(min_value=1, max_value=4), seed=st.integers(0, 2**32 - 1))
    def test_row_sums_follow_the_pairwise_tree(self, width, rows, seed):
        matrix = _values(seed, rows * width).reshape(rows, width)
        out = np.empty(rows, dtype=np.float64)
        lib.nk_row_sums(matrix.ctypes.data, rows, width, out.ctypes.data)
        assert _bits(out) == _bits(np.add.reduce(matrix, axis=1))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=0, max_value=300),
           bins=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**32 - 1))
    def test_bincount_accumulates_in_input_order(self, n, bins, seed):
        idx = np.random.default_rng(seed + 1).integers(0, bins, n)
        weights = _values(seed, n)
        out = np.empty(bins, dtype=np.float64)
        lib.nk_bincount(idx.ctypes.data, weights.ctypes.data, n, out.ctypes.data, bins)
        assert _bits(out) == _bits(np.bincount(idx, weights=weights, minlength=bins))

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 64, 1000])
    def test_max_and_min_take_the_second_operand_on_a_zero_tie(self, n):
        rng = np.random.default_rng(n)
        a = rng.choice([0.0, -0.0, 1.0, -1.0, np.nan, np.inf], size=n)
        b = rng.choice([0.0, -0.0, 1.0, -1.0, np.nan, -np.inf], size=n)
        a[0], b[0] = 0.0, -0.0          # the tie itself, at every length
        for routine, reference in ((lib.nk_maximum, np.maximum), (lib.nk_minimum, np.minimum)):
            out = np.empty(n, dtype=np.float64)
            routine(a.ctypes.data, b.ctypes.data, n, out.ctypes.data)
            assert _bits(out) == _bits(reference(a, b)), reference.__name__
        assert np.signbit(np.maximum(a, b)[0]) and np.signbit(np.minimum(a, b)[0])


class TestCollapseJitter:
    """A collapse's jitter is ``uniform(0.5, 1.5)`` of its member's
    transport stream.  Python draws ``random()`` and the kernel forms
    ``0.5 + 1.0 * u``, which is how NumPy's ``Generator.uniform`` maps the
    same draw, so the stream and the stall times keep their bits."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(min_value=1, max_value=64))
    def test_uniform_is_the_shifted_random_draw(self, seed, n):
        uniform = np.random.default_rng(seed).uniform(0.5, 1.5, size=n)
        shifted = 0.5 + 1.0 * np.random.default_rng(seed).random(n)
        assert _bits(uniform) == _bits(shifted)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), backoff=st.integers(0, 8),
           now=st.floats(-10.0, 10.0))
    def test_force_timeout_stalls_by_the_uniform_jitter(self, seed, backoff, now):
        from repro.config.network import TransportConfig
        from repro.network.congestion import WindowState

        transport = TransportConfig()
        state = WindowState(5, transport, np.random.default_rng(seed))
        state.backoff[:] = backoff
        indices = np.array([0, 2, 3])
        state.force_timeout(indices, now)
        jitter = np.random.default_rng(seed).uniform(0.5, 1.5, size=indices.size)
        exponent = min(backoff, transport.max_backoff_exponent)
        expected = now + transport.rto * (2.0 ** exponent) * jitter
        assert _bits(state.stall_until[indices]) == _bits(expected)


class TestLoader:
    def test_a_build_goes_into_its_cache_dir_and_is_reused(self, tmp_path, monkeypatch):
        path = native.build(tmp_path)
        assert path.parent == tmp_path and path.exists()
        assert native.library_path(tmp_path) == path
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        lib = native.load(tmp_path)
        out = np.empty(1)
        lib.nk_row_sums(np.array([1.5, 2.5]).ctypes.data, 1, 2, out.ctypes.data)
        assert out[0] == 4.0

        def no_compile(*args, **kwargs):
            raise AssertionError("a cached build compiled again")

        monkeypatch.setattr(native.subprocess, "run", no_compile)
        assert native.build(tmp_path) == path
        native.load(tmp_path)

    def test_the_name_hashes_the_source_and_the_flags(self, tmp_path, monkeypatch):
        plain = native.library_path(tmp_path)
        monkeypatch.setattr(native, "FLAGS", native.FLAGS + ("-g",))
        assert native.library_path(tmp_path) != plain

    def test_racing_builds_never_expose_a_partial_file(self, tmp_path):
        """Four builds race on an empty cache; whenever the library's name
        exists, it is a whole, loadable library."""
        path = native.library_path(tmp_path)
        seen = []
        errors = []
        done = threading.Event()

        def watch():
            while not done.is_set():
                if path.exists():
                    seen.append(path.stat().st_size)

        def compile_once():
            try:
                native.build(tmp_path)
            except Exception as exc:   # pragma: no cover - reported below
                errors.append(exc)

        watcher = threading.Thread(target=watch)
        watcher.start()
        builds = [threading.Thread(target=compile_once) for _ in range(4)]
        for thread in builds:
            thread.start()
        for thread in builds:
            thread.join()
        done.set()
        watcher.join()
        assert not errors
        final = path.stat().st_size
        assert seen and set(seen) == {final}
        ctypes.CDLL(str(path))
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_a_missing_compiler_raises_the_named_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native.shutil, "which", lambda name: None)
        with pytest.raises(native.NativeBuildError, match="'cc' and 'gcc'"):
            native.build(tmp_path)
        assert not any(tmp_path.iterdir())


class TestTables:
    def test_a_table_rejects_a_wrong_array(self):
        from repro.config.network import NetworkConfig
        from repro.network.topology import StarTopology

        topology = StarTopology(2, 3, NetworkConfig())
        topology.table()
        topology._node_busy = np.zeros(2, dtype=np.float32)
        with pytest.raises(TypeError, match="node_busy"):
            topology.table()
        topology._node_busy = np.zeros(3)
        with pytest.raises(TypeError, match="node_busy"):
            topology.table()
        topology._node_busy = np.zeros(4)[::2]
        with pytest.raises(TypeError, match="node_busy"):
            topology.table()

    def test_integer_rates_step_as_their_floats(self):
        """Per-lane constants are float lanes whatever a configuration's
        number type (a rate-limited network may carry ints), so a run
        with integer link rates gives the bits of the same rates as
        floats."""
        base = make_scenario("tiny", device="hdd", sync_mode="sync-on")
        network = base.platform.network
        integers = dataclasses.replace(
            network, client_nic_bw=int(network.client_nic_bw),
            server_nic_bw=int(network.server_nic_bw),
            node_injection_bw=int(network.node_injection_bw),
        )
        assert isinstance(integers.client_nic_bw, int)
        scenario = base.with_platform(base.platform.with_network(integers))
        assert metric_fingerprint(simulate_scenario(scenario)) == metric_fingerprint(
            simulate_scenario(base))

    def test_a_table_names_every_slot(self):
        with pytest.raises(ValueError, match="missing"):
            native.Table("topology", {"node": 1, "srv": 1}, n_node=1)
