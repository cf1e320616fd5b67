"""Tensor op forward values, tape semantics, gradients, and Adam.

Derived gradient values are checked against central finite differences
(step 1e-3) computed here, independently of the backward implementations.
"""

import hashlib
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import topicsum.autodiff as ad
from topicsum import checkpoint
from topicsum.detector import DetectorModel, MeanEmbeddingEncoder
from topicsum.generator import GeneratorModel
from conftest import assert_grads_match, check_gradients, numeric_grad


class TestTensorBasics:
    def test_dtype_defaults_to_float32(self):
        t = ad.Tensor([[1.0, 2.0]])
        assert t.data.dtype == np.float32

    def test_using_dtype_switches_new_tensors(self):
        with ad.using_dtype(np.float64):
            inner = ad.Tensor([[1.0]])
        outer = ad.Tensor([[1.0]])
        assert inner.data.dtype == np.float64
        assert outer.data.dtype == np.float32

    def test_item_rejects_non_scalar(self):
        with pytest.raises(ValueError):
            ad.Tensor([[1.0, 2.0]]).item()

    def test_grad_buffer_matches_shape(self):
        x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
        with ad.tape() as t:
            t.backward(x.sum())
        assert x.grad.shape == (2, 3)
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))


class TestParameterInit:
    # every size class: past one chunk with a partial last chunk, empty,
    # exactly one chunk, and small
    SHAPES = [(2 * ad._INIT_CHUNK + 17,), (3, 5, ad._INIT_CHUNK // 15 + 1), (0, 4),
              (ad._INIT_CHUNK,), (7, 3)]

    @pytest.fixture(params=["default", "every_draw_deferred"])
    def defer_min(self, request, monkeypatch):
        if request.param == "every_draw_deferred":
            monkeypatch.setattr(ad, "_DEFER_MIN", 0)
        return ad._DEFER_MIN

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("order", ["construction", "reverse"])
    def test_equals_one_whole_draw(self, dtype, order, defer_min):
        """Chunked draws, deferred or not, give the values one whole float64
        draw cast to the dtype would, whatever order the tensors are read
        in.  Right after construction the generator's whole state is the
        eager draws' too, a 32-bit value buffered by an earlier draw
        included; only PCG64 draws past `_DEFER_MIN` elements wait."""
        for bits in (np.random.PCG64, np.random.MT19937):
            for buffered in (False, True):
                got_rng, want_rng = np.random.Generator(bits(3)), np.random.Generator(bits(3))
                if buffered:
                    for rng in (got_rng, want_rng):
                        rng.integers(0, 2**32, dtype=np.uint32)
                with ad.using_dtype(dtype):
                    params = [ad.parameter(got_rng, shape) for shape in self.SHAPES]
                wants = [want_rng.uniform(-0.1, 0.1, size=shape).astype(dtype)
                         for shape in self.SHAPES]
                np.testing.assert_equal(got_rng.bit_generator.state,
                                        want_rng.bit_generator.state)
                deferred = [type(p) is ad._Pending for p in params]
                assert deferred == [bits is np.random.PCG64 and int(np.prod(shape)) >= defer_min
                                    for shape in self.SHAPES]
                assert any(deferred) == (bits is np.random.PCG64)
                indices = range(len(params)) if order == "construction" else \
                    reversed(range(len(params)))
                for k in indices:
                    param = params[k]
                    assert param.requires_grad and param.data.dtype == dtype
                    assert param.data.shape == wants[k].shape
                    assert np.array_equal(param.data, wants[k])
                    assert type(param) is ad.Tensor
                assert (got_rng.integers(0, 2**32, dtype=np.uint32)
                        == want_rng.integers(0, 2**32, dtype=np.uint32))
                assert got_rng.uniform() == want_rng.uniform()

    def test_seeded_paper_size_models_are_drawn_as_before(self):
        """SHA-256 over every parameter's name and values of the paper-size
        generator (V=50,000, E=300, H=512, seed 1) and of a 50,000 x 128
        detector, equal to the digests taken when every weight was drawn at
        construction, and the detector's rng draws on as it did then."""
        def digest(params):
            h = hashlib.sha256()
            for name, p in params.items():
                h.update(name.encode())
                h.update(np.ascontiguousarray(p.data))
            return h.hexdigest()

        model = GeneratorModel(50_000, 3, 300, 512, seed=1)
        assert digest(model.parameters()) == \
            "6fe82f3adc6f3d01037c6abb5ffb55b7515229d088e2ffe3b63592a7d177e962"
        del model
        rng = np.random.default_rng(7)
        detector = DetectorModel(MeanEmbeddingEncoder(50_000, 128, 128, rng), 4, rng)
        assert rng.integers(0, 2**63) == 2414549624390952858
        assert digest(detector.parameters()) == \
            "5163d6265d366be5aeb06ec436e35ec579c47c6866b7f4f0b7a4f2b7edc54f9f"

    def test_two_threads_reading_one_pending_parameter_draw_it_once(self, monkeypatch):
        shape = (3, ad._INIT_CHUNK)
        param = ad.parameter(np.random.default_rng(4), shape)
        want = np.random.default_rng(4).uniform(-0.1, 0.1, size=shape).astype(np.float32)
        assert type(param) is ad._Pending
        draws, fill, start = [], ad._fill_uniform, threading.Barrier(2)

        def slow_fill(rng, flat):
            draws.append(flat.size)
            time.sleep(0.05)    # the other reader arrives while this one draws
            fill(rng, flat)

        monkeypatch.setattr(ad, "_fill_uniform", slow_fill)
        seen = [None, None]

        def reader(index):
            start.wait()
            seen[index] = param.data

        readers = [threading.Thread(target=reader, args=(index,)) for index in (0, 1)]
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in readers)
        assert draws == [want.size]
        assert seen[0] is seen[1] and np.array_equal(seen[0], want)
        assert type(param) is ad.Tensor

    def test_assigning_data_skips_the_draw(self, monkeypatch):
        monkeypatch.setattr(ad, "_DEFER_MIN", 0)
        draws = []
        monkeypatch.setattr(ad, "_fill_uniform", lambda rng, flat: draws.append(flat.size))
        param = ad.parameter(np.random.default_rng(0), (2, 3))
        assert ad.buffer(param).shape == (2, 3) and type(param) is ad._Pending
        param.data = np.ones((2, 3), np.float32)
        assert type(param) is ad.Tensor and np.all(param.data == 1.0) and draws == []

    def test_worker_failure_is_raised_and_no_thread_outlives_the_call(self):
        """No thread but the process's one worker outlives a call.  A first
        call starts the worker, so the counts do not depend on test order."""
        worker = ad.on_two_threads(lambda: None, threading.get_ident)[1]
        threads = threading.active_count()

        def failing():
            raise MemoryError("worker failed")

        for one_blas_thread in (False, True):
            here = []
            with pytest.raises(MemoryError, match="worker failed"):
                ad.on_two_threads(lambda: here.append(1), failing, one_blas_thread)
            assert here == [1] and threading.active_count() == threads
        assert ad.on_two_threads(lambda: None, threading.get_ident)[1] == worker

    def test_blas_thread_count_is_one_inside_and_restored_after_a_worker_raises(self):
        blas = ad._blas_threads()
        if blas is None:
            pytest.skip("no thread-count setter found in numpy's OpenBLAS")
        get, set_ = blas
        original = get()
        seen = []

        def failing():
            seen.append(get())
            raise MemoryError("worker failed")

        set_(2)
        try:
            with pytest.raises(MemoryError, match="worker failed"):
                ad.on_two_threads(lambda: seen.append(get()), failing, one_blas_thread=True)
            assert seen == [1, 1]
            assert get() == 2
            assert ad.on_two_threads(get, get, one_blas_thread=True) == (1, 1)
            assert get() == 2
            # a raise from first(), and from a call that finds the worker busy
            with pytest.raises(MemoryError, match="worker failed"):
                ad.on_two_threads(failing, get, one_blas_thread=True)
            assert get() == 2
            with pytest.raises(MemoryError, match="worker failed"):
                ad.on_two_threads(
                    lambda: ad.on_two_threads(get, failing, one_blas_thread=True), get)
            assert get() == 2
        finally:
            set_(original)

    def test_a_call_that_runs_in_turn_leaves_the_blas_count_alone(self):
        """A second thread's call that finds the worker busy and ends after
        the holder has put the count back does not put back its own reading
        of 1."""
        blas = ad._blas_threads()
        if blas is None:
            pytest.skip("no thread-count setter found in numpy's OpenBLAS")
        get, set_ = blas
        original = get()
        in_turn, holder_done = threading.Event(), threading.Event()
        results = []

        def in_turn_first():
            in_turn.set()
            assert holder_done.wait(timeout=30)
            return get()

        other = threading.Thread(target=lambda: results.append(
            ad.on_two_threads(in_turn_first, get, one_blas_thread=True)), daemon=True)
        set_(2)
        try:
            ad.on_two_threads(lambda: (other.start(), in_turn.wait(timeout=30)), lambda: None,
                              one_blas_thread=True)
            holder_done.set()
            other.join(timeout=30)
            assert results == [(2, 2)] and get() == 2
        finally:
            set_(original)

    def test_without_a_blas_setter_both_sides_run_here_in_turn(self, monkeypatch):
        monkeypatch.setattr(ad, "_blas_threads", lambda: None)
        order = []

        def side(name):
            def run():
                order.append(name)
                return threading.get_ident()
            return run

        assert ad.on_two_threads(side("first"), side("second"), one_blas_thread=True) == (
            threading.get_ident(), threading.get_ident())
        assert order == ["first", "second"]
        # without the BLAS switch the worker runs regardless
        assert ad.on_two_threads(side("first"), side("second"))[1] != threading.get_ident()

    def test_a_blas_library_that_does_not_load_leaves_both_sides_in_turn(self, monkeypatch):
        def unloadable(path):
            raise OSError(f"{path}: cannot load")

        monkeypatch.setattr(ad.ctypes, "CDLL", unloadable)
        ad._blas_threads.cache_clear()
        try:
            assert ad._blas_threads() is None
            order = []
            sides = [lambda name=name: order.append(name) or threading.get_ident()
                     for name in ("first", "second")]
            assert ad.on_two_threads(*sides, one_blas_thread=True) == (
                threading.get_ident(), threading.get_ident())
            assert order == ["first", "second"]
        finally:
            ad._blas_threads.cache_clear()

    def test_every_call_shares_one_worker(self):
        threads = threading.active_count()
        workers = {ad.on_two_threads(lambda: None, threading.get_ident)[1] for _ in range(5)}
        assert len(workers) == 1 and threading.get_ident() not in workers
        assert threading.active_count() <= threads + 1
        # a call from another thread uses the same worker when it is idle
        other = []
        runner = threading.Thread(
            target=lambda: other.append(ad.on_two_threads(lambda: None, threading.get_ident)[1]))
        runner.start()
        runner.join(timeout=30)
        assert other == list(workers)

    @pytest.mark.parametrize("one_blas_thread", [False, True])
    @pytest.mark.parametrize("failing_first", [False, True])
    def test_a_raise_on_either_side_comes_out_after_both_finish(self, one_blas_thread,
                                                                failing_first):
        if one_blas_thread and ad._blas_threads() is None:
            pytest.skip("no thread-count setter found in numpy's OpenBLAS")
        finished = []

        def slow():
            time.sleep(0.05)
            finished.append(threading.get_ident())

        def failing():
            raise MemoryError("side failed")

        with pytest.raises(MemoryError, match="side failed"):
            ad.on_two_threads(*((failing, slow) if failing_first else (slow, failing)),
                              one_blas_thread)
        assert len(finished) == 1
        # the worker is free again: the next call's second side runs on it
        assert ad.on_two_threads(lambda: 1, threading.get_ident)[1] != threading.get_ident()

    def test_nested_calls_from_either_side_finish(self):
        """A two-thread call from inside first() or from the worker finds the
        worker busy and runs first() and then second() on its own thread."""
        def nested():
            order = []

            def side(name):
                def run():
                    order.append(name)
                    return threading.get_ident()
                return run

            return order, ad.on_two_threads(side("a"), side("b")), threading.get_ident()

        results = []
        runner = threading.Thread(target=lambda: results.append(ad.on_two_threads(nested, nested)),
                                  daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "a nested two-thread call did not finish"
        (inner_first, inner_second), = results
        for order, idents, caller in (inner_first, inner_second):
            assert order == ["a", "b"] and idents == (caller, caller)
        assert inner_first[2] == runner.ident and inner_second[2] != runner.ident

    def test_a_second_user_thread_runs_in_turn_while_the_worker_is_busy(self):
        """While one thread's call has the worker, another thread's call runs
        both its sides in turn on that thread instead of waiting."""
        has_worker, other_done = threading.Event(), threading.Event()
        results = {}

        def holder():
            def first():
                has_worker.set()
                assert other_done.wait(timeout=30)
            results["holder"] = ad.on_two_threads(first, threading.get_ident)

        def other():
            assert has_worker.wait(timeout=30)
            order = []
            results["other"] = ad.on_two_threads(lambda: order.append("a") or threading.get_ident(),
                                                 lambda: order.append("b") or threading.get_ident())
            results["order"] = order
            other_done.set()

        users = [threading.Thread(target=target, daemon=True) for target in (holder, other)]
        for thread in users:
            thread.start()
        for thread in users:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in users), "a two-thread call did not finish"
        assert results["order"] == ["a", "b"]
        assert results["other"] == (users[1].ident, users[1].ident)
        assert results["holder"][1] not in (users[0].ident, users[1].ident)

    def test_a_forked_child_starts_a_worker_of_its_own(self):
        """A child forked after the parent started the worker, from an idle
        worker or while another thread's call holds it, finishes a
        two-thread call on a worker of its own.  The forks happen in a
        separate interpreter, so the test runner never forks; each child
        dies from an alarm if its call hangs."""
        script = textwrap.dedent("""
            import os, signal, sys, threading
            import topicsum.autodiff as ad

            def child_call():
                pid = os.fork()
                if pid == 0:
                    signal.alarm(20)
                    first, second = ad.on_two_threads(threading.get_ident, threading.get_ident)
                    os._exit(0 if first != second else 3)
                return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

            ad.on_two_threads(lambda: None, lambda: None)
            codes = [child_call()]
            # fork from another thread while this thread's call holds the worker
            forked = threading.Event()
            forker = threading.Thread(target=lambda: (codes.append(child_call()), forked.set()))
            ad.on_two_threads(lambda: (forker.start(), forked.wait(30)), lambda: None)
            forker.join()
            print(codes)
            sys.exit(0 if codes == [0, 0] else 1)
        """)
        package_root = str(Path(ad.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=90, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  [package_root, os.environ.get("PYTHONPATH", "")])})
        assert done.returncode == 0, (done.stdout, done.stderr)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    # Python 3.12 warns on a fork from a process with more than one thread
    @pytest.mark.filterwarnings(
        "ignore:This process .* is multi-threaded, use of fork:DeprecationWarning")
    def test_the_fork_hook_gives_a_child_its_own_worker_and_draw_lock(self, monkeypatch):
        """After a two-thread call has started the worker, a child forked
        while this thread holds the draw lock still finishes a two-thread
        call of its own and draws a pending parameter.  A child that hangs
        is killed after 10 s, so the test fails instead of hanging."""
        monkeypatch.setattr(ad, "_DEFER_MIN", 0)
        want = ad.parameter(np.random.default_rng(3), (4, 5)).data
        ad.on_two_threads(lambda: None, lambda: None)
        with ad._DRAW_LOCK:
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    first, second = ad.on_two_threads(threading.get_ident, threading.get_ident)
                    param = ad.parameter(np.random.default_rng(3), (4, 5))
                    drawn = type(param) is ad._Pending and np.array_equal(param.data, want)
                    status = 0 if first != second and drawn else 2
                finally:
                    os._exit(status)
        deadline = time.monotonic() + 10
        while not (reaped := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child hung in a two-thread call or a draw")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(reaped[1]) == 0

    def test_parameters_of_reads_trainable_attributes_in_assignment_order(self):
        class Inner:
            def __init__(self):
                self.w = ad.zero_parameter((2, 2))

            def parameters(self):
                return ad.parameters_of(self)

        class Outer:
            def __init__(self):
                self.b = ad.zero_parameter((1, 2))
                self.size = 2
                self.constant = ad.zeros((1, 2))          # no gradient: not trained
                self.inner = Inner()
                self.a = ad.zero_parameter((3,))

        outer = Outer()
        assert list(ad.parameters_of(outer).items()) == [
            ("b", outer.b), ("inner.w", outer.inner.w), ("a", outer.a)]


class TestForwardValues:
    def test_matmul_identity(self):
        x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = ad.Tensor(np.eye(2))
        np.testing.assert_allclose(ad.matmul(x, eye).data, x.data)

    def test_matmul_row_times_column(self):
        # [[1,2]] @ [[3],[4]] = [[11]], by hand
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_matmul_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(1, 2\).*\(3, 1\)"):
            ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0], [2.0], [3.0]]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_rows", [1, 37])
    def test_affine_is_bitwise_product_plus_bias(self, dtype, n_rows):
        rng = np.random.default_rng(n_rows)
        x, w, b = (rng.normal(0.0, 3.0, shape).astype(dtype)
                   for shape in ((n_rows, 50), (50, 70), (1, 70)))
        with ad.using_dtype(dtype):
            out = ad.affine(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
        want = x @ w + b
        assert out.dtype == want.dtype == dtype and out.tobytes() == want.tobytes()

    def test_tanh_and_sigmoid_at_zero(self):
        assert ad.tanh(ad.Tensor([[0.0]])).item() == 0.0
        assert ad.sigmoid(ad.Tensor([[0.0]])).item() == 0.5

    def test_sigmoid_saturates_exactly(self):
        assert ad.sigmoid(ad.Tensor([[-1e9]])).item() == 0.0
        assert ad.sigmoid(ad.Tensor([[1e9]])).item() == 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equals_masked_form(self, dtype):
        """The mask-free sigmoid against the two masked forms before it, on
        edge values, a spread of values and 2^20 random bit patterns; NaN in
        gives NaN out."""

        def masked(x):
            out = np.empty_like(x)
            positive = x >= 0
            out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
            ex = np.exp(x[~positive])
            out[~positive] = ex / (1.0 + ex)
            return out

        def where(x):
            e = np.exp(-np.abs(x))
            return np.where(x >= 0, 1 / (1 + e), e / (1 + e))

        info = np.finfo(dtype)
        rng = np.random.default_rng(11)
        edges = [0.0, -0.0, np.inf, -np.inf, 1e3, -1e3, 88.7, -88.7, 745.0, -745.0,
                 info.tiny, -info.tiny, info.smallest_subnormal, -info.smallest_subnormal,
                 info.max, -info.max, info.eps, -info.eps]
        bits = np.uint32 if dtype == np.float32 else np.uint64
        patterns = rng.integers(0, np.iinfo(bits).max, 1 << 20, dtype=bits, endpoint=True)
        x = np.concatenate([np.concatenate([rng.uniform(-1e3, 1e3, 4000), rng.normal(0.0, 8.0, 4000),
                                            edges]).astype(dtype),
                            patterns.view(dtype)]).reshape(1, -1)
        nan = np.isnan(x)
        # exp of a signalling NaN pattern raises the invalid flag, in every form
        with ad.using_dtype(dtype), np.errstate(invalid="ignore"):
            got = ad.sigmoid(ad.Tensor(x)).data
            wants = [(reference.__name__, reference(x)) for reference in (masked, where)]
        assert got.dtype == dtype
        assert nan.any() and np.isnan(got[nan]).all()
        for name, want in wants:
            assert got[~nan].tobytes() == want[~nan].tobytes(), name

    def test_softmax_equal_logits_is_uniform(self):
        out = ad.softmax(ad.Tensor([[2.0, 2.0, 2.0, 2.0]]), axis=1)
        np.testing.assert_allclose(out.data, np.full((1, 4), 0.25), rtol=1e-6)

    def test_softmax_log_ratio(self):
        # softmax([ln 1, ln 3]) = [0.25, 0.75]
        out = ad.softmax(ad.Tensor([[0.0, np.log(3.0)]]), axis=1)
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-6)

    def test_softmax_large_inputs_stable(self):
        out = ad.softmax(ad.Tensor([[1000.0, 1000.0]]), axis=1)
        assert np.all(np.isfinite(out.data))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_softmax_axis_zero(self):
        out = ad.softmax(ad.Tensor([[0.0], [np.log(3.0)]]), axis=0)
        np.testing.assert_allclose(out.data, [[0.25], [0.75]], atol=1e-6)

    def test_log_clamps_at_floor(self):
        out = ad.log(ad.Tensor([[0.0]]), floor=1e-12)
        np.testing.assert_allclose(out.item(), np.log(1e-12), rtol=1e-6)

    def test_embedding_lookup_gathers_rows(self):
        table = ad.Tensor(np.arange(12, dtype=np.float32).reshape(4, 3))
        out = ad.embedding_lookup(table, [0, 2])
        np.testing.assert_allclose(out.data, [[0, 1, 2], [6, 7, 8]])

    def test_embedding_lookup_empty_ids(self):
        table = ad.Tensor(np.ones((4, 3)))
        assert ad.embedding_lookup(table, []).data.shape == (0, 3)

    def test_embedding_lookup_rejects_bad_id(self):
        table = ad.Tensor(np.ones((4, 3)))
        with pytest.raises(IndexError, match="7"):
            ad.embedding_lookup(table, [1, 7])

    def test_scatter_sum_merges_collisions(self):
        out = ad.scatter_sum(ad.Tensor([[0.25, 0.75]]), [3, 3], 5)
        np.testing.assert_allclose(out.data, [[0, 0, 0, 1.0, 0]])

    def test_scatter_sum_routes_each_row_alone(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.uniform(0, 1, (3, 4)))
        block = ad.scatter_sum(x, [2, 0, 2, 5], 6)
        assert block.data.shape == (3, 6)
        for t in range(3):
            alone = ad.scatter_sum(ad.Tensor(x.data[t:t + 1]), [2, 0, 2, 5], 6)
            assert np.array_equal(block.data[t:t + 1], alone.data)

    def test_pick_gathers_one_entry_per_pair(self):
        x = ad.Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
        np.testing.assert_allclose(ad.pick(x, [0, 1, 2], [1, 0, 1]).data, [[1], [2], [5]])
        np.testing.assert_allclose(ad.pick(x, [[0, 2], [1, 1]], [[1, 0], [0, 1]]).data,
                                   [[1, 4], [2, 3]])
        with pytest.raises(ValueError):
            ad.pick(x, [0, 0], [1, 1])  # a repeated pair would lose gradient
        with pytest.raises(ValueError):
            ad.pick(x, [0, 1], [1])
        with pytest.raises(IndexError):
            ad.pick(x, [0, 3], [0, 0])

    def test_concat_both_axes(self):
        a = ad.Tensor([[1.0, 2.0]])
        b = ad.Tensor([[3.0, 4.0]])
        np.testing.assert_allclose(ad.concat([a, b], axis=0).data, [[1, 2], [3, 4]])
        np.testing.assert_allclose(ad.concat([a, b], axis=1).data, [[1, 2, 3, 4]])

    def test_rows_and_pick(self):
        x = ad.Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))
        np.testing.assert_allclose(ad.rows(x, 1, 3).data, [[2, 3], [4, 5]])
        assert ad.pick(x, 2, 1).item() == 5.0
        with pytest.raises(IndexError):
            ad.rows(x, 2, 4)
        with pytest.raises(IndexError):
            ad.pick(x, 3, 0)

    def test_pick_block_gathers_whole_rows_in_order(self):
        # a block of whole rows, as `encode_topics` reorders its topic rows
        x = ad.Tensor(np.arange(6, dtype=np.float32).reshape(3, 2))

        def whole_rows(ids):
            return np.meshgrid(np.asarray(ids, dtype=np.int64), np.arange(2), indexing="ij")

        np.testing.assert_allclose(ad.pick(x, *whole_rows([2, 0])).data, [[4, 5], [0, 1]])
        with pytest.raises(IndexError):
            ad.pick(x, *whole_rows([3]))
        with pytest.raises(ValueError, match="distinct"):
            ad.pick(x, *whole_rows([1, 1]))
        with pytest.raises(ValueError, match="non-empty"):
            ad.pick(x, *whole_rows([]))

    def test_additive_scores_equal_one_row_at_a_time(self):
        rng = np.random.default_rng(8)
        keys, queries = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (4, 3))
        v = rng.uniform(-1, 1, (3, 1))
        with ad.using_dtype(np.float64):
            scores = ad.additive_scores(ad.Tensor(keys), ad.Tensor(queries), ad.Tensor(v))
        assert scores.data.shape == (5, 4) and scores.data.flags.c_contiguous
        for i in range(5):
            for r in range(4):
                want = np.tanh(keys[i] + queries[r]) @ v[:, 0]
                np.testing.assert_allclose(scores.data[i, r], want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [3, 8, 9, 12])
    def test_additive_scores_halves_on_two_threads_equal_one_pass(self, monkeypatch, dtype,
                                                                   count):
        """With the split forced at two queries a block, scores and adjoints
        equal the one-thread ones bitwise: 2 blocks (one per half, the last
        partial), 4 (two each), 5 (three and two) and 6 (three each)."""
        n, hidden = 5, 4
        monkeypatch.setattr(ad, "_SCORE_BLOCK", 2 * n * hidden)
        rng = np.random.default_rng(count)
        arrays = [rng.uniform(-1, 1, shape) for shape in ((n, hidden), (count, hidden),
                                                          (hidden, 1), (n, count))]
        calls, on_two_threads = [], ad.on_two_threads

        def spy(first, second, one_blas_thread=False):
            calls.append(one_blas_thread)
            return on_two_threads(first, second, one_blas_thread)

        monkeypatch.setattr(ad, "on_two_threads", spy)

        def run(split_min):
            monkeypatch.setattr(ad, "_SCORE_SPLIT_MIN", split_min)
            with ad.using_dtype(dtype):
                keys, queries, v, g = (ad.Tensor(x, requires_grad=True) for x in arrays)
                with ad.tape() as recording:
                    scores = ad.additive_scores(keys, queries, v)
                    recording.backward((scores * g).sum())
            return [scores.data, keys.grad, queries.grad, v.grad]

        serial = run(count * n * hidden + 1)
        assert calls == []
        split = run(count * n * hidden)
        assert calls == [True]
        for got, want in zip(split, serial):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()

    def test_additive_scores_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(5, 3\).*\(4, 2\).*\(3, 1\)"):
            ad.additive_scores(ad.zeros((5, 3)), ad.zeros((4, 2)), ad.zeros((3, 1)))
        with pytest.raises(ValueError, match=r"\(3,\)"):
            ad.additive_scores(ad.zeros((5, 3)), ad.zeros((4, 3)), ad.zeros((3,)))

    def test_add_broadcasts_rows_and_scalars(self):
        x = ad.Tensor(np.ones((2, 3)))
        bias = ad.Tensor([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(ad.add(x, bias).data, [[2, 3, 4], [2, 3, 4]])
        np.testing.assert_allclose((x + 1.0).data, np.full((2, 3), 2.0))
        gate = ad.Tensor([[0.25]])
        np.testing.assert_allclose((x * gate).data, np.full((2, 3), 0.25))


class TestMalformedInputs:
    """Each op refuses a malformed input with its own exception and message."""

    def test_affine_refuses_mismatched_inner_sizes(self):
        with pytest.raises(ValueError, match=r"^affine shape mismatch: \(2, 3\) x \(4, 5\)$"):
            ad.affine(ad.zeros((2, 3)), ad.zeros((4, 5)), ad.zeros((1, 5)))

    @pytest.mark.parametrize("shape", [(5,), (2, 5), (1, 4)])
    def test_affine_refuses_a_bias_other_than_one_row(self, shape):
        message = f"affine bias shape {shape}, expected (1, 5)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ad.affine(ad.zeros((2, 3)), ad.zeros((3, 5)), ad.zeros(shape))

    def test_concat_refuses_no_tensors(self):
        with pytest.raises(ValueError, match="^concat needs at least one tensor$"):
            ad.concat([])

    def test_scatter_sum_refuses_a_column_count_other_than_the_index_count(self):
        message = "scatter_sum needs x with 2 columns, got shape (4, 3)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ad.scatter_sum(ad.zeros((4, 3)), [0, 1], 5)

    @pytest.mark.parametrize("indices, bad", [([0, 5, 1], 5), ([2, -1, 7], -1)])
    def test_scatter_sum_refuses_an_index_outside_its_size(self, indices, bad):
        with pytest.raises(IndexError, match=rf"^scatter index {bad} outside \[0, 5\)$"):
            ad.scatter_sum(ad.zeros((1, 3)), indices, 5)

    def test_gru_sequence_refuses_no_lengths(self):
        weights = [ad.zeros(shape) for _ in range(3) for shape in ((3, 4), (4, 4), (1, 4))]
        message = "gru_sequence needs 2 lengths of at least 1 summing to 5, got None"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ad.gru_sequence(ad.zeros((5, 3)), ad.zeros((2, 4)), weights, None)


class TestGradients:
    """Each op's backward against an in-test central-difference oracle."""

    def test_matmul_grad_hand_value(self):
        # d/dA sum(A @ B) at A=[[1,1]], B=[[2],[5]] is [[2, 5]]
        with ad.using_dtype(np.float64):
            a = ad.Tensor([[1.0, 1.0]], requires_grad=True)
            b = ad.Tensor([[2.0], [5.0]], requires_grad=True)
            with ad.tape() as t:
                t.backward(ad.matmul(a, b).sum())
            np.testing.assert_allclose(a.grad, [[2.0, 5.0]])
            _, numeric = numeric_grad(lambda: ad.matmul(a, b).sum().item(), a)
            assert_grads_match(a.grad.reshape(-1), numeric, label="matmul dA")

    def test_sigmoid_grad_at_zero(self):
        # derivative of sigmoid at 0 is 0.25
        with ad.using_dtype(np.float64):
            x = ad.Tensor([[0.0]], requires_grad=True)
            with ad.tape() as t:
                t.backward(ad.sigmoid(x).sum())
            np.testing.assert_allclose(x.grad, [[0.25]], rtol=1e-12)
            _, numeric = numeric_grad(lambda: ad.sigmoid(x).sum().item(), x)
            assert_grads_match(x.grad.reshape(-1), numeric, label="sigmoid")

    def test_square_grad_hand_value(self):
        with ad.using_dtype(np.float64):
            x = ad.Tensor([[3.0]], requires_grad=True)
            with ad.tape() as t:
                t.backward((x * x).sum())
            np.testing.assert_allclose(x.grad, [[6.0]], rtol=1e-12)

    def test_a_row_vector_added_to_a_matrix_gets_its_rows_summed(self):
        # a [3] tensor broadcast over [2, 3] rows: its gradient sums them
        with ad.using_dtype(np.float64):
            x = ad.Tensor(np.zeros((2, 3)), requires_grad=True)
            b = ad.Tensor(np.zeros(3), requires_grad=True)
            weights = ad.Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
            with ad.tape() as t:
                t.backward((ad.add(x, b) * weights).sum())
            assert b.grad.shape == (3,) and b.grad.tolist() == [5.0, 7.0, 9.0]
            assert x.grad.tolist() == weights.data.tolist()

    def test_log_floor_zeroes_clamped_gradient(self):
        with ad.using_dtype(np.float64):
            x = ad.Tensor([[0.0, 0.5]], requires_grad=True)
            with ad.tape() as t:
                t.backward(ad.log(x, floor=1e-12).sum())
            assert x.grad[0, 0] == 0.0
            np.testing.assert_allclose(x.grad[0, 1], 2.0, rtol=1e-12)

    def test_embedding_backward_accumulates_repeats(self):
        # two lookups of row 2 must deposit twice the gradient there
        with ad.using_dtype(np.float64):
            table = ad.Tensor(np.zeros((4, 3)), requires_grad=True)
            with ad.tape() as t:
                t.backward(ad.embedding_lookup(table, [2, 2, 0]).sum())
            expected = np.zeros((4, 3))
            expected[2] = 2.0
            expected[0] = 1.0
            np.testing.assert_allclose(table.grad, expected)

    def test_row_sparse_gradients_match_dense_reference(self):
        # gathers hand back row-sparse adjoints; summed into their targets
        # they must equal the dense scatter built here
        rng = np.random.default_rng(21)
        ids = [3, 0, 3, 4, 3, 1]
        with ad.using_dtype(np.float64):
            table = ad.Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
            x = ad.Tensor(rng.uniform(-1, 1, (6, 4)), requires_grad=True)
            m_lookup = rng.uniform(-1, 1, (6, 4))
            m_rows = rng.uniform(-1, 1, (3, 4))
            m_row = rng.uniform(-1, 1, (1, 4))
            m_dense = rng.uniform(-1, 1, (6, 4))
            with ad.tape() as t:
                vectors = ad.embedding_lookup(table, ids)
                h = ad.tanh(ad.add(vectors, x))           # intermediate gathered from
                loss = ((vectors * ad.Tensor(m_lookup)).sum()
                        + (ad.rows(h, 2, 5) * ad.Tensor(m_rows)).sum()
                        + (ad.rows(h, 3, 4) * ad.Tensor(m_row)).sum()
                        + ad.pick(h, 4, 1) + ad.pick(h, 4, 1) + ad.pick(h, 0, 3)
                        + (h * ad.Tensor(m_dense)).sum())
                t.backward(loss)

            dh = m_dense.copy()
            dh[2:5] += m_rows
            dh[3] += m_row[0]
            dh[4, 1] += 2.0
            dh[0, 3] += 1.0
            dpre = dh * (1.0 - np.tanh(table.data[ids] + x.data) ** 2)
            dvectors = m_lookup + dpre
            dtable = np.zeros((5, 4))
            for k, token in enumerate(ids):
                dtable[token] += dvectors[k]
            np.testing.assert_allclose(x.grad, dpre, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(table.grad, dtable, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", [
        "add", "add_row_bias", "add_scalar_tensor", "mul", "mul_gate",
        "matmul", "affine", "tanh", "sigmoid", "softmax1", "softmax0",
        "log", "transpose", "concat0", "concat1", "rows",
        "pick", "pick_rows", "pick_block", "pick_row_block",
        "embedding", "scatter", "scatter_rows", "additive_scores", "gold_log_probs",
        "sum", "mean",
    ])
    def test_each_op_matches_finite_differences(self, case):
        rng = np.random.default_rng(hash(case) % (2 ** 32))
        with ad.using_dtype(np.float64):
            x = ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True)
            y = ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)), requires_grad=True)
            w = ad.Tensor(rng.uniform(-1.0, 1.0, size=(4, 2)), requires_grad=True)
            b = ad.Tensor(rng.uniform(-1.0, 1.0, size=(1, 2)), requires_grad=True)
            bias_row = ad.Tensor(rng.uniform(-1.0, 1.0, size=(1, 4)), requires_grad=True)
            gate = ad.Tensor(rng.uniform(0.2, 0.8, size=(1, 1)), requires_grad=True)
            table = ad.Tensor(rng.uniform(-1.0, 1.0, size=(5, 3)), requires_grad=True)
            weights = ad.Tensor(rng.uniform(0.1, 0.9, size=(1, 4)), requires_grad=True)
            queries = ad.Tensor(rng.uniform(-1.0, 1.0, size=(2, 4)), requires_grad=True)
            v = ad.Tensor(rng.uniform(-1.0, 1.0, size=(4, 1)), requires_grad=True)
            mixer = ad.Tensor(rng.uniform(-1.0, 1.0, size=(3, 4)))  # constant
            lookup_mixer = ad.Tensor(rng.uniform(-1.0, 1.0, size=(4, 3)))
            scatter_mixer = ad.Tensor(rng.uniform(-1.0, 1.0, size=(1, 6)))
            gates = ad.Tensor(rng.uniform(0.2, 0.8, size=(3, 1)), requires_grad=True)
            attention = ad.Tensor(rng.uniform(0.1, 0.9, size=(5, 3)), requires_grad=True)

            builders = {
                "add": lambda: ((ad.add(x, y) * mixer).sum(), {"x": x, "y": y}),
                "add_row_bias": lambda: ((ad.add(x, bias_row) * mixer).sum(),
                                         {"x": x, "bias_row": bias_row}),
                "add_scalar_tensor": lambda: ((ad.add(x, gate) * mixer).sum(),
                                              {"x": x, "gate": gate}),
                "mul": lambda: ((ad.mul(x, y) * mixer).sum(), {"x": x, "y": y}),
                "mul_gate": lambda: ((ad.mul(x, gate) * mixer).sum(), {"x": x, "gate": gate}),
                "matmul": lambda: ((ad.matmul(x, w) * ad.Tensor(mixer.data[:, :2])).sum(),
                                   {"x": x, "w": w}),
                "affine": lambda: ((ad.affine(x, w, b) * ad.Tensor(mixer.data[:, :2])).sum(),
                                   {"x": x, "w": w, "b": b}),
                "tanh": lambda: ((ad.tanh(x) * mixer).sum(), {"x": x}),
                "sigmoid": lambda: ((ad.sigmoid(x) * mixer).sum(), {"x": x}),
                "softmax1": lambda: ((ad.softmax(x, axis=1) * mixer).sum(), {"x": x}),
                "softmax0": lambda: ((ad.softmax(x, axis=0) * mixer).sum(), {"x": x}),
                "log": lambda: ((ad.log(ad.sigmoid(x), floor=1e-12) * mixer).sum(), {"x": x}),
                "transpose": lambda: ((ad.transpose(x) * ad.Tensor(mixer.data.T)).sum(), {"x": x}),
                "concat0": lambda: ((ad.concat([x, y], axis=0)
                                     * ad.Tensor(np.vstack([mixer.data, mixer.data]))).sum(),
                                    {"x": x, "y": y}),
                "concat1": lambda: ((ad.concat([x, y], axis=1)
                                     * ad.Tensor(np.hstack([mixer.data, mixer.data]))).sum(),
                                    {"x": x, "y": y}),
                "rows": lambda: ((ad.rows(x, 1, 3) * ad.Tensor(mixer.data[1:3])).sum(), {"x": x}),
                "pick": lambda: (ad.pick(x, 2, 1), {"x": x}),
                "pick_rows": lambda: ((ad.pick(x, [0, 2, 1], [3, 0, 3])
                                       * ad.Tensor(mixer.data[:, :1])).sum(), {"x": x}),
                "pick_block": lambda: ((ad.pick(x, [[0, 2], [2, 0]], [[3, 3], [1, 1]])
                                        * ad.Tensor(mixer.data[:2, :2])).sum(), {"x": x}),
                "pick_row_block": lambda: ((ad.pick(x, *np.meshgrid([2, 0], np.arange(4),
                                                                    indexing="ij"))
                                            * ad.Tensor(mixer.data[:2])).sum(), {"x": x}),
                "embedding": lambda: ((ad.embedding_lookup(table, [4, 0, 4, 2])
                                       * lookup_mixer).sum(),
                                      {"table": table}),
                "scatter": lambda: ((ad.scatter_sum(weights, [0, 2, 2, 5], 6)
                                     * scatter_mixer).sum(),
                                    {"weights": weights}),
                "scatter_rows": lambda: ((ad.scatter_sum(x, [1, 0, 1, 3], 5)
                                          * ad.Tensor(np.hstack([mixer.data, mixer.data[:, :1]]))).sum(),
                                         {"x": x}),
                # every row of x (keys) against every query
                "additive_scores": lambda: ((ad.additive_scores(x, queries, v)
                                             * ad.Tensor(mixer.data[:, :2])).sum(),
                                            {"x": x, "queries": queries, "v": v}),
                # V = 4: golds repeated in the input, OOV, and in the vocabulary only
                "gold_log_probs": lambda: ((ad.gold_log_probs(x, gates, attention,
                                                              [1, 5, 1, 0, 4], [1, 5, 2])
                                            * ad.Tensor(mixer.data[:, :1])).sum(),
                                           {"x": x, "gates": gates, "attention": attention}),
                "sum": lambda: (x.sum(), {"x": x}),
                "mean": lambda: (x.mean(), {"x": x}),
            }
            # freeze any randomness inside the builder so fn() re-runs identically
            loss_tensor, params = builders[case]()
            del loss_tensor
            build = builders[case]
            check_gradients(lambda: build()[0], params)

    def test_full_chain_matches_finite_differences(self):
        # a small tanh-affine-softmax-log chain exercising op composition
        rng = np.random.default_rng(7)
        with ad.using_dtype(np.float64):
            x = ad.Tensor(rng.uniform(-1, 1, (1, 5)), requires_grad=True)
            w1 = ad.Tensor(rng.uniform(-1, 1, (5, 4)), requires_grad=True)
            b1 = ad.Tensor(rng.uniform(-1, 1, (1, 4)), requires_grad=True)
            w2 = ad.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
            b2 = ad.Tensor(rng.uniform(-1, 1, (1, 3)), requires_grad=True)

            def loss():
                hidden = ad.tanh(ad.affine(x, w1, b1))
                probs = ad.softmax(ad.affine(hidden, w2, b2), axis=1)
                return ad.mul(ad.log(ad.pick(probs, 0, 1), floor=1e-12), -1.0)

            check_gradients(loss, {"x": x, "w1": w1, "b1": b1, "w2": w2, "b2": b2})


def gold_chain(logits, p_gen, weights, ids, targets):
    """`ad.gold_log_probs` as the full-distribution chain that
    `token_distribution` and `compute_losses` record: softmax, zero OOV
    columns, scatter_sum, the mix, pick and the clamped log."""
    count, vocab = logits.data.shape
    size = max(vocab, max(ids) + 1)
    probs = ad.softmax(logits, axis=1)
    if size > vocab:
        probs = ad.concat([probs, ad.zeros((count, size - vocab))], axis=1)
    copy = ad.scatter_sum(ad.transpose(weights), ids, size)
    mix = probs * p_gen + copy * (1.0 - p_gen)
    return ad.log(ad.pick(mix, range(count), targets), floor=ad.LOG_FLOOR)


class TestGoldLogProbs:
    """The one-record gold log-probabilities against `gold_chain`: in
    float32 the values and every adjoint are bitwise equal, signed zeros
    included; in float64 they agree to 1e-12."""

    VOCAB = 7
    IDS = [3, 8, 3, 0, 7, 3, 9, 8]      # 7, 8 and 9 are OOV; 3 and 8 repeat
    # row: gold (where it is), p_gen
    #   0: 3 (input, three times), free     4: 7 (OOV, once), free
    #   1: 5 (vocabulary only), 1           5: 6 (vocabulary only, logit -1e4), clamped
    #   2: 8 (OOV, twice), 0                6: 3 (input), 0
    #   3: 0 (input, once), 1               7: 8 (OOV), free
    TARGETS = [3, 5, 8, 0, 7, 6, 3, 8]
    GATES = {1: 1.0, 2: 0.0, 3: 1.0, 6: 0.0}

    def run(self, op, dtype, seed):
        rng = np.random.default_rng(seed)
        count = len(self.TARGETS)
        logits = rng.normal(0.0, 1.0, (count, self.VOCAB))
        logits[5, 6] = -1e4
        gates = rng.uniform(0.05, 0.95, (count, 1))
        for row, value in self.GATES.items():
            gates[row, 0] = value
        weights = rng.dirichlet(np.ones(len(self.IDS)), size=count).T      # [n, T]
        coefficients = -rng.uniform(0.1, 1.0, (1, count))
        with ad.using_dtype(dtype):
            leaves = [ad.Tensor(a, requires_grad=True) for a in (logits, gates, weights)]
            with ad.tape() as t:
                gold = op(*leaves, self.IDS, self.TARGETS)
                t.backward(ad.matmul(ad.Tensor(coefficients), gold))
        return [gold.data] + [leaf.grad for leaf in leaves]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_the_chain_in_float32(self, seed):
        got = self.run(ad.gold_log_probs, np.float32, seed)
        want = self.run(gold_chain, np.float32, seed)
        assert got[0][5, 0] == np.float32(np.log(np.float32(ad.LOG_FLOOR)))
        for name, a, b in zip(["value", "logits", "p_gen", "weights"], got, want):
            assert a.dtype == b.dtype == np.float32, name
            assert a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_equals_the_chain_in_float64(self):
        got = self.run(ad.gold_log_probs, np.float64, 3)
        want = self.run(gold_chain, np.float64, 3)
        for name, a, b in zip(["value", "logits", "p_gen", "weights"], got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12, err_msg=name)

    def test_clamped_gold_gets_no_gradient(self):
        _, d_logits, d_gates, d_weights = self.run(ad.gold_log_probs, np.float64, 4)
        assert not d_logits[5].any() and d_gates[5, 0] == 0.0 and not d_weights[:, 5].any()

    def test_bad_shapes_and_targets_rejected(self):
        logits, gates = ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.full((2, 1), 0.5))
        weights = ad.Tensor(np.full((3, 2), 1 / 3))
        with pytest.raises(ValueError, match="weights"):
            ad.gold_log_probs(logits, gates, ad.Tensor(np.ones((2, 2))), [0, 1, 5], [0, 1])
        with pytest.raises(ValueError, match="targets"):
            ad.gold_log_probs(logits, gates, weights, [0, 1, 5], [0, 1, 2])
        for targets in ([0, 6], [-1, 0]):      # 6 is past the vocabulary and not an input id
            with pytest.raises(IndexError, match="target"):
                ad.gold_log_probs(logits, gates, weights, [0, 1, 5], targets)
        np.testing.assert_allclose(
            ad.gold_log_probs(logits, gates, weights, [0, 1, 5], [5, 2]).data,
            np.log([[0.5 / 3], [0.5 / 4]]), rtol=1e-6)


class TestTapeSemantics:
    def test_ops_record_only_under_tape(self):
        x = ad.Tensor([[1.0]], requires_grad=True)
        out = ad.tanh(x)
        assert out.requires_grad is False  # tape-free inference records nothing
        with ad.tape() as t:
            tracked = ad.tanh(x)
            assert tracked.requires_grad is True
            assert len(t) == 1

    def test_constant_subgraphs_are_not_recorded(self):
        with ad.tape() as t:
            ad.tanh(ad.Tensor([[1.0]]))
            assert len(t) == 0

    def test_clear_releases_records(self):
        x = ad.Tensor([[1.0]], requires_grad=True)
        with ad.tape() as t:
            ad.tanh(x)
            assert len(t) == 1
            t.clear()
            assert len(t) == 0

    def test_backward_rejects_non_scalar_root(self):
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        with ad.tape() as t:
            y = ad.tanh(x)
            with pytest.raises(ValueError, match="scalar"):
                t.backward(y)

    def test_backward_rejects_unrecorded_root(self):
        with ad.tape() as t:
            const = ad.Tensor([[1.0]])
            with pytest.raises(ValueError):
                t.backward(const)

    def test_repeated_backward_accumulates(self):
        # two sweeps double every gradient
        x = ad.Tensor([[3.0]], requires_grad=True)
        with ad.tape() as t:
            y = (x * x).sum()
            t.backward(y)
            first = x.grad.copy()
            t.backward(y)
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_leaf_root_accumulates_like_any_leaf(self):
        x = ad.Tensor([[3.0]], requires_grad=True)
        with ad.tape() as t:
            t.backward(x)
            t.backward(x)
        np.testing.assert_array_equal(x.grad, [[2.0]])

    def test_independent_subgraphs_add_independently(self):
        x = ad.Tensor([[1.0]], requires_grad=True)
        y = ad.Tensor([[2.0]], requires_grad=True)
        with ad.tape() as t:
            loss = (ad.tanh(x) + ad.sigmoid(y)).sum()
            t.backward(loss)
        got = (x.grad.copy(), y.grad.copy())
        x.grad = y.grad = None
        with ad.tape() as t:
            t.backward(ad.tanh(x).sum())
        with ad.tape() as t:
            t.backward(ad.sigmoid(y).sum())
        np.testing.assert_allclose(got[0], x.grad)
        np.testing.assert_allclose(got[1], y.grad)

    def test_tapes_do_not_nest(self):
        with ad.tape():
            with pytest.raises(RuntimeError):
                with ad.tape():
                    pass

    def test_only_leaves_get_grads(self):
        # leaves accumulate into .grad; the sweep sets the .grad of
        # intermediates (and the root) back to None once their records ran
        x = ad.Tensor([[0.3]], requires_grad=True)
        with ad.tape() as t:
            middle = ad.tanh(x)
            loss = ad.sigmoid(middle).sum()
            t.backward(loss)
        assert x.grad is not None
        assert middle.grad is None and loss.grad is None

    def test_adjoint_shared_by_two_inputs_stays_intact(self):
        # add hands one array to both of its inputs; a later contribution to
        # one of them must not change the other's adjoint
        with ad.using_dtype(np.float64):
            x = ad.Tensor([[0.2, -0.4]], requires_grad=True)
            y = ad.Tensor([[0.7, 0.1]], requires_grad=True)
            with ad.tape() as t:
                u, v = ad.tanh(x), ad.tanh(y)
                w = u * 3.0
                t.backward((ad.add(u, v) + w).sum())
        np.testing.assert_allclose(y.grad, 1.0 - np.tanh(y.data) ** 2, rtol=1e-12)
        np.testing.assert_allclose(x.grad, 4.0 * (1.0 - np.tanh(x.data) ** 2), rtol=1e-12)

    def test_fresh_adjoint_is_adopted_by_one_leaf_only(self):
        # the matmul vjp's fresh adjoint reaches add, whose vjp hands that
        # one array to both leaves: each must get its own buffer, or the
        # second sweep adds into both through either
        with ad.using_dtype(np.float64):
            x = ad.Tensor([[0.5, -1.0]], requires_grad=True)
            y = ad.Tensor([[2.0, 0.25]], requires_grad=True)
            w = ad.Tensor([[1.0, 3.0], [-2.0, 0.5]], requires_grad=True)
            with ad.tape() as t:
                loss = ad.matmul(ad.add(x, y), w).sum()
                t.backward(loss)
                assert not np.shares_memory(x.grad, y.grad)
                t.backward(loss)
        want = 2.0 * w.data.sum(axis=1, keepdims=True).T
        np.testing.assert_array_equal(x.grad, want)
        np.testing.assert_array_equal(y.grad, want)

    def test_adopted_adjoints_equal_copied_ones_bitwise(self, monkeypatch):
        """Leaf gradients when vjp results become `.grad` as they are,
        against a sweep whose vjps hand on a copy of every dense result."""
        rng = np.random.default_rng(12)
        cell = {name: ad.Tensor(rng.uniform(-0.5, 0.5, shape), requires_grad=True)
                for name, shape in (("W_z", (3, 4)), ("U_z", (4, 4)), ("b_z", (1, 4)),
                                    ("W_r", (3, 4)), ("U_r", (4, 4)), ("b_r", (1, 4)),
                                    ("W_h", (3, 4)), ("U_h", (4, 4)), ("b_h", (1, 4)))}
        leaves = dict(cell, x=ad.Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True),
                      h0=ad.Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True),
                      w=ad.Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=True),
                      b=ad.Tensor(rng.uniform(-1, 1, (1, 5)), requires_grad=True))
        returned = []

        def sweep():
            with ad.tape() as t:
                states = ad.gru_sequence(leaves["x"], leaves["h0"], cell.values(), [4, 2])
                hidden = ad.tanh(ad.affine(states, leaves["w"], leaves["b"]))
                t.backward(ad.matmul(hidden, ad.transpose(leaves["w"])).sum())
            grads = {name: leaf.grad for name, leaf in leaves.items()}
            for leaf in leaves.values():
                leaf.grad = None
            return grads

        push = ad._push

        def spy(copy):
            def recording_push(data, inputs, vjp):
                def recorded(g):
                    grads = vjp(g)
                    returned.extend(grads)
                    return tuple(np.array(grad, copy=True) if copy and isinstance(grad, np.ndarray)
                                 else grad for grad in grads)
                return push(data, inputs, recorded)
            return recording_push

        monkeypatch.setattr(ad, "_push", spy(copy=False))
        got = sweep()
        adopted = list(returned)
        monkeypatch.setattr(ad, "_push", spy(copy=True))
        want = sweep()
        assert any(got["U_z"] is array for array in adopted)
        assert not any(want["U_z"] is array for array in returned)
        for name in leaves:
            assert got[name].dtype == want[name].dtype
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    @pytest.mark.parametrize("join", ["add", "concat"])
    def test_an_input_handed_g_owns_its_buffer(self, join):
        """`a` takes its adjoint from `join` first, then gets one more added
        in place; `b`'s adjoint from `join` must not move with it."""
        rng = np.random.default_rng(5)
        with ad.using_dtype(np.float64):
            x = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
            w = ad.Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
            with ad.tape() as t:
                a, b = ad.tanh(x), ad.tanh(w)
                doubled = ad.mul(a, 2.0)
                joined = ad.add(a, b) if join == "add" else ad.concat([a, b], axis=1)
                t.backward(joined.sum() + doubled.sum())
        np.testing.assert_allclose(w.grad, 1.0 - np.tanh(w.data) ** 2, rtol=1e-12)
        np.testing.assert_allclose(x.grad, 3.0 * (1.0 - np.tanh(x.data) ** 2), rtol=1e-12)

    def test_two_sweeps_double_every_leaf_gradient(self):
        rng = np.random.default_rng(4)
        with ad.using_dtype(np.float64):
            x = ad.Tensor(rng.uniform(-1, 1, (4, 3)), requires_grad=True)
            table = ad.Tensor(rng.uniform(-1, 1, (6, 3)), requires_grad=True)
            w = ad.Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
            with ad.tape() as t:
                h = ad.tanh(ad.matmul(ad.add(x, ad.embedding_lookup(table, [5, 1, 5, 0])), w))
                loss = (ad.rows(h, 1, 3).sum() + ad.rows(h, 1, 2).sum()
                        + ad.pick(h, 3, 2) + ad.matmul(h, w).sum())
                t.backward(loss)
                first = {name: p.grad.copy() for name, p in [("x", x), ("table", table), ("w", w)]}
                t.backward(loss)
        for name, p in [("x", x), ("table", table), ("w", w)]:
            np.testing.assert_allclose(p.grad, 2.0 * first[name], rtol=1e-12, atol=0,
                                       err_msg=name)


class TestGRURunShortcuts:
    """The parts of `_GRURun` that skip work for one row, one step or one
    sequence, against the general forms they skip, bitwise."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_weight_gradients_equal_blas_products(self, dtype):
        """A one-row run's six weight gradients against BLAS's K=1 products
        a.T @ d from the same `through_time` output, at sizes from 1 to 600,
        with signed zeros and subnormals in the inputs, the start state and
        the states' adjoint, so that some products are -0."""
        rng = np.random.default_rng(5)
        subnormal = np.finfo(dtype).smallest_subnormal * dtype(1 << 20)

        def draw(*shape):
            values = rng.normal(0.0, 1.0, shape).astype(dtype)
            spots = rng.random(shape)
            values[spots < 0.1] = 0.0
            values[(spots >= 0.1) & (spots < 0.2)] = -0.0
            values[spots >= 0.8] *= subnormal
            return values

        sizes = [(1, 1), (1, 600), (600, 1), (600, 600)]
        sizes += [tuple(rng.integers(1, 601, 2).tolist()) for _ in range(16)]
        for inputs, hidden in sizes:
            x, h0, g = draw(1, inputs), draw(1, hidden), draw(1, hidden)
            weights = [draw(*shape) for _ in range(3)
                       for shape in ((inputs, hidden), (hidden, hidden), (1, hidden))]
            run = ad._GRURun(x, h0, weights, False, [1])
            run.forward()
            d_z, d_r, d_h, carry = run.through_time(g)
            _, _, gw_z, gu_z, _, gw_r, gu_r, _, gw_h, gu_h, _ = run.adjoints(d_z, d_r, d_h, carry)
            want = (x.T @ d_z, h0.T @ d_z, x.T @ d_r, h0.T @ d_r, x.T @ d_h, (run.r * h0).T @ d_h)
            got = (gw_z, gu_z, gw_r, gu_r, gw_h, gu_h)
            assert any(np.signbit(product).any() for product in (x.T * d_z, h0.T * d_r))
            for name, a, b in zip(("W_z", "U_z", "W_r", "U_r", "W_h", "U_h"), got, want):
                assert a.dtype == dtype and a.tobytes() == b.tobytes(), (name, inputs, hidden)

    @pytest.mark.parametrize("lengths", [[1], [1, 1, 1], [2], [5]])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_one_step_and_one_sequence_are_packed_already(self, lengths, reverse):
        """One step of B rows and one sequence build their steps directly;
        they equal what a packed run's active/cumsum construction gives,
        and the packing they skip is the identity."""
        lengths = np.array(lengths)
        active = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0)
        starts = np.cumsum(active) - active
        want = [(slice(s, s + k), k) for s, k in zip(starts.tolist(), active.tolist())]
        if reverse:
            want.reverse()
        n, b, hidden = int(lengths.sum()), len(lengths), 4
        weights = [np.zeros(shape, np.float32) for _ in range(3)
                   for shape in ((3, hidden), (hidden, hidden), (1, hidden))]
        run = ad._GRURun(np.zeros((n, 3), np.float32), np.zeros((b, hidden), np.float32),
                         weights, reverse, lengths.tolist())
        assert run.steps == want
        order, packed, unpacked = ad._packing(lengths)
        assert order.tolist() == list(range(b))
        assert packed.tolist() == unpacked.tolist() == list(range(n))


class TestGRULengths:
    """The forms of `lengths` a GRU run takes, on each of its three paths
    (one step of B rows, one sequence, packed), and the ones it refuses,
    message and all."""

    @staticmethod
    def run(lengths, n, b):
        rng = np.random.default_rng(3)
        weights = [rng.normal(size=shape).astype(np.float32) for _ in range(3)
                   for shape in ((3, 4), (4, 4), (1, 4))]
        xs = rng.normal(size=(n, 3)).astype(np.float32)
        h0 = rng.normal(size=(b, 4)).astype(np.float32)
        return ad._GRURun(xs, h0, weights, False, lengths)

    @pytest.mark.parametrize("lengths", [[1, 1, 1], [5], [2, 1, 3]],
                             ids=["one_step", "one_sequence", "packed"])
    @pytest.mark.parametrize("form", [tuple, np.array, lambda ls: np.array(ls, np.int32)],
                             ids=["tuple", "int64_array", "int32_array"])
    def test_sequences_and_int_arrays_equal_the_list(self, lengths, form):
        n, b = sum(lengths), len(lengths)
        want = self.run(list(lengths), n, b)
        got = self.run(form(lengths), n, b)
        assert got.steps == want.steps
        assert got.forward().tobytes() == want.forward().tobytes()

    @pytest.mark.parametrize("lengths, n, b, shown", [
        (np.array([[2, 1, 3]]), 6, 3, "[[2, 1, 3]]"),
        (np.array([[2], [1], [3]]), 6, 3, "[[2], [1], [3]]"),
        (np.array([[1], [1], [1]]), 3, 3, "[[1], [1], [1]]"),
        (np.array(6), 6, 1, "6"),
        ([3, 0, 3], 6, 3, "[3, 0, 3]"),
        ([0, 0, 3], 3, 3, "[0, 0, 3]"),
        ([4, -1, 3], 6, 3, "[4, -1, 3]"),
        ((7, -1), 6, 2, "[7, -1]"),
        ([3, 3], 6, 3, "[3, 3]"),
        ([], 1, 1, "[]"),
        ([2, 1, 2], 6, 3, "[2, 1, 2]"),
        (np.array([2, 1, 4]), 6, 3, "[2, 1, 4]"),
        ([1, 1, 1, 1], 3, 3, "[1, 1, 1, 1]"),
        ([4], 5, 1, "[4]"),
        ([2.0, 1.0, 3.0], 6, 3, "[2.0, 1.0, 3.0]"),
        ([1.5, 1.5], 3, 2, "[1.5, 1.5]"),
        (np.array([1.0, 1.0]), 2, 2, "[1.0, 1.0]"),
        ([2, 1.0, 3], 6, 3, "[2.0, 1.0, 3.0]"),
    ], ids=["2d_row", "2d_column", "2d_column_one_step", "0d", "zero", "zeros_one_step",
            "negative", "negative_tuple", "too_few", "none", "wrong_sum", "wrong_sum_array",
            "too_many", "one_sequence_short", "float", "float_fraction", "float_array",
            "one_float"])
    def test_bad_lengths_refused_with_their_message(self, lengths, n, b, shown):
        message = f"gru_sequence needs {b} lengths of at least 1 summing to {n}, got {shown}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            self.run(lengths, n, b)


def _gru(leaf, lengths):
    hidden = 5
    weights = [leaf(*shape) for _ in range(3)
               for shape in ((3, hidden), (hidden, hidden), (1, hidden))]
    return ad.gru_sequence(leaf(sum(lengths), 3), leaf(len(lengths), hidden), weights, lengths)


# every op that records, each built from fresh leaves
RECORDING_OPS = {
    "add": lambda leaf: ad.add(leaf(3, 4), leaf(3, 4)),
    "add_broadcast": lambda leaf: ad.add(leaf(3, 4), leaf(1, 4)),
    "add_scalar": lambda leaf: ad.add(leaf(3, 4), 0.5),
    "mul": lambda leaf: ad.mul(leaf(3, 4), leaf(3, 1)),
    "mul_scalar": lambda leaf: ad.mul(leaf(3, 4), -2.0),
    "matmul": lambda leaf: ad.matmul(leaf(3, 4), leaf(4, 2)),
    "matmul_one_row": lambda leaf: ad.matmul(leaf(1, 4), leaf(4, 1)),
    "affine": lambda leaf: ad.affine(leaf(3, 4), leaf(4, 2), leaf(1, 2)),
    "affine_one_row": lambda leaf: ad.affine(leaf(1, 4), leaf(4, 2), leaf(1, 2)),
    "transpose": lambda leaf: ad.transpose(leaf(3, 4)),
    "tanh": lambda leaf: ad.tanh(leaf(3, 4)),
    "sigmoid": lambda leaf: ad.sigmoid(leaf(3, 4)),
    "softmax": lambda leaf: ad.softmax(leaf(3, 4), axis=0),
    "log": lambda leaf: ad.log(leaf(3, 4), floor=1e-12),
    "concat0": lambda leaf: ad.concat([leaf(3, 4), leaf(1, 4)], axis=0),
    "concat1": lambda leaf: ad.concat([leaf(3, 4), leaf(3, 2)], axis=1),
    "rows": lambda leaf: ad.rows(leaf(5, 4), 1, 3),
    "row": lambda leaf: ad.rows(leaf(5, 4), 2, 3),
    "pick": lambda leaf: ad.pick(leaf(5, 4), [0, 2], [1, 1]),
    "pick_row_block": lambda leaf: ad.pick(leaf(5, 4), *np.meshgrid([3, 0], np.arange(4),
                                                                    indexing="ij")),
    "embedding_lookup": lambda leaf: ad.embedding_lookup(leaf(6, 3), [4, 0, 4]),
    "scatter_sum": lambda leaf: ad.scatter_sum(leaf(2, 4), [1, 0, 1, 3], 5),
    "additive_scores": lambda leaf: ad.additive_scores(leaf(5, 4), leaf(2, 4), leaf(4, 1)),
    "gold_log_probs": lambda leaf: ad.gold_log_probs(leaf(3, 4), leaf(3, 1), leaf(5, 3),
                                                     [1, 5, 1, 0, 4], [1, 5, 2]),
    "gru_sequence": lambda leaf: _gru(leaf, [2, 2]),
    "gru_sequence_packed": lambda leaf: _gru(leaf, [1, 3]),
    "bigru_sequence": lambda leaf: ad.bigru_sequence(
        leaf(4, 3), leaf(2, 5),
        *([leaf(*shape) for _ in range(3) for shape in ((3, 5), (5, 5), (1, 5))] for _ in "fb"),
        [1, 3]),
    "sum": lambda leaf: leaf(3, 4).sum(),
    "mean": lambda leaf: leaf(3, 4).mean(),
}


class TestVjpAdjoints:
    """The sweep keeps every dense adjoint as its input's `.grad` and later
    adds into it in place; so a vjp returns, for each input, a row-sparse
    adjoint or a dense array no other input receives: g, a view of it, or
    an array of its own."""

    @pytest.mark.parametrize("case", list(RECORDING_OPS))
    def test_dense_adjoints_are_views_of_g_or_arrays_of_their_own(self, case):
        rng = np.random.default_rng(17)

        def leaf(*shape):
            return ad.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)

        with ad.tape() as t:
            RECORDING_OPS[case](leaf)
            records = list(t._records)
        assert records
        for out, inputs, vjp in records:
            g = rng.uniform(-1.0, 1.0, out.data.shape).astype(out.data.dtype)
            grads = vjp(g)
            assert len(grads) == len(inputs)
            dense = [(tensor, grad) for tensor, grad in zip(inputs, grads)
                     if not isinstance(grad, ad._RowGrad)]
            for k, (tensor, grad) in enumerate(dense):
                assert grad.shape == tensor.data.shape
                others = ([t.data for t in inputs] + [out.data]
                          + [other for j, (_, other) in enumerate(dense) if j != k])
                assert not any(np.shares_memory(grad, other) for other in others), \
                    f"adjoint {k} of {case} shares memory"


class TestDeterminism:
    def test_same_seed_same_forward_and_grads(self):
        def run():
            rng = np.random.default_rng(11)
            w = ad.Tensor(rng.uniform(-0.1, 0.1, (4, 4)), requires_grad=True)
            x = ad.Tensor(rng.uniform(-1, 1, (1, 4)))
            with ad.tape() as t:
                loss = ad.softmax(ad.matmul(ad.tanh(ad.matmul(x, w)), w), axis=1).sum()
                t.backward(loss)
            return loss.item(), w.grad.copy()

        loss_a, grad_a = run()
        loss_b, grad_b = run()
        assert loss_a == loss_b  # bit-identical, not merely close
        assert np.array_equal(grad_a, grad_b)


class TestAdam:
    def test_first_step_moves_by_about_lr(self):
        # bias-corrected first step: -lr * 1/(1 + eps), about -0.1 at lr 0.1
        p = ad.Tensor([[1.0]], requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.1)
        p.grad = np.ones((1, 1), dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [[0.9]], atol=1e-6)
        assert opt.step_count == 1

    def test_zero_gradient_leaves_parameter_unchanged(self):
        p = ad.Tensor([[1.5]], requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.1)
        p.grad = np.zeros((1, 1), dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [[1.5]])

    def test_missing_gradient_names_parameter(self):
        p = ad.Tensor([[1.0]], requires_grad=True)
        opt = ad.Adam({"weird_name": p}, lr=0.1)
        with pytest.raises(ValueError, match="weird_name"):
            opt.step()

    def test_failed_step_changes_nothing(self):
        a = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        b = ad.Tensor([[3.0]], requires_grad=True)
        opt = ad.Adam({"a": a, "b": b}, lr=0.1)
        a.grad, b.grad = np.ones((1, 2), np.float32), np.ones((1, 1), np.float32)
        opt.step()
        before = [(x.data.copy(), opt._m[name].copy(), opt._v[name].copy())
                  for name, x in (("a", a), ("b", b))]
        a.grad, b.grad = np.full((1, 2), 5.0, np.float32), None
        with pytest.raises(ValueError, match="'b'"):
            opt.step()
        assert opt.step_count == 1
        for (data, m, v), (name, x) in zip(before, (("a", a), ("b", b))):
            assert np.array_equal(x.data, data), name
            assert np.array_equal(opt._m[name], m), name
            assert np.array_equal(opt._v[name], v), name

    def test_zero_grad_resets_buffers(self):
        p = ad.Tensor([[1.0]], requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.1)
        p.grad = np.ones((1, 1), dtype=np.float32)
        opt.zero_grad()
        assert p.grad is None

    def test_descends_convex_quadratic(self):
        # minimize (p - 3)^2; loss after 300 steps far below start
        target = 3.0
        p = ad.Tensor([[0.0]], requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.05)
        losses = []
        for _ in range(300):
            with ad.tape() as t:
                diff = p - target
                loss = (diff * diff).sum()
                t.backward(loss)
            losses.append(loss.item())
            opt.step()
            opt.zero_grad()
        assert losses[-1] < 1e-3 < losses[0]

    def test_lr_change_takes_effect(self):
        p = ad.Tensor([[1.0]], requires_grad=True)
        opt = ad.Adam({"p": p}, lr=0.0)
        p.grad = np.ones((1, 1), dtype=np.float32)
        opt.step()
        np.testing.assert_allclose(p.data, [[1.0]])  # lr 0: frozen
        opt.lr = 0.1
        p.grad = np.ones((1, 1), dtype=np.float32)
        opt.step()
        assert p.data[0, 0] < 1.0


    def test_step_is_bitwise_the_textbook_formula(self):
        rng = np.random.default_rng(8)
        # "long" and "slab" span chunk boundaries; the last chunk is partial.
        # The small ones, "fortran" among them, share three arena windows.
        shapes = {"w": (3, 4), "b": (1, 4), "v": (7,), "cube": (2, 3, 2), "s": (1, 1),
                  "long": (2 * ad.Adam.CHUNK + 17,), "slab": (3, 5, ad.Adam.CHUNK // 15 + 1),
                  "fortran": (5, 3), "edge": (ad.Adam.CHUNK - 1,),
                  **{f"odd{k}": (2 + k % 4, 97 + 13 * k, 3 + k % 5)[k % 3:] for k in range(36)}}
        params = {name: ad.Tensor(rng.normal(size=shape), requires_grad=True)
                  for name, shape in shapes.items()}
        params["fortran"].data = np.asfortranarray(params["fortran"].data)   # no flat view
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        assert (ad.Adam.BETA1, ad.Adam.BETA2, ad.Adam.EPS) == (b1, b2, eps)
        opt = ad.Adam(params, lr=lr)
        assert len(opt._windows) >= 3 and len(opt._small) == len(shapes) - 2
        data = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        v = {name: np.zeros(shape, np.float32) for name, shape in shapes.items()}
        for t in range(1, 4):
            grads = {name: rng.normal(size=shape).astype(np.float32)
                     for name, shape in shapes.items()}
            for name, p in params.items():
                p.grad = grads[name].copy()
            opt.step()
            for name, g in grads.items():
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * (g * g)
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                data[name] = data[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
                assert np.array_equal(params[name].data, data[name]), (name, t)
                assert np.array_equal(opt._m[name], m[name]), (name, t)
                assert np.array_equal(opt._v[name], v[name]), (name, t)

    def test_two_thread_step_equals_the_serial_one_bitwise(self, monkeypatch):
        """Odd sizes, a large non-C-contiguous parameter, and small ones whose
        arena windows fall on both sides of the cut between the threads'
        halves."""
        rng = np.random.default_rng(9)
        shapes = {"odd": (3, 7), "long": (3 * ad.Adam.CHUNK + 5,), "s": (1, 1),
                  "fortran": (ad.Adam.CHUNK // 100 + 3, 301),
                  **{f"small{k}": (97 + k, 113) for k in range(40)}}
        arena_windows_per_side, update = [], ad.Adam._update

        def spy_update(self, chunks, scratch):
            arena = self._windows[0][3].base
            arena_windows_per_side.append(sum(chunk[3].base is arena for chunk in chunks))
            update(self, chunks, scratch)

        monkeypatch.setattr(ad.Adam, "_update", spy_update)

        def run(split_min):
            monkeypatch.setattr(ad, "_PASS_SPLIT_MIN", split_min)
            params = {name: ad.Tensor(np.random.default_rng(1).normal(size=shape),
                                      requires_grad=True) for name, shape in shapes.items()}
            params["fortran"].data = np.asfortranarray(params["fortran"].data)
            opt = ad.Adam(params, lr=0.01)
            for grads in steps:
                for name, p in params.items():
                    p.grad = grads[name].copy()
                opt.step()
            return opt

        steps = [{name: rng.normal(size=shape).astype(np.float32)
                  for name, shape in shapes.items()} for _ in range(3)]
        calls, on_two_threads = [], ad.on_two_threads

        def spy(first, second, one_blas_thread=False):
            calls.append(one_blas_thread)
            return on_two_threads(first, second, one_blas_thread)

        monkeypatch.setattr(ad, "on_two_threads", spy)
        serial = run(ad._PASS_SPLIT_MIN)
        assert calls == []
        arena_windows_per_side.clear()
        split = run(1)
        assert calls == [False] * 3
        assert len(arena_windows_per_side) == 6 and min(arena_windows_per_side) > 0
        assert ad._by_halves(lambda part, side: (part, side), list(range(8)), [3] * 8) == (
            ([0, 1, 2, 3], 0), ([4, 5, 6, 7], 1))
        for name in shapes:
            assert split.params[name].data.tobytes() == serial.params[name].data.tobytes(), name
            assert split._m[name].tobytes() == serial._m[name].tobytes(), name
            assert split._v[name].tobytes() == serial._v[name].tobytes(), name

    @pytest.mark.parametrize("filled_by", ["load_into", "rebinding .data"])
    def test_a_checkpoint_loaded_after_adam_is_built_steps_like_one_loaded_before(
            self, tmp_path, filled_by):
        def model(seed):
            return GeneratorModel(40, 3, embed_dim=8, hidden_dim=12, seed=seed)

        path = tmp_path / "g.bin"
        checkpoint.save_tensors(path, model(5).parameters())
        early, late = model(1), model(2)
        checkpoint.load_into(early.parameters(), path)
        optimizers = [ad.Adam(early.parameters(), lr=0.01), ad.Adam(late.parameters(), lr=0.01)]
        if filled_by == "load_into":
            checkpoint.load_into(late.parameters(), path)
        else:
            for name, p in late.parameters().items():
                p.data = early.parameters()[name].data.copy(order="F")
        rng = np.random.default_rng(11)
        for _ in range(3):
            grads = {name: rng.normal(size=p.shape).astype(np.float32)
                     for name, p in early.parameters().items()}
            for opt in optimizers:
                for name, p in opt.params.items():
                    p.grad = grads[name].copy()
                opt.step()
        (first, second) = optimizers
        for name, p in first.params.items():
            assert p.data.tobytes() == second.params[name].data.tobytes(), name
            assert first._m[name].tobytes() == second._m[name].tobytes(), name
            assert first._v[name].tobytes() == second._v[name].tobytes(), name


class TestFit:
    def test_history_row_carries_the_gradient_norm(self):
        p = ad.Tensor([[3.0, 4.0]], requires_grad=True)

        def losses(index):
            return {"loss": (p * p).sum()}

        history = ad.fit({"p": p}, 1, losses, lambda: ({}, None), label=str, epochs=1,
                         lr=lambda epoch: 1e-3, seed=0)
        assert history[0]["grad_norm"] == 10.0           # |2p| = |(6, 8)|
        assert list(history[0]) == ["epoch", "lr", "train_loss", "grad_norm", "wall_seconds"]

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_stops_before_the_step(self, monkeypatch, bad):
        """The loss is finite; a record's vjp returns a non-finite adjoint."""
        p = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        q = ad.Tensor([[0.5]], requires_grad=True)

        def losses(index):
            poisoned = ad._push(np.zeros((1, 1), np.float32), (p,),
                                lambda g: (np.array([[0.0, bad]], np.float32),))
            return {"loss": poisoned + (q * q).sum()}

        monkeypatch.setattr(ad.Adam, "step", lambda self: pytest.fail("Adam stepped"))
        with pytest.raises(ValueError, match=f"epoch 1: non-finite gradient norm {bad} "
                                             "on example 0"):
            ad.fit({"p": p, "q": q}, 1, losses, lambda: ({}, None),
                   label=lambda index: f"example {index}", epochs=2,
                   lr=lambda epoch: 0.1, seed=0)
        assert p.data.tolist() == [[1.0, 2.0]] and q.data.tolist() == [[0.5]]

    def test_empty_training_set_raises_and_changes_nothing(self, monkeypatch):
        p = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        monkeypatch.setattr(ad, "Adam", lambda *args, **kwargs: pytest.fail("Adam built"))
        with pytest.raises(ValueError, match="^empty training set$"):
            ad.fit({"p": p}, 0, lambda index: pytest.fail("loss taken"),
                   lambda: pytest.fail("validated"), label=str, epochs=1,
                   lr=lambda epoch: 0.1, seed=0)
        assert p.data.tolist() == [[1.0, 2.0]] and p.grad is None

    @staticmethod
    def fit_on_gradient(gradient):
        """One `fit` step of a parameter whose gradient is `gradient`."""
        p = ad.Tensor(np.zeros(gradient.shape, np.float32), requires_grad=True)

        def losses(index):
            return {"loss": ad._push(np.zeros((1, 1), np.float32), (p,), lambda g: (gradient,))}

        return p, lambda: ad.fit({"p": p}, 1, losses, lambda: ({}, None), label=str,
                                 epochs=1, lr=lambda epoch: 1e-3, seed=0)

    def test_gradient_norm_sums_in_float64(self):
        # float32 squares of 1e19 sum past float32's range; the norm is 1e20
        _, run = self.fit_on_gradient(np.full((1, 100), 1e19, np.float32))
        assert run()[0]["grad_norm"] == pytest.approx(1e20, rel=1e-6)
        # over many pieces and a partial last one, as accurate as a float64 sum
        gradient = np.random.default_rng(0).standard_normal(
            (2, ad.Adam.CHUNK + 11)).astype(np.float32)
        _, run = self.fit_on_gradient(gradient)
        assert run()[0]["grad_norm"] == pytest.approx(
            np.linalg.norm(gradient.astype(np.float64)), rel=1e-12)

    @pytest.mark.parametrize("split_min", [1 << 62, 1])
    def test_gradient_norm_is_the_piecewise_float64_sum_bitwise(self, monkeypatch, split_min):
        """On one thread or two: one float64 dot product per 8K-element
        piece of each array, added in order."""
        monkeypatch.setattr(ad, "_PASS_SPLIT_MIN", split_min)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            # sizes on and off the piece and chunk edges, scales far apart
            arrays = [rng.standard_normal(size).astype(np.float32) * np.float32(10 ** scale)
                      for size, scale in zip([5, 2 * ad.Adam.CHUNK + 8195, 1, ad.Adam.CHUNK + 1]
                                             + rng.integers(1, 3 * ad.Adam.CHUNK, 16).tolist(),
                                             rng.uniform(-3, 3, 20))]
            arrays.append(rng.standard_normal((301, 203)).astype(np.float32).T)   # not C-ordered
            total = 0.0
            for array in arrays:
                flat = array.reshape(-1)
                for start in range(0, flat.size, 1 << 13):
                    piece = flat[start:start + (1 << 13)].astype(np.float64)
                    total += float(np.dot(piece, piece))
            assert ad._global_norm(arrays) == np.sqrt(total), seed

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entry_in_a_later_chunk_stops_before_the_step(self, bad):
        gradient = np.ones(2 * ad.Adam.CHUNK + 7, np.float32)
        gradient[2 * ad.Adam.CHUNK + 3] = bad
        p, run = self.fit_on_gradient(gradient)
        with pytest.raises(ValueError, match=f"non-finite gradient norm {bad} on 0"):
            run()
        assert not p.data.any()


class TestRandomizedProperties:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            logits = ad.Tensor(rng.normal(0, 5, size=(1, n)))
            total = ad.softmax(logits, axis=1).data.sum()
            assert abs(total - 1.0) <= 1e-6

    def test_mul_add_grads_random_shapes(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            rows_n = int(rng.integers(1, 4))
            cols = int(rng.integers(1, 5))
            with ad.using_dtype(np.float64):
                x = ad.Tensor(rng.uniform(-1, 1, (rows_n, cols)), requires_grad=True)
                y = ad.Tensor(rng.uniform(-1, 1, (rows_n, cols)), requires_grad=True)
                weights = ad.Tensor(rng.uniform(-1, 1, (rows_n, cols)))

                def loss():
                    return ((x + y) * ad.tanh(x * y) * weights).sum()

                check_gradients(loss, {"x": x, "y": y})
