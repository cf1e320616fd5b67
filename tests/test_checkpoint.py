"""Binary tensor archive round trips and validation errors."""

import os
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import topicsum.autodiff as ad
from topicsum import checkpoint
from topicsum.checkpoint import MAGIC, load_into, load_tensors, save_tensors, tensor_shapes
from topicsum.detector import DetectorModel, MeanEmbeddingEncoder
from topicsum.generator import GeneratorModel
from topicsum.synthetic import toy_summarization_corpus


class TestRoundTrip:
    def test_arrays_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        tensors = {
            "embed": rng.normal(size=(7, 3)).astype(np.float32),
            "bias": rng.normal(size=(1, 4)).astype(np.float32),
            "deep.nested.name": rng.normal(size=(2, 2, 2)).astype(np.float32),
        }
        path = tmp_path / "model.bin"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert set(loaded) == set(tensors)
        for name, arr in tensors.items():
            assert loaded[name].dtype == np.float32
            assert np.array_equal(loaded[name], arr)

    def test_autodiff_tensors_accepted(self, tmp_path):
        param = ad.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        path = tmp_path / "model.bin"
        save_tensors(path, {"p": param})
        assert np.array_equal(load_tensors(path)["p"], param.data)

    def test_float64_input_is_stored_as_float32(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"x": np.array([[1.0]], dtype=np.float64)})
        assert load_tensors(path)["x"].dtype == np.float32

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_tensors(path, {})
        assert load_tensors(path) == {}
        assert path.read_bytes() == MAGIC

    def test_loaded_arrays_are_writable(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"x": np.zeros((2, 2), dtype=np.float32)})
        arr = load_tensors(path)["x"]
        arr[0, 0] = 5.0  # must not raise
        assert arr[0, 0] == 5.0

    def test_unicode_names(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"поток.weights": np.ones((1, 1), dtype=np.float32)})
        assert "поток.weights" in load_tensors(path)

    def test_failed_save_keeps_the_old_archive(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"x": np.arange(6, dtype=np.float32).reshape(2, 3)})
        before = path.read_bytes()
        # the first tensor is written before the second fails to convert
        with pytest.raises(ValueError):
            save_tensors(path, {"y": np.ones((50, 50), dtype=np.float32),
                                "bad": "not a number"})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]

    def test_bytes_follow_the_documented_layout(self, tmp_path):
        matrix = np.arange(6, dtype=np.float32).reshape(2, 3) - 2.5
        column = np.asfortranarray(np.arange(4, dtype=np.float64).reshape(2, 2))
        path = tmp_path / "model.bin"
        save_tensors(path, {"m": matrix, "empty": np.zeros((0, 3), np.float32),
                            "scalar": np.float32(1.5), "fortran": column})
        expected = (MAGIC
                    + struct.pack("<I", 1) + b"m" + struct.pack("<3I", 2, 2, 3)
                    + struct.pack("<6f", *matrix.ravel())
                    + struct.pack("<I", 5) + b"empty" + struct.pack("<3I", 2, 0, 3)
                    + struct.pack("<I", 6) + b"scalar" + struct.pack("<I", 0)
                    + struct.pack("<f", 1.5)
                    + struct.pack("<I", 7) + b"fortran" + struct.pack("<3I", 2, 2, 2)
                    + struct.pack("<4f", 0.0, 1.0, 2.0, 3.0))
        assert path.read_bytes() == expected
        loaded = load_tensors(path)
        assert loaded["empty"].shape == (0, 3) and loaded["scalar"].shape == ()
        assert np.array_equal(loaded["fortran"], column)

    @pytest.mark.parametrize("name", ["tab\there", "nul\x00"])
    def test_unprintable_name_refused(self, tmp_path, name):
        with pytest.raises(ValueError, match="not printable"):
            save_tensors(tmp_path / "model.bin", {name: np.zeros(1)})


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 20)
        with pytest.raises(ValueError, match="magic"):
            load_tensors(path)

    def test_truncated_archive_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"x": np.ones((4, 4), dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_tensors(path)

    def test_duplicate_names_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"x": np.ones((1, 1), dtype=np.float32)})
        blob = path.read_bytes()
        path.write_bytes(blob + blob[len(MAGIC):])
        with pytest.raises(ValueError, match="duplicate"):
            load_tensors(path)

    def test_non_utf8_name_names_path_and_offset(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"x": np.ones((1, 1), dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC) + 4] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"{path}: tensor name at byte {len(MAGIC) + 4} "):
            load_tensors(path)


class TestCorruptArchiveSweep:
    """Every truncation, and every header byte set to 0x00, 0xFF or flipped
    in its top bit, of a three-tensor archive."""

    rng = np.random.default_rng(5)
    TENSORS = {"enc.W": rng.normal(size=(2, 3)).astype(np.float32),
               "bias": rng.normal(size=(4,)).astype(np.float32),
               "scale": np.float32(rng.normal())}

    @pytest.fixture(scope="class")
    def blob(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("sweep") / "model.bin"
        save_tensors(path, self.TENSORS)
        return path.read_bytes()

    def layout(self):
        """Byte ranges of each tensor's header and the offsets where a
        tensor ends, from the documented layout."""
        headers, ends, offset = [range(len(MAGIC))], [len(MAGIC)], len(MAGIC)
        for name, value in self.TENSORS.items():
            arr = np.asarray(value)
            header = 4 + len(name.encode()) + 4 + 4 * arr.ndim
            headers.append(range(offset, offset + header))
            offset += header + 4 * arr.size
            ends.append(offset)
        return [i for r in headers for i in r], ends

    def cases(self, blob):
        header_bytes, _ = self.layout()
        yield from ((f"cut at {n}", blob[:n]) for n in range(len(blob)))
        for i in header_bytes:
            for value in sorted({0x00, 0xFF, blob[i] ^ 0x80} - {blob[i]}):
                corrupt = bytearray(blob)
                corrupt[i] = value
                yield f"byte {i} = {value:#04x}", bytes(corrupt)

    def test_every_reader_refuses_and_changes_nothing(self, blob, tmp_path):
        _, ends = self.layout()
        path = tmp_path / "corrupt.bin"
        n_cases = 0
        for label, corrupt in self.cases(blob):
            n_cases += 1
            path.write_bytes(corrupt)
            params = {name: ad.Tensor(np.full(np.shape(v), 9.0, np.float32),
                                      requires_grad=True)
                      for name, v in self.TENSORS.items()}
            with pytest.raises(ValueError, match=str(path)):
                load_into(params, path)
            assert all(np.all(p.data == 9.0) for p in params.values()), label
            if label.startswith("cut") and len(corrupt) in ends:
                # a cut between tensors leaves a shorter archive that the
                # format cannot tell from a whole one; only `load_into`,
                # which knows the names to expect, refuses it
                kept = ends.index(len(corrupt))
                assert list(load_tensors(path)) == list(self.TENSORS)[:kept], label
                assert list(tensor_shapes(path)) == list(self.TENSORS)[:kept], label
                continue
            for reader in (load_tensors, tensor_shapes):
                with pytest.raises(ValueError, match=str(path)):
                    reader(path)
        assert n_cases > len(blob) + 2 * len(self.layout()[0])

    def test_tensor_shapes_equal_the_loaded_shapes(self, blob, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(blob)
        assert tensor_shapes(path) == {n: a.shape for n, a in load_tensors(path).items()}
        assert tensor_shapes(path) == {"enc.W": (2, 3), "bias": (4,), "scale": ()}


def _gru_layout(prefix, input_dim, hidden):
    return [(f"{prefix}.{kind}_{gate}", shape) for gate in "zrh"
            for kind, shape in (("W", (input_dim, hidden)), ("U", (hidden, hidden)),
                                ("b", (1, hidden)))]


class TestModelLayout:
    """Checkpoints name every tensor, so these names and shapes are the file
    format; files list them in constructor order and load by name."""

    def test_generator_names_and_shapes(self):
        model = GeneratorModel(vocab_size=11, n_topics=3, embed_dim=5, hidden_dim=4)
        assert [(name, p.data.shape) for name, p in model.parameters().items()] == [
            ("embed", (11, 5)),
            *_gru_layout("enc_fwd", 5, 4),
            *_gru_layout("enc_bwd", 5, 4),
            ("enc_token_W", (8, 4)), ("enc_token_b", (1, 4)),
            ("enc_topic_W", (8, 4)), ("enc_topic_b", (1, 4)),
            *_gru_layout("pred_cell", 4, 4),
            ("topic_W", (4, 3)), ("topic_b", (1, 3)), ("stop_W", (4, 1)), ("stop_b", (1, 1)),
            ("attn_token_W", (4, 4)), ("attn_state_W", (4, 4)), ("attn_b", (1, 4)),
            ("attn_v", (4, 1)),
            *_gru_layout("dec_cell", 5, 4),
            ("out_hidden_W", (8, 4)), ("out_hidden_b", (1, 4)),
            ("out_vocab_W", (4, 11)), ("out_vocab_b", (1, 11)),
            ("gate_context_W", (4, 1)), ("gate_state_W", (4, 1)), ("gate_input_W", (5, 1)),
            ("gate_b", (1, 1)),
        ]

    def test_detector_names_and_shapes(self):
        rng = np.random.default_rng(0)
        model = DetectorModel(MeanEmbeddingEncoder(11, 5, 6, rng), 4, rng)
        assert [(name, p.data.shape) for name, p in model.parameters().items()] == [
            ("encoder.embed", (11, 5)), ("encoder.proj_W", (5, 6)), ("encoder.proj_b", (1, 6)),
            ("cls_W", (6, 4)), ("cls_b", (1, 4)),
        ]

    def test_committed_golden_checkpoint_loads(self):
        """Written before parameters were listed in constructor order; the
        load checks every name and shape."""
        path = Path(__file__).resolve().parent / "data" / "golden_generator.ckpt"
        corpus = toy_summarization_corpus(20, seed=0)
        model = GeneratorModel(len(corpus.vocab), len(corpus.schema.topics),
                               embed_dim=16, hidden_dim=32)
        load_into(model.parameters(), path)
        assert list(load_tensors(path)) != list(model.parameters())

    def test_gru_parameters_come_in_gru_sequence_order(self):
        cell = GeneratorModel(vocab_size=11, n_topics=2, embed_dim=5, hidden_dim=4).enc_fwd
        rng = np.random.default_rng(1)
        xs, h0 = ad.Tensor(rng.normal(size=(6, 5))), ad.Tensor(rng.normal(size=(1, 4)))
        # `GRUCell.sequence` passes `parameters()` in their order
        named = [cell.W_z, cell.U_z, cell.b_z, cell.W_r, cell.U_r, cell.b_r,
                 cell.W_h, cell.U_h, cell.b_h]
        assert np.array_equal(ad.gru_sequence(xs, h0, named, [6]).data,
                              cell.sequence(xs, h0, [6]).data)


class TestLoadInto:
    def make_params(self):
        return {
            "w": ad.Tensor(np.zeros((2, 3)), requires_grad=True),
            "b": ad.Tensor(np.zeros((1, 3)), requires_grad=True),
        }

    def test_fills_in_place(self, tmp_path):
        """float32 buffers are read into directly, float64 ones through a
        temporary; both keep their arrays."""
        source = self.make_params()
        source["w"].data[...] = 7.0
        source["b"].data[...] = -2.0
        path = tmp_path / "model.bin"
        save_tensors(path, source)
        for dtype in (np.float32, np.float64):
            with ad.using_dtype(dtype):
                target = self.make_params()
            buffers = {name: p.data for name, p in target.items()}
            load_into(target, path)
            assert all(target[name].data is buffers[name] for name in target)
            np.testing.assert_allclose(target["w"].data, 7.0)
            np.testing.assert_allclose(target["b"].data, -2.0)

    def test_unknown_name_in_archive(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"w": np.zeros((2, 3)), "b": np.zeros((1, 3)),
                            "extra": np.zeros((1, 1))})
        with pytest.raises(ValueError, match="extra"):
            load_into(self.make_params(), path)

    def test_missing_name_in_archive(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"w": np.zeros((2, 3))})
        with pytest.raises(ValueError, match="missing.*b"):
            load_into(self.make_params(), path)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        path = tmp_path / "model.bin"
        save_tensors(path, {"w": np.zeros((3, 2)), "b": np.zeros((1, 3))})
        with pytest.raises(ValueError, match="'w'"):
            load_into(self.make_params(), path)

    @pytest.mark.parametrize("holder", [object(), SimpleNamespace(data=[[0.0, 0.0, 0.0]])],
                             ids=["no_data", "list_data"])
    def test_parameter_without_array_data_refused(self, tmp_path, holder):
        path = tmp_path / "model.bin"
        save_tensors(path, {"w": np.ones((2, 3)), "b": np.ones((1, 3))})
        params = {**self.make_params(), "b": holder}
        with pytest.raises(ValueError, match="^parameter 'b' has no array data to fill$"):
            load_into(params, path)
        assert np.all(params["w"].data == 0.0)

    @pytest.mark.parametrize("reader", ["load_tensors", "load_into"])
    def test_archive_cut_after_its_headers_were_read(self, tmp_path, monkeypatch, reader):
        """A file cut between the header walk and the value reads is refused;
        `load_into` has loaded the tensor before the cut and part-filled the
        one it cuts."""
        params = self.make_params()
        read = load_tensors if reader == "load_tensors" else (lambda path: load_into(params, path))
        path = tmp_path / "model.bin"
        save_tensors(path, {"w": np.ones((2, 3)), "b": np.ones((1, 3))})
        walk, offsets = checkpoint._walk, []

        def walk_then_cut(handle, where):
            entries = walk(handle, where)
            offsets.append(entries[-1].offset)
            os.truncate(path, path.stat().st_size - 4)
            return entries

        monkeypatch.setattr(checkpoint, "_walk", walk_then_cut)
        with pytest.raises(ValueError) as refused:
            read(path)
        assert str(refused.value) == f"{path}: truncated archive at byte {offsets[0]}"
        if reader == "load_into":
            assert np.array_equal(params["w"].data, np.ones((2, 3)))
            assert np.array_equal(params["b"].data, [[1.0, 1.0, 0.0]])

    @pytest.mark.parametrize("archive", [
        {"w": np.ones((2, 3)), "b": np.ones((3, 1))},            # second shape wrong
        {"w": np.ones((2, 3)), "b": np.ones((1, 3)), "x": np.ones(1)},  # unknown name
        {"w": np.ones((2, 3))},                                   # missing name
    ], ids=["shape", "unknown", "missing"])
    def test_error_leaves_every_parameter_unchanged(self, tmp_path, archive):
        path = tmp_path / "model.bin"
        save_tensors(path, archive)
        params = self.make_params()
        with pytest.raises(ValueError):
            load_into(params, path)
        assert all(np.all(p.data == 0.0) for p in params.values())


class TestLoadIntoPendingParameters:
    """With every seeded draw deferred (`ad._DEFER_MIN` at 0), loading a
    fresh model draws no weight, and a refused load leaves each pending
    parameter pending, to be drawn with its seeded values when read."""

    @pytest.fixture
    def draws(self, monkeypatch):
        monkeypatch.setattr(ad, "_DEFER_MIN", 0)
        sizes, fill = [], ad._fill_uniform

        def spy(rng, flat):
            sizes.append(flat.size)
            fill(rng, flat)

        monkeypatch.setattr(ad, "_fill_uniform", spy)
        return sizes

    @staticmethod
    def model(seed):
        return GeneratorModel(40, 3, embed_dim=8, hidden_dim=12, seed=seed)

    def test_loading_a_fresh_model_draws_nothing(self, tmp_path, draws):
        path = tmp_path / "g.bin"
        save_tensors(path, self.model(5).parameters())
        draws.clear()
        params = self.model(1).parameters()
        assert sum(type(p) is ad._Pending for p in params.values()) == 37   # all but biases
        load_into(params, path)
        assert draws == []
        assert all(type(p) is ad.Tensor for p in params.values())
        saved = load_tensors(path)
        assert all(p.data.tobytes() == saved[name].tobytes() for name, p in params.items())

    def test_a_file_cut_while_read_leaves_the_tensor_it_cuts_pending(self, tmp_path,
                                                                     monkeypatch, draws):
        saved = {name: p.data for name, p in self.model(5).parameters().items()}
        saved["embed"] = saved.pop("embed")   # the archive's last tensor, pending in `params`
        path = tmp_path / "g.bin"
        save_tensors(path, saved)
        walk = checkpoint._walk

        def walk_then_cut(handle, where):
            entries = walk(handle, where)
            os.truncate(path, path.stat().st_size - 4)
            return entries

        monkeypatch.setattr(checkpoint, "_walk", walk_then_cut)
        draws.clear()
        params = self.model(1).parameters()
        with pytest.raises(ValueError, match="truncated archive"):
            load_into(params, path)
        assert draws == []
        assert [name for name, p in params.items() if type(p) is ad._Pending] == ["embed"]
        assert all(p.data.tobytes() == saved[name].tobytes()
                   for name, p in params.items() if name != "embed")
        monkeypatch.setattr(ad, "_DEFER_MIN", 1 << 62)
        assert params["embed"].data.tobytes() == self.model(1).embed.data.tobytes()

    @pytest.mark.parametrize("damage", ["last_shape", "unknown_name"])
    def test_refused_load_leaves_pending_parameters_pending(self, tmp_path, monkeypatch,
                                                            draws, damage):
        archive = {name: np.zeros(ad.buffer(p).shape, np.float32)
                   for name, p in self.model(5).parameters().items()}
        last = list(archive)[-1]
        if damage == "last_shape":
            archive[last] = np.zeros((2, *archive[last].shape[1:]), np.float32)
        else:
            archive["extra"] = np.zeros(1, np.float32)
        path = tmp_path / "bad.bin"
        save_tensors(path, archive)
        params = self.model(1).parameters()
        pending = {name for name, p in params.items() if type(p) is ad._Pending}
        with pytest.raises(ValueError, match=str(path)):
            load_into(params, path)
        assert draws == []
        assert {name for name, p in params.items() if type(p) is ad._Pending} == pending
        monkeypatch.setattr(ad, "_DEFER_MIN", 1 << 62)
        eager = self.model(1).parameters()
        assert not any(type(p) is ad._Pending for p in eager.values())
        assert all(p.data.tobytes() == eager[name].data.tobytes() for name, p in params.items())
