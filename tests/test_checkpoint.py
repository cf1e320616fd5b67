"""Binary tensor archive round trips and validation errors."""

import numpy as np
import pytest

import topicsum.autodiff as ad
from topicsum.checkpoint import MAGIC, load_into, load_tensors, save_tensors


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


class TestLoadInto:
    def make_params(self):
        return {
            "w": ad.Tensor(np.zeros((2, 3)), requires_grad=True),
            "b": ad.Tensor(np.zeros((1, 3)), requires_grad=True),
        }

    def test_fills_in_place(self, tmp_path):
        source = self.make_params()
        source["w"].data[...] = 7.0
        source["b"].data[...] = -2.0
        path = tmp_path / "model.bin"
        save_tensors(path, source)
        target = self.make_params()
        load_into(target, path)
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
