"""Image codec, ground-truth decoding, dataset discovery, checkpoints,
and config parsing."""

import errno
import hashlib
import math
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

import mvfcn
from mvfcn import EngineRng, build_mvfcn, io
from mvfcn.errors import CheckpointError, ConfigError, DataError
from mvfcn.io import (
    _CONFIG_KEYS,
    MAGIC,
    VERSION,
    CheckpointPayload,
    GtMapping,
    TrainConfig,
    apply_state,
    checksum64,
    discover_dataset,
    load_checkpoint,
    load_gt,
    load_image,
    load_scoremap,
    make_parent,
    parse_config,
    save_checkpoint,
    save_image,
    save_scoremap,
    snapshot_state,
    validate_payload,
)
from mvfcn.train import AdamState

from conftest import write_raw_scoremap


class TestImageCodec:
    def test_handwritten_ppm_fixture(self, tmp_path):
        # 2x2 P6: pixels (r,g,b) = (255,0,0),(0,255,0),(0,0,255),(255,255,255)
        raw = b"P6\n2 2\n255\n" + bytes(
            [255, 0, 0, 0, 255, 0, 0, 0, 255, 255, 255, 255])
        path = tmp_path / "f.ppm"
        path.write_bytes(raw)
        tensor = load_image(path)
        assert tensor.shape == (1, 3, 2, 2)
        assert tensor[0, 0, 0, 0] == 1.0 and tensor[0, 1, 0, 0] == 0.0
        assert tensor[0, 1, 0, 1] == 1.0
        assert tensor[0, 2, 1, 0] == 1.0
        assert (tensor[0, :, 1, 1] == 1.0).all()

    def test_comment_in_header(self, tmp_path):
        raw = b"P5\n# a comment\n2 1\n255\n" + bytes([0, 128])
        path = tmp_path / "c.pgm"
        path.write_bytes(raw)
        tensor = load_image(path)
        assert tensor.shape == (1, 1, 1, 2)
        assert tensor[0, 0, 0, 1] == pytest.approx(128 / 255)

    def test_round_trip_lossless(self, tmp_path):
        r = np.random.default_rng(0)
        image = (r.integers(0, 256, size=(3, 7, 9)) / 255.0).astype(np.float32)
        save_image(image, tmp_path / "x.ppm")
        back = load_image(tmp_path / "x.ppm")[0]
        assert np.array_equal(back, image.astype(np.float32))

    def test_mask_round_trip_value_set(self, tmp_path):
        mask = (np.random.default_rng(1).uniform(size=(6, 6)) > 0.5).astype(np.uint8)
        save_image(mask, tmp_path / "m.pgm")
        back = load_image(tmp_path / "m.pgm")[0, 0]
        assert set(np.unique(back)) <= {0.0, 1.0}
        assert np.array_equal(back, mask)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "deep.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(DataError, match="bit depth"):
            load_image(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(DataError, match="truncated"):
            load_image(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n1 1\n255\n0")
        message = f"^{re.escape(str(path))}: not a binary PGM/PPM file$"
        with pytest.raises(DataError, match=message):
            load_image(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_image(tmp_path / "absent.pgm")

    @pytest.mark.parametrize("header", [
        b"P5# comment\n2 1\n255\n",
        b"P5\r\n2\r\n1\r\n255\n",
        b"P5\t2\t1\t255\t",
        b"P52 1 255\n",  # no separator after the magic: the width is 2
    ], ids=["comment_after_magic", "crlf", "tabs", "number_after_magic"])
    def test_header_forms_accepted(self, tmp_path, header):
        path = tmp_path / "h.pgm"
        path.write_bytes(header + bytes([0, 128]))
        tensor = load_image(path)
        assert tensor.shape == (1, 1, 1, 2)
        assert np.rint(tensor[0, 0, 0] * 255).tolist() == [0, 128]

    @pytest.mark.parametrize("raw, message", [
        (b"P5 2#c 1 255\n\x00\x80", "malformed header"),
        (b"P5 2 1 # no newline", "malformed header"),
        (b"P", "not a binary PGM/PPM file"),
    ], ids=["number_then_comment", "comment_to_eof", "short_magic"])
    def test_header_forms_refused_naming_the_file(self, tmp_path, raw, message):
        path = tmp_path / "h.pgm"
        path.write_bytes(raw)
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {message}"):
            load_image(path)

    @pytest.mark.parametrize("mask", [
        np.eye(5, 6, dtype=bool),
        np.eye(5, 6, dtype=np.uint8),
        np.eye(5, 6, dtype=np.uint8) * 255,
        np.eye(5, 6, dtype=np.int16) - np.tri(5, 6, -1, dtype=np.int16) * 300,
    ], ids=["bool", "uint8", "uint8_255", "int16_negative"])
    def test_integer_masks_write_the_bytes_of_their_float_copy(self, tmp_path, mask):
        save_image(mask, tmp_path / "int.pgm")
        save_image(mask.astype(np.float64), tmp_path / "float.pgm")
        assert (tmp_path / "int.pgm").read_bytes() == (tmp_path / "float.pgm").read_bytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, value):
        image = np.full((4, 5), 0.5)
        image[2, 3] = value
        with pytest.raises(DataError, match="m.pgm: cannot encode a non-finite value"):
            save_image(image, tmp_path / "m.pgm")
        assert not (tmp_path / "m.pgm").exists()

    def test_two_channel_array_rejected(self, tmp_path):
        with pytest.raises(DataError, match=r"cannot encode array of shape \(2, 4, 4\)"):
            save_image(np.zeros((2, 4, 4)), tmp_path / "m.pgm")
        assert not (tmp_path / "m.pgm").exists()

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0), (3, 0, 5), (1, 1, 4, 0)])
    def test_empty_array_rejected(self, tmp_path, shape):
        with pytest.raises(DataError, match="m.pgm: cannot encode an empty image"):
            save_image(np.zeros(shape), tmp_path / "m.pgm")
        assert not (tmp_path / "m.pgm").exists()


class TestGroundTruth:
    def _write(self, tmp_path, values):
        values = np.asarray(values, np.uint8)
        h, w = values.shape
        path = tmp_path / "gt.pgm"
        path.write_bytes(b"P5\n" + f"{w} {h}\n255\n".encode() + values.tobytes())
        return path

    def test_binary_frame(self, tmp_path):
        path = self._write(tmp_path, [[0, 255], [255, 0]])
        mask, roi = load_gt(path)
        assert np.array_equal(mask, [[0, 1], [1, 0]])
        assert roi.all()

    def test_outside_roi_label(self, tmp_path):
        path = self._write(tmp_path, [[0, 170], [85, 255]])
        mask, roi = load_gt(path)
        assert np.array_equal(roi, [[1, 0], [0, 1]])
        assert mask[1, 1] == 1

    def test_shadow_is_background(self, tmp_path):
        path = self._write(tmp_path, [[50, 255]])
        mask, roi = load_gt(path)
        assert mask[0, 0] == 0 and roi[0, 0] == 1

    def test_unmapped_value_strict(self, tmp_path):
        path = self._write(tmp_path, [[17]])
        with pytest.raises(DataError, match="17"):
            load_gt(path)

    def test_unmapped_value_lenient(self, tmp_path):
        path = self._write(tmp_path, [[17, 255]])
        mask, roi = load_gt(path, GtMapping(strict=False))
        assert mask[0, 1] == 1 and mask[0, 0] == 0

    def test_color_gt_rejected(self, tmp_path):
        path = tmp_path / "rgb.pgm"
        path.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(DataError, match="grayscale"):
            load_gt(path)


class TestDiscovery:
    def _tree(self, tmp_path, indices, gt_indices=None):
        root = tmp_path / "seq"
        (root / "input").mkdir(parents=True)
        (root / "groundtruth").mkdir()
        pixel = b"P5\n1 1\n255\n\x00"
        for i in indices:
            (root / "input" / f"in{i:06d}.ppm").write_bytes(
                b"P6\n1 1\n255\n\x00\x00\x00")
        for i in (gt_indices if gt_indices is not None else indices):
            (root / "groundtruth" / f"gt{i:06d}.pgm").write_bytes(pixel)
        return root

    def test_aligned_tree(self, tmp_path):
        root = self._tree(tmp_path, range(1, 11))
        manifest = discover_dataset(root)
        assert len(manifest.frames) == 10
        assert [f.index for f in manifest.frames] == list(range(1, 11))
        assert manifest.name == "seq"

    def test_missing_gt_strict(self, tmp_path):
        root = self._tree(tmp_path, range(1, 11), gt_indices=[i for i in range(1, 11) if i != 7])
        with pytest.raises(DataError, match="no ground truth"):
            discover_dataset(root)

    def test_gap_in_numbering_strict(self, tmp_path):
        root = self._tree(tmp_path, [1, 2, 4])
        with pytest.raises(DataError, match="gaps"):
            discover_dataset(root)

    def test_empty_directory_rejected(self, tmp_path):
        root = tmp_path / "seq"
        (root / "input").mkdir(parents=True)
        (root / "groundtruth").mkdir()
        with pytest.raises(DataError):
            discover_dataset(root)

    def test_roi_detected(self, tmp_path):
        root = self._tree(tmp_path, [1, 2])
        (root / "ROI.pgm").write_bytes(b"P5\n1 1\n255\n\xff")
        assert discover_dataset(root).roi_path is not None

    def test_deterministic_order(self, tmp_path):
        root = self._tree(tmp_path, [3, 1, 2])
        manifest = discover_dataset(root)
        assert [f.index for f in manifest.frames] == [1, 2, 3]

    def test_file_without_digits_is_skipped(self, tmp_path):
        root = self._tree(tmp_path, [1, 2, 3])
        (root / "input" / "background.pgm").write_bytes(b"P5\n1 1\n255\n\x00")
        manifest = discover_dataset(root)
        assert [f.index for f in manifest.frames] == [1, 2, 3]


def _fresh_graph(seed=0):
    graph = build_mvfcn()
    graph.initialize_parameters(EngineRng(seed))
    return graph


def _ramp(shape, offset):
    """Fixed float32 values from arithmetic alone, no rng draw."""
    n = int(np.prod(shape))
    return ((np.arange(n) % 251) / 251.0 + offset).reshape(shape).astype(np.float32)


def _optimizer_payload():
    """A graph and its full snapshot: parameters, batch-norm statistics, rng
    words, and an Adam step with both moments for every parameter."""
    graph = _fresh_graph()
    adam = AdamState(lr=1e-3, t=4)
    for lid, name, arr in graph.parameter_items():
        adam.m[(lid, name)] = np.zeros_like(arr)
        adam.v[(lid, name)] = np.ones_like(arr)
    return graph, snapshot_state(graph, EngineRng(0), adam)


# sha256 of the file test_saved_bytes_pinned writes (5,934,940 bytes)
PINNED_SHA256 = "66f7c18538adc9c770cae3a14db3b9a2b3bfe945f5fafbe10b05d6bfe88190f5"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        graph = _fresh_graph()
        rng = EngineRng(5)
        rng.uniform(size=100)  # advance the stream
        payload = snapshot_state(graph, rng)
        path_a = tmp_path / "a.ckpt"
        path_b = tmp_path / "b.ckpt"
        save_checkpoint(path_a, payload)
        loaded = load_checkpoint(path_a, graph)
        save_checkpoint(path_b, loaded)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_rng_position_round_trip(self, tmp_path):
        graph = _fresh_graph()
        rng = EngineRng(9)
        rng.uniform(size=17)
        payload = snapshot_state(graph, rng)
        expected = rng.uniform(size=8)
        save_checkpoint(tmp_path / "c.ckpt", payload)
        loaded = load_checkpoint(tmp_path / "c.ckpt", graph)
        restored = EngineRng(0)
        restored.set_state_words(loaded.entries[(0, 6)])
        assert np.array_equal(restored.uniform(size=8), expected)

    def test_apply_restores_forward_outputs(self, tmp_path):
        from mvfcn import forward
        graph_a = _fresh_graph(1)
        x = np.random.default_rng(2).uniform(size=(1, 3, 32, 32)).astype(np.float32)
        forward(graph_a, x, mode="train", rng=EngineRng(3))  # init BN stats
        score_a, _ = forward(graph_a, x, mode="infer")
        save_checkpoint(tmp_path / "m.ckpt", snapshot_state(graph_a, EngineRng(0)))
        graph_b = _fresh_graph(99)
        apply_state(graph_b, load_checkpoint(tmp_path / "m.ckpt", graph_b))
        score_b, _ = forward(graph_b, x, mode="infer")
        assert np.array_equal(score_a, score_b)

    def test_corrupt_payload_byte_detected(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, snapshot_state(_fresh_graph(), EngineRng(0)))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_entry_size_past_int64_is_truncated(self, tmp_path):
        # 2^31 * 2^31 * 4 elements: the count is 2^64, which wraps to 0 in int64
        body = (MAGIC + struct.pack("<IQI", VERSION, 0, 1)
                + struct.pack("<HBB3I", 30, 0, 3, 2**31, 2**31, 4))
        path = tmp_path / "big.ckpt"
        path.write_bytes(body + struct.pack("<Q", checksum64(body)))
        with pytest.raises(CheckpointError, match="truncated entry payload"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version, count, entries, message", [
        (VERSION + 1, 0, b"", f"unknown format version {VERSION + 1}"),
        (VERSION, 1, b"", "truncated entry table"),
        (VERSION, 1, struct.pack("<HBB2I", 30, 0, 3, 2, 2), "truncated entry dims"),
        (VERSION, 0, b"\0\0\0", "3 stray bytes after entries"),
    ], ids=["version", "entry_table", "entry_dims", "stray_bytes"])
    def test_bad_framing_rejected(self, tmp_path, version, count, entries, message):
        # a hand-built body under a valid checksum reaches the framing checks
        body = MAGIC + struct.pack("<IQI", version, 0, count) + entries
        path = tmp_path / "framing.ckpt"
        path.write_bytes(body + struct.pack("<Q", checksum64(body)))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, name", [((30, 0), "weight"), ((29, 5), "running_var")])
    def test_missing_tensor_names_layer(self, key, name):
        graph = _fresh_graph()
        payload = snapshot_state(graph, EngineRng(0))
        del payload.entries[key]
        with pytest.raises(CheckpointError, match=f"missing {name} for layer {key[0]}$"):
            validate_payload(graph, payload)

    @pytest.mark.parametrize("words", [9, 11])
    def test_rng_entry_of_wrong_size_rejected(self, words):
        graph = _fresh_graph()
        payload = snapshot_state(graph, EngineRng(0))
        payload.entries[(0, 6)] = np.zeros(words, "<u4")
        with pytest.raises(CheckpointError, match="rng entry must hold 10 words"):
            validate_payload(graph, payload)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "y.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_fingerprint_mismatch(self, tmp_path):
        from conftest import tiny_graph
        path = tmp_path / "z.ckpt"
        save_checkpoint(path, snapshot_state(_fresh_graph(), EngineRng(0)))
        other = tiny_graph()
        other.initialize_parameters(EngineRng(0))
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, other)

    def test_widened_head_layer_changes_fingerprint(self, tmp_path):
        from dataclasses import replace
        from mvfcn.graph import ModelGraph
        path = tmp_path / "w.ckpt"
        save_checkpoint(path, snapshot_state(_fresh_graph(), EngineRng(0)))
        donor = build_mvfcn()
        widened = ModelGraph(
            [replace(l, out_channels=150) if l.id == 30 else l for l in donor.layers],
            in_channels=3, input_divisor=16)
        widened.initialize_parameters(EngineRng(0))
        with pytest.raises(CheckpointError, match="fingerprint"):
            load_checkpoint(path, widened)

    def test_loaded_payload_names_its_file(self, tmp_path):
        from conftest import tiny_graph
        path = tmp_path / "named.ckpt"
        payload = snapshot_state(_fresh_graph(), EngineRng(0))
        save_checkpoint(path, payload)
        loaded = load_checkpoint(path)
        assert loaded.source == str(path)
        assert loaded == CheckpointPayload(loaded.fingerprint, loaded.entries)  # source is not compared
        other = tiny_graph()
        other.initialize_parameters(EngineRng(0))
        with pytest.raises(CheckpointError, match=f"^{re.escape(str(path))}: architecture"):
            apply_state(other, loaded)

    def test_reshaped_tensor_names_layer(self):
        graph = _fresh_graph()
        payload = snapshot_state(graph, EngineRng(0))
        payload.entries[(30, 0)] = payload.entries[(30, 0)].reshape(128, 112, 9)
        with pytest.raises(CheckpointError, match="layer 30"):
            validate_payload(graph, payload)

    def test_optimizer_state_round_trip(self, tmp_path):
        graph = _fresh_graph()
        adam = AdamState(lr=1e-3)
        adam.t = 11
        for lid, name, arr in graph.parameter_items():
            adam.m[(lid, name)] = np.full_like(arr, 0.25)
            adam.v[(lid, name)] = np.full_like(arr, 0.5)
        payload = snapshot_state(graph, EngineRng(0), adam)
        save_checkpoint(tmp_path / "o.ckpt", payload)
        loaded = load_checkpoint(tmp_path / "o.ckpt", graph)
        fresh = AdamState(lr=1e-3)
        apply_state(graph, loaded, adam=fresh)
        assert fresh.t == 11
        assert all(np.array_equal(v, 0.25 * np.ones_like(v)) for v in fresh.m.values())

    def test_fingerprint_pinned(self):
        # every version-1 file on disk carries this value
        assert io.fingerprint(build_mvfcn()) == 0x6a18ab48e7e1e7c7

    def test_saved_bytes_pinned(self, tmp_path):
        """Every role of the version-1 layout, from fixed values: a change to
        the entry order, dims, dtypes, header or checksum changes the hash."""
        graph = build_mvfcn()
        graph.allocate_parameters()
        adam = AdamState(lr=1e-3, t=3)
        for i, (lid, name, arr) in enumerate(graph.parameter_items()):
            arr[...] = _ramp(arr.shape, i)
            adam.m[(lid, name)] = _ramp(arr.shape, -i)
            adam.v[(lid, name)] = _ramp(arr.shape, 0.5 * i)
        state = graph.bn_states[29]
        state.running_mean[...] = _ramp(state.running_mean.shape, 0.25)
        state.running_var[...] = _ramp(state.running_var.shape, 2.0)
        rng = EngineRng(5)
        rng.uniform(size=3)
        path = tmp_path / "pinned.ckpt"
        save_checkpoint(path, snapshot_state(graph, rng, adam))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256

    @pytest.mark.parametrize("key, name", [
        ((2, 8), "weight adam m"),
        ((29, 15), "beta adam v"),
        ((0, 7), "adam step"),
    ])
    def test_misshaped_optimizer_entry_names_layer(self, key, name):
        graph, payload = _optimizer_payload()
        payload.entries[key] = np.zeros(3, np.float32)
        with pytest.raises(CheckpointError, match=rf"layer {key[0]} {name} shaped \(3,\)"):
            validate_payload(graph, payload)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key, name", [
        ((30, 0), "weight"),
        ((29, 5), "running_var"),
        ((32, 12), "weight adam v"),
        ((0, 7), "adam step"),
    ])
    def test_non_finite_entry_names_layer(self, key, name, value):
        graph, payload = _optimizer_payload()
        payload.entries[key].flat[-1] = value
        match = f"layer {key[0]} {name} holds a non-finite value"
        with pytest.raises(CheckpointError, match=match):
            validate_payload(graph, payload)
        with pytest.raises(CheckpointError, match=match):
            apply_state(graph, payload, adam=AdamState(lr=1e-3))

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300])
    @pytest.mark.parametrize("key, name", [
        ((30, 0), "weight"),
        ((29, 5), "running_var"),
        ((32, 12), "weight adam v"),
        ((0, 7), "adam step"),
    ])
    def test_save_refuses_a_non_finite_entry(self, tmp_path, key, name, value):
        # as stored: 1e300 in a float64 array is inf in the file's float32
        _, payload = _optimizer_payload()
        entry = payload.entries[key] = payload.entries[key].astype(np.float64)
        entry.flat[-1] = value
        path = tmp_path / "bad.ckpt"
        with pytest.raises(CheckpointError,
                           match=f"bad.ckpt: layer {key[0]} {name} holds a non-finite value"):
            save_checkpoint(path, payload)
        assert not path.exists()


class TestScoremapSidecar:
    def test_exact_round_trip(self, tmp_path):
        score = np.random.default_rng(0).uniform(size=(24, 32)).astype(np.float32)
        save_scoremap(score, tmp_path / "s.f32")
        assert np.array_equal(load_scoremap(tmp_path / "s.f32"), score)

    def test_truncated_rejected(self, tmp_path):
        save_scoremap(np.zeros((4, 4), np.float32), tmp_path / "t.f32")
        data = (tmp_path / "t.f32").read_bytes()
        (tmp_path / "t.f32").write_bytes(data[:-5])
        with pytest.raises(DataError):
            load_scoremap(tmp_path / "t.f32")

    def test_trailing_bytes_rejected(self, tmp_path):
        save_scoremap(np.zeros((4, 4), np.float32), tmp_path / "t.f32")
        with open(tmp_path / "t.f32", "ab") as fh:
            fh.write(b"junk")
        with pytest.raises(DataError, match="4x4 score map takes 76"):
            load_scoremap(tmp_path / "t.f32")

    def test_missing_file_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_scoremap(tmp_path / "absent.f32")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_names_file(self, tmp_path, value):
        score = np.full((4, 4), 0.5, np.float32)
        score[1, 2] = value
        write_raw_scoremap(tmp_path / "s.f32", score)
        with pytest.raises(DataError, match="s.f32: score map holds a non-finite value"):
            load_scoremap(tmp_path / "s.f32")
        with pytest.raises(DataError, match="t.f32: cannot write a non-finite score"):
            save_scoremap(score, tmp_path / "t.f32")
        assert not (tmp_path / "t.f32").exists()

    def test_three_dimensional_score_map_rejected(self, tmp_path):
        with pytest.raises(DataError, match="score map must be 2-d"):
            save_scoremap(np.zeros((1, 4, 4), np.float32), tmp_path / "t.f32")
        assert not (tmp_path / "t.f32").exists()

    @pytest.mark.parametrize("h,w", [(0, 5), (5, 0), (0, 0)])
    def test_empty_score_map_names_file(self, tmp_path, h, w):
        path = tmp_path / "s.f32"
        path.write_bytes(b"MVSC" + np.array([h, w], "<u4").tobytes())
        with pytest.raises(DataError, match=f"s.f32: empty score map {h}x{w}"):
            load_scoremap(path)
        with pytest.raises(DataError, match=f"t.f32: cannot write an empty score map {h}x{w}"):
            save_scoremap(np.zeros((h, w), np.float32), tmp_path / "t.f32")
        assert not (tmp_path / "t.f32").exists()


def _payload():
    graph = build_mvfcn()
    graph.initialize_parameters(EngineRng(0))
    return snapshot_state(graph)


# output file name -> (writer, the error class a write failure raises)
WRITERS = {
    "img.pgm": (lambda path: save_image(np.zeros((4, 4)), path), DataError),
    "s.f32": (lambda path: save_scoremap(np.zeros((4, 4), np.float32), path), DataError),
    "m.ckpt": (lambda path: save_checkpoint(path, _payload()), CheckpointError),
}


class TestWriteBoundary:
    @pytest.mark.parametrize("name", WRITERS)
    def test_missing_parent_directories_created(self, tmp_path, name):
        path = tmp_path / "a" / "b" / name
        WRITERS[name][0](path)
        assert path.is_file()

    @pytest.mark.parametrize("name", WRITERS)
    def test_write_under_a_file_raises_its_class(self, tmp_path, name):
        write, error = WRITERS[name]
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        with pytest.raises(error, match="cannot write"):
            write(blocker / name)

    @pytest.mark.parametrize("step", ["write", "replace"])
    @pytest.mark.parametrize("name", WRITERS)
    def test_a_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, name, step):
        write, error = WRITERS[name]
        path = tmp_path / name
        path.write_bytes(b"previous")

        def half_write(self, data):  # stops part way, as on a full disk
            with open(self, "wb") as f:
                f.write(data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        def no_replace(src, dst):
            raise OSError(errno.EIO, "Input/output error")

        if step == "write":
            monkeypatch.setattr(Path, "write_bytes", half_write)
        else:
            monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(error, match=f"cannot write {re.escape(str(path))}"):
            write(path)
        assert path.read_bytes() == b"previous"
        assert list(tmp_path.iterdir()) == [path]  # no temp file left

    def test_a_write_replaces_the_file_and_leaves_no_temp(self, tmp_path):
        path = tmp_path / "report.txt"
        for data in (b"first, and longer", b"second"):
            io.write_file(path, data)
            assert path.read_bytes() == data
            assert list(tmp_path.iterdir()) == [path]

    def test_a_write_through_a_symlink_replaces_its_target(self, tmp_path):
        target, link = tmp_path / "real.txt", tmp_path / "link.txt"
        target.write_bytes(b"previous")
        link.symlink_to(target)
        io.write_file(link, b"new")
        assert link.is_symlink() and target.read_bytes() == b"new"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "real.txt"]

    def test_a_special_file_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            io.write_file(fifo, b"through")
            assert os.read(reader, 64) == b"through"
        finally:
            os.close(reader)
        assert fifo.is_fifo() and list(tmp_path.iterdir()) == [fifo]

    def test_make_parent_creates_the_directory_only(self, tmp_path):
        path = tmp_path / "a" / "b" / "m.ckpt"
        assert make_parent(path) == path
        assert path.parent.is_dir() and not path.exists()

    @pytest.mark.parametrize("error", [DataError, CheckpointError])
    def test_make_parent_under_a_file_raises_its_class(self, tmp_path, error):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        with pytest.raises(error, match="cannot write"):
            make_parent(blocker / "m.ckpt", error)

    @staticmethod
    def _lines_outside_io(pattern):
        """module:line of each line matching ``pattern`` in a package module
        other than io."""
        package = Path(mvfcn.__file__).parent
        return [f"{module.name}:{lineno}"
                for module in sorted(package.glob("*.py")) if module.name != "io.py"
                for lineno, line in enumerate(module.read_text().splitlines(), start=1)
                if re.search(pattern, line)]

    def test_only_io_touches_the_file_system(self):
        # every read and write goes through io, which maps file-system failures
        # onto the documented error classes
        call = r"\b(read_bytes|read_text|write_bytes|write_text|mkdir)\b|\bopen\("
        assert self._lines_outside_io(call) == []

    def test_only_io_knows_the_checkpoint_encoding(self):
        # the binary layouts, the checksum and the fingerprint it hashes live in io
        encoding = r"^\s*(import|from)\s+(struct|zlib)\b|\bchecksum64\b"
        assert self._lines_outside_io(encoding) == []


# every accepted config key: (key, file value, field path, parsed value);
# each value differs from the key's default
CONFIG_ROUTES = [
    ("seed", "3", "seed", 3),
    ("input_height", "64", "input_height", 64),
    ("input_width", "96", "input_width", 96),
    ("base_lr", "0.001", "base_lr", 0.001),
    ("lr_decay_factor", "0.5", "lr_decay_factor", 0.5),
    ("lr_decay_every", "0", "lr_decay_every", 0),
    ("batch_size", "2", "batch_size", 2),
    ("max_epochs", "3", "max_epochs", 3),
    ("dropout_rate", "0", "dropout_rate", 0.0),
    ("augment", "false", "augment", False),
    ("max_rotation_deg", "5", "max_rotation_deg", 5.0),
    ("shift_fraction", "0.2", "shift_fraction", 0.2),
    ("zoom_fraction", "0.3", "zoom_fraction", 0.3),
    ("adam_beta1", "0.8", "adam_beta1", 0.8),
    ("adam_beta2", "0.99", "adam_beta2", 0.99),
    ("adam_eps", "1e-6", "adam_eps", 1e-6),
    ("bn_momentum", "0.9", "bn_momentum", 0.9),
    ("split_ratio", "0.5", "split_ratio", 0.5),
    ("gt_foreground", "200,255", "gt.foreground", (200, 255)),
    ("gt_background", "0", "gt.background", (0,)),
    ("gt_exclude", "", "gt.exclude", ()),
    ("gt_strict", "false", "gt.strict", False),
]

# (owner, field, out-of-range value); fields are named as their file keys
OUT_OF_RANGE = [
    (TrainConfig, "seed", -1),
    (TrainConfig, "base_lr", 0.0),
    (TrainConfig, "base_lr", math.inf),
    (TrainConfig, "lr_decay_factor", 1.0),
    (TrainConfig, "lr_decay_every", -1),
    (TrainConfig, "batch_size", 0),
    (TrainConfig, "max_epochs", 0),
    (TrainConfig, "dropout_rate", 1.0),
    (TrainConfig, "adam_beta1", 2.0),
    (TrainConfig, "adam_beta2", 0.0),
    (TrainConfig, "adam_eps", 0.0),
    (TrainConfig, "adam_eps", math.inf),
    (TrainConfig, "bn_momentum", 1.0),
    (TrainConfig, "split_ratio", 1.5),
    (TrainConfig, "max_rotation_deg", 180.0),
    (TrainConfig, "shift_fraction", -0.1),
    (TrainConfig, "zoom_fraction", 1.0),
    (TrainConfig, "input_height", 0),
    (TrainConfig, "input_width", 100),
]


def _field(obj, path):
    for name in path.split("."):
        obj = getattr(obj, name)
    return obj


class TestConfig:
    def test_defaults_from_empty_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# nothing but a comment\n")
        cfg = parse_config(path)
        assert cfg.base_lr == 2e-4
        assert cfg.batch_size == 8
        assert cfg.max_epochs == 30
        assert cfg.dropout_rate == 0.3
        assert cfg == TrainConfig()
        assert cfg.gt == GtMapping()

    def test_full_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "seed = 11\n"
            "input_height = 64\n"
            "input_width = 64\n"
            "base_lr = 0.001\n"
            "split_ratio = 0.6\n"
            "gt_background = 0,50\n"
            "augment = false\n"
        )
        cfg = parse_config(path)
        assert cfg.seed == 11
        assert (cfg.input_height, cfg.input_width) == (64, 64)
        assert cfg.split_ratio == 0.6
        assert cfg.augment is False

    # the other keys once parsed but changed nothing (normalize_inputs changed
    # training inputs but not infer's, which are always in [0, 1]); binarize
    # takes --method/--min-area/--connectivity instead of the last three
    @pytest.mark.parametrize("key", ["learning_rate", "eval_resolution", "deterministic",
                                     "normalize_inputs", "threshold", "min_area",
                                     "connectivity"])
    def test_unknown_key_rejected(self, tmp_path, key):
        path = tmp_path / "c.cfg"
        path.write_text(f"{key} = 0.1\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config(path)

    @pytest.mark.parametrize("key, text, path, value", CONFIG_ROUTES,
                             ids=[route[0] for route in CONFIG_ROUTES])
    def test_key_lands_in_its_owner_field(self, tmp_path, key, text, path, value):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(f"{key} = {text}\n")
        assert _field(TrainConfig(), path) != value
        assert _field(parse_config(cfg_path), path) == value

    def test_routes_cover_every_key(self):
        assert {route[0] for route in CONFIG_ROUTES} == set(_CONFIG_KEYS)

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Config file", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines()
                if line.startswith("| `")]
        documented = {key for row in rows for key in re.findall(r"`(\w+)`", row)}
        assert documented == set(_CONFIG_KEYS)

    @pytest.mark.parametrize("owner, name, value", OUT_OF_RANGE,
                             ids=[f"{name}={value}" for _, name, value in OUT_OF_RANGE])
    def test_out_of_range_rejected_by_file_and_constructor(self, tmp_path, owner,
                                                           name, value):
        with pytest.raises(ConfigError) as direct:
            owner(**{name: value})
        path = tmp_path / "c.cfg"
        path.write_text(f"{name} = {value}\n")
        with pytest.raises(ConfigError) as from_file:
            parse_config(path)
        assert str(from_file.value) == f"{path}: {direct.value}"

    # a label an 8-bit frame cannot hold, or one claimed by two classes
    @pytest.mark.parametrize("text, kwargs", [
        ("gt_foreground = 999,255\ngt_exclude = 255\n",
         {"foreground": (999, 255), "exclude": (255,)}),
        ("gt_background = -1\n", {"background": (-1,)}),
        ("gt_foreground = 256\n", {"foreground": (256,)}),
        ("gt_exclude = 255\n", {"exclude": (255,)}),
        ("gt_background = 0,50,85\n", {"background": (0, 50, 85)}),
        ("gt_foreground = 50\n", {"foreground": (50,)}),
    ], ids=["999_and_255_excluded", "negative", "256", "fg_excluded",
            "bg_excluded", "fg_is_bg"])
    def test_gt_mapping_rejected_by_file_and_constructor(self, tmp_path, text, kwargs):
        with pytest.raises(ConfigError) as direct:
            GtMapping(**kwargs)
        path = tmp_path / "c.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as from_file:
            parse_config(path)
        assert str(from_file.value) == f"{path}: {direct.value}"

    def test_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("lr_decay_factor = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_indivisible_input_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("input_height = 100\n")
        with pytest.raises(ConfigError, match="divisible by 16"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(path)

    def test_bad_threshold_string(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("threshold = sometimes\n")
        with pytest.raises(ConfigError):
            parse_config(path)
