"""End-to-end command-line interface behavior and exit codes."""

import errno
import os

import numpy as np
import pytest

import mvfcn.cli
import mvfcn.io
from mvfcn import EngineRng, build_mvfcn
from mvfcn.cli import load_samples, main
from mvfcn.io import (GtMapping, discover_dataset, load_checkpoint, load_image,
                      save_checkpoint, save_image, snapshot_state)
from mvfcn.synth import make_rectangles_dataset, write_dataset_tree

TOTAL_LINE = "Total trainable parameters: 494337"


def run_cli(*argv):
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def only_error_line(capsys) -> str:
    """Stderr, which must hold one ``error:`` line and nothing else."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def _no_replace(src, dst):
    """An ``os.replace`` that fails, as a full or broken disk would."""
    raise OSError(errno.EIO, "Input/output error")


@pytest.fixture()
def blocker(tmp_path):
    """An existing regular file, standing where an output directory goes."""
    path = tmp_path / "blocker"
    path.write_bytes(b"")
    return path


@pytest.fixture(scope="module")
def dataset_tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "rects"
    write_dataset_tree(make_rectangles_dataset(6, (32, 32), seed=4), root)
    return root


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "train.cfg"
    path.write_text(
        "seed = 9\n"
        "input_height = 32\n"
        "input_width = 32\n"
        "base_lr = 0.001\n"
        "batch_size = 4\n"
        "max_epochs = 2\n"
        "lr_decay_every = 0\n"
        "bn_momentum = 0.9\n"
        "augment = false\n"
    )
    return path


@pytest.fixture(scope="module")
def other_rate_ckpt(tmp_path_factory):
    """A checkpoint of the network built with dropout rate 0.5, whose
    fingerprint differs from the default graph's."""
    graph = build_mvfcn(dropout_rate=0.5)
    graph.initialize_parameters(EngineRng(0))
    path = tmp_path_factory.mktemp("donor") / "rate05.ckpt"
    save_checkpoint(path, snapshot_state(graph))
    return path


@pytest.fixture(scope="module")
def trained_ckpt(tmp_path_factory, dataset_tree, config_file):
    out = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
    code = run_cli("train", "--data", dataset_tree, "--config", config_file,
                   "--out", out)
    assert code == 0
    return out


class TestSummary:
    def test_default_table(self, capsys):
        assert run_cli("summary") == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 34
        assert lines[-1] == TOTAL_LINE
        assert "(None, 240, 320, 16)" in lines[2]

    def test_double_resolution_same_total(self, capsys):
        assert run_cli("summary", "--input-size", "480x640") == 0
        out = capsys.readouterr().out
        assert TOTAL_LINE in out
        assert "(None, 480, 640, 16)" in out

    def test_indivisible_size_exits_2(self, capsys):
        assert run_cli("summary", "--input-size", "241x320") == 2

    @pytest.mark.parametrize("size", ["0x0", "0x320", "240x0"])
    def test_empty_size_exits_2(self, capsys, size):
        assert run_cli("summary", "--input-size", size) == 2
        assert capsys.readouterr().out == ""

    def test_garbage_size_exits_2(self):
        assert run_cli("summary", "--input-size", "large") == 2


class TestTrain:
    def test_writes_checkpoint_and_history(self, trained_ckpt):
        assert trained_ckpt.exists()
        history = trained_ckpt.with_name(trained_ckpt.name + ".history.txt")
        rows = history.read_text().strip().splitlines()
        assert rows[0].startswith("epoch\t")
        assert len(rows) == 1 + 2  # header + max_epochs rows

    def test_two_runs_byte_identical(self, tmp_path, dataset_tree, config_file):
        out_a = tmp_path / "a.ckpt"
        out_b = tmp_path / "b.ckpt"
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--out", out_a) == 0
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_transfer_init_accepted(self, tmp_path, dataset_tree, config_file,
                                    trained_ckpt):
        out = tmp_path / "ft.ckpt"
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--init", trained_ckpt, "--out", out) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
    def test_diverged_run_exits_4_and_writes_no_checkpoint(self, tmp_path, config_file,
                                                           capsys):
        # at 48x64 and this learning rate the losses are NaN from the first
        # epoch, and so are the weights of the best checkpoint
        data = tmp_path / "rects"
        write_dataset_tree(make_rectangles_dataset(8, (48, 64), seed=9), data)
        config = tmp_path / "diverge.cfg"
        config.write_text(config_file.read_text().replace("base_lr = 0.001", "base_lr = 1000")
                          .replace("input_height = 32\ninput_width = 32",
                                   "input_height = 48\ninput_width = 64"))
        out = tmp_path / "model.ckpt"
        assert run_cli("train", "--data", data, "--config", config, "--out", out) == 4
        assert "holds a non-finite value; nothing was written" in only_error_line(capsys)
        assert not out.exists()

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, dataset_tree,
                                                       config_file, trained_ckpt, capsys,
                                                       monkeypatch):
        out = tmp_path / "model.ckpt"
        out.write_bytes(trained_ckpt.read_bytes())

        monkeypatch.setattr(os, "replace", _no_replace)
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--out", out) == 4
        assert f"cannot write {out}" in only_error_line(capsys)
        assert out.read_bytes() == trained_ckpt.read_bytes()
        assert list(tmp_path.iterdir()) == [out]

    def test_out_of_memory_exits_1(self, tmp_path, dataset_tree, config_file, capsys,
                                   monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(mvfcn.cli, "train_loop", exhausted)
        out = tmp_path / "model.ckpt"
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--out", out) == 1
        assert only_error_line(capsys) == "error: out of memory\n"
        assert not out.exists()

    def test_mismatched_init_exits_4(self, tmp_path, dataset_tree, config_file):
        bogus = tmp_path / "bogus.ckpt"
        bogus.write_bytes(b"MVFC" + b"\x00" * 40)
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--init", bogus, "--out", tmp_path / "x.ckpt") == 4

    def test_mismatched_donor_named_in_error(self, tmp_path, dataset_tree, config_file,
                                             other_rate_ckpt, capsys):
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--init", other_rate_ckpt, "--out", tmp_path / "x.ckpt") == 4
        err = only_error_line(capsys)
        assert err.startswith(f"error: {other_rate_ckpt}: architecture fingerprint"), err

    def test_misshaped_adam_moment_init_exits_4(self, tmp_path, dataset_tree, config_file,
                                                trained_ckpt, capsys):
        payload = load_checkpoint(trained_ckpt)
        payload.entries[(0, 7)] = np.array([3.0], np.float32)   # adam step
        payload.entries[(2, 8)] = np.zeros(3, np.float32)        # layer 2 weight adam m
        init = tmp_path / "init.ckpt"
        save_checkpoint(init, payload)
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--init", init, "--out", tmp_path / "x.ckpt") == 4
        assert "layer 2 weight adam m shaped (3,)" in capsys.readouterr().err

    def test_sequence_roi_resized_to_frames(self, tmp_path, config_file):
        root = tmp_path / "rects"
        write_dataset_tree(make_rectangles_dataset(6, (32, 32), seed=4), root)
        roi = np.ones((16, 16))
        roi[:, :8] = 0
        save_image(roi, root / "ROI.pgm")
        samples = load_samples(discover_dataset(root), (32, 32), GtMapping())
        assert all(not s.roi[:, :16].any() and s.roi[:, 16:].any() for s in samples)
        assert run_cli("train", "--data", root, "--config", config_file,
                       "--out", tmp_path / "x.ckpt") == 0

    def test_bad_config_exits_2(self, tmp_path, dataset_tree):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        assert run_cli("train", "--data", dataset_tree, "--config", cfg,
                       "--out", tmp_path / "x.ckpt") == 2

    @pytest.mark.parametrize("line, match", [
        ("seed 9", "expected 'key = value'"),
        ("augment = maybe", "expected true/false"),
        ("gt_exclude = 1,x", "expected comma-separated integers"),
        ("seed = nine", "bad value for seed"),
    ], ids=["no_equals", "bool", "int_list", "int"])
    def test_unparsable_config_line_exits_2(self, tmp_path, dataset_tree, capsys, line, match):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"input_height = 32\n{line}\n")
        assert run_cli("train", "--data", dataset_tree, "--config", cfg,
                       "--out", tmp_path / "x.ckpt") == 2
        err = only_error_line(capsys)
        assert "bad.cfg:2:" in err and match in err

    def test_non_utf8_config_exits_2(self, tmp_path, dataset_tree, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"# caf\xe9\nseed = 9\n")
        assert run_cli("train", "--data", dataset_tree, "--config", cfg,
                       "--out", tmp_path / "x.ckpt") == 2
        assert "not UTF-8" in only_error_line(capsys)

    def test_out_under_a_file_exits_4(self, dataset_tree, config_file, blocker, capsys,
                                      monkeypatch):
        # an unwritable --out is refused before a frame is read or an epoch runs
        def never(*args, **kwargs):
            raise AssertionError("train read or trained before checking --out")

        monkeypatch.setattr(mvfcn.cli, "load_samples", never)
        monkeypatch.setattr(mvfcn.cli, "train_loop", never)
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--out", blocker / "model.ckpt") == 4
        assert "cannot write" in only_error_line(capsys)

    def test_out_on_a_directory_exits_4(self, tmp_path, dataset_tree, config_file, capsys,
                                        monkeypatch):
        # an --out that is a directory is refused before any epoch runs
        def never(*args, **kwargs):
            raise AssertionError("train ran before checking --out")

        monkeypatch.setattr(mvfcn.cli, "train_loop", never)
        out = tmp_path / "outdir"
        out.mkdir()
        assert run_cli("train", "--data", dataset_tree, "--config", config_file,
                       "--out", out) == 4
        assert f"cannot write {out}: it is a directory" in only_error_line(capsys)

    def test_bad_gt_mapping_exits_2(self, tmp_path, dataset_tree, config_file):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(config_file.read_text() + "gt_foreground = 999,255\ngt_exclude = 255\n")
        assert run_cli("train", "--data", dataset_tree, "--config", cfg,
                       "--out", tmp_path / "x.ckpt") == 2

    def test_missing_dataset_exits_3(self, tmp_path, config_file):
        assert run_cli("train", "--data", tmp_path / "absent", "--config",
                       config_file, "--out", tmp_path / "x.ckpt") == 3

    def test_ground_truth_without_input_frame_exits_3(self, tmp_path, config_file, capsys):
        root = write_dataset_tree(make_rectangles_dataset(2, (16, 16), seed=1), tmp_path / "d")
        save_image(np.zeros((16, 16), np.float32), root / "groundtruth" / "gt000007.pgm")
        assert run_cli("train", "--data", root, "--config", config_file,
                       "--out", tmp_path / "x.ckpt") == 3
        assert "ground-truth frames [7] have no input frame" in only_error_line(capsys)


class TestInfer:
    def test_writes_score_maps_at_network_size(self, tmp_path, trained_ckpt,
                                               dataset_tree):
        out_dir = tmp_path / "scores"
        frame = dataset_tree / "input" / "in000001.ppm"
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", frame,
                       "--out", out_dir, "--save-scores") == 0
        score = load_image(out_dir / "in000001.pgm")
        assert score.shape == (1, 1, 240, 320)
        assert (out_dir / "in000001.f32").exists()

    def test_deterministic_outputs(self, tmp_path, trained_ckpt, dataset_tree):
        frame = dataset_tree / "input" / "in000002.ppm"
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert run_cli("infer", "--ckpt", trained_ckpt, "--in", frame,
                           "--out", out) == 0
        assert (out_a / "in000002.pgm").read_bytes() == (out_b / "in000002.pgm").read_bytes()

    def test_loads_checkpoint_without_drawing_weights(self, tmp_path, monkeypatch,
                                                     trained_ckpt, dataset_tree):
        from mvfcn.graph import ModelGraph
        frame = dataset_tree / "input" / "in000003.ppm"
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", frame,
                       "--out", tmp_path / "a", "--save-scores") == 0

        def no_draws(self, rng, dtype=None):
            raise AssertionError("infer drew weights that the checkpoint overwrites")

        monkeypatch.setattr(ModelGraph, "initialize_parameters", no_draws)
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", frame,
                       "--out", tmp_path / "b", "--save-scores") == 0
        for name in ("in000003.pgm", "in000003.f32"):
            a, b = (tmp_path / side / name for side in "ab")
            assert a.read_bytes() == b.read_bytes()

    def test_validates_the_checkpoint_once(self, tmp_path, monkeypatch, trained_ckpt,
                                           dataset_tree):
        validate = mvfcn.io.validate_payload
        sources = []

        def counted(graph, payload, **kwargs):
            sources.append(payload.source)
            return validate(graph, payload, **kwargs)

        monkeypatch.setattr(mvfcn.io, "validate_payload", counted)
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in",
                       dataset_tree / "input" / "in000001.ppm", "--out", tmp_path / "o") == 0
        assert sources == [str(trained_ckpt)]

    def test_other_dropout_rate_exits_4_naming_the_file(self, tmp_path, other_rate_ckpt,
                                                        dataset_tree, capsys):
        # infer builds the default graph (rate 0.3), whose fingerprint differs
        assert run_cli("infer", "--ckpt", other_rate_ckpt, "--in",
                       dataset_tree / "input" / "in000001.ppm", "--out", tmp_path / "o") == 4
        err = only_error_line(capsys)
        assert err.startswith(f"error: {other_rate_ckpt}: architecture fingerprint"), err

    def test_resizes_any_input(self, tmp_path, trained_ckpt):
        from mvfcn.io import save_image
        big = np.random.default_rng(0).uniform(size=(3, 480, 640))
        frame = tmp_path / "big.ppm"
        save_image(big, frame)
        out_dir = tmp_path / "out"
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", frame,
                       "--out", out_dir) == 0
        assert load_image(out_dir / "big.pgm").shape == (1, 1, 240, 320)

    def test_unreadable_input_exits_3(self, tmp_path, trained_ckpt):
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in",
                       tmp_path / "nope.ppm", "--out", tmp_path / "o") == 3

    def test_zero_width_frame_exits_3(self, tmp_path, trained_ckpt, capsys):
        frame = tmp_path / "thin.pgm"
        frame.write_bytes(b"P5\n0 4\n255\n")
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", frame,
                       "--out", tmp_path / "o") == 3
        assert "thin.pgm: empty image 0x4" in only_error_line(capsys)

    def test_grayscale_frame_scores_as_three_equal_planes(self, tmp_path, trained_ckpt):
        from mvfcn.io import save_image
        gray = np.random.default_rng(5).uniform(size=(24, 32))
        save_image(gray, tmp_path / "gray.pgm")                # P5, one channel
        save_image(np.stack([gray] * 3), tmp_path / "rgb.ppm")  # P6
        out_dir = tmp_path / "out"
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", tmp_path / "gray.pgm",
                       tmp_path / "rgb.ppm", "--out", out_dir, "--save-scores") == 0
        assert (out_dir / "gray.f32").read_bytes() == (out_dir / "rgb.f32").read_bytes()

    def test_failed_write_keeps_the_previous_map(self, tmp_path, trained_ckpt, dataset_tree,
                                                 capsys, monkeypatch):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        previous = out_dir / "in000001.pgm"
        previous.write_bytes(b"previous")

        monkeypatch.setattr(os, "replace", _no_replace)
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in",
                       dataset_tree / "input" / "in000001.ppm", "--out", out_dir) == 3
        assert f"cannot write {previous}" in only_error_line(capsys)
        assert previous.read_bytes() == b"previous"
        assert list(out_dir.iterdir()) == [previous]

    def test_out_on_a_file_exits_3(self, trained_ckpt, dataset_tree, blocker, capsys,
                                   monkeypatch):
        # an unwritable --out is refused before the checkpoint is read
        def never(*args, **kwargs):
            raise AssertionError("infer loaded the checkpoint before checking --out")

        monkeypatch.setattr(mvfcn.cli, "load_checkpoint", never)
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in",
                       dataset_tree / "input" / "in000001.ppm", "--out", blocker) == 3
        assert "cannot write" in only_error_line(capsys)

    @pytest.mark.parametrize("taken", ["b.pgm", "b.f32"])
    def test_later_output_that_is_a_directory_exits_3_before_writing(
            self, tmp_path, trained_ckpt, dataset_tree, capsys, taken):
        # every output path is checked before the first frame is scored
        frames = []
        for name, src in (("a", "in000001"), ("b", "in000002")):
            frames.append(tmp_path / f"{name}.ppm")
            frames[-1].write_bytes((dataset_tree / "input" / f"{src}.ppm").read_bytes())
        out_dir = tmp_path / "out"
        (out_dir / taken).mkdir(parents=True)
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", *frames,
                       "--out", out_dir, "--save-scores") == 3
        assert f"cannot write {out_dir / taken}: it is a directory" in only_error_line(capsys)
        assert sorted(p.name for p in out_dir.iterdir()) == [taken]

    def test_inputs_sharing_a_stem_exit_3_before_writing(self, tmp_path, trained_ckpt,
                                                         dataset_tree, capsys):
        frame = dataset_tree / "input" / "in000001.ppm"
        other = tmp_path / "elsewhere" / "in000001.ppm"
        other.parent.mkdir()
        other.write_bytes(frame.read_bytes())
        out_dir = tmp_path / "o"
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in", frame, other,
                       "--out", out_dir, "--save-scores") == 3
        captured = capsys.readouterr()
        assert "'in000001'" in captured.err and captured.out == ""
        assert not out_dir.exists()

    def test_empty_input_list_exits_2(self, tmp_path, trained_ckpt):
        assert run_cli("infer", "--ckpt", trained_ckpt, "--in",
                       "--out", tmp_path / "o") == 2

    def test_non_finite_weight_exits_4(self, tmp_path, trained_ckpt, dataset_tree, capsys):
        # save_checkpoint refuses NaN, so patch a valid file: the sixth value
        # of layer 30's weight, then the checksum
        body = bytearray(trained_ckpt.read_bytes()[:-mvfcn.io._CHECKSUM.size])
        offset = mvfcn.io._FILE_HEADER.size
        for key, arr in sorted(load_checkpoint(trained_ckpt).entries.items()):
            offset += mvfcn.io._ENTRY_HEADER.size + 4 * arr.ndim
            if key == (30, 0):
                break
            offset += 4 * arr.size
        body[offset + 4 * 5:offset + 4 * 6] = np.float32(np.nan).tobytes()
        bad = tmp_path / "nan.ckpt"
        bad.write_bytes(body + mvfcn.io._CHECKSUM.pack(mvfcn.io.checksum64(bytes(body))))
        assert np.isnan(load_checkpoint(bad).entries[(30, 0)].flat[5])
        assert run_cli("infer", "--ckpt", bad, "--in", dataset_tree / "input" / "in000001.ppm",
                       "--out", tmp_path / "o") == 4
        assert "layer 30 weight holds a non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "o" / "in000001.pgm").exists()

    def test_corrupt_checkpoint_exits_4(self, tmp_path, dataset_tree):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK" * 8)
        assert run_cli("infer", "--ckpt", bad, "--in",
                       dataset_tree / "input" / "in000001.ppm",
                       "--out", tmp_path / "o") == 4


class TestBinarize:
    @pytest.fixture()
    def score_dir(self, tmp_path):
        from mvfcn.io import save_image, save_scoremap
        d = tmp_path / "scores"
        d.mkdir()
        score = np.full((20, 20), 0.2, dtype=np.float32)
        score[5:15, 5:15] = 0.6
        save_image(score, d / "in000001.pgm")
        save_scoremap(score, d / "in000001.f32")
        return d

    def test_global_threshold(self, tmp_path, score_dir):
        out = tmp_path / "masks"
        assert run_cli("binarize", "--scores", score_dir, "--method", "global:0.5",
                       "--min-area", 0, "--out", out) == 0
        mask = load_image(out / "in000001.pgm")[0, 0]
        assert mask[10, 10] == 1.0 and mask[0, 0] == 0.0

    def test_otsu_logs_threshold(self, tmp_path, score_dir, capsys):
        out = tmp_path / "masks"
        assert run_cli("binarize", "--scores", score_dir, "--method", "otsu",
                       "--out", out) == 0
        logged = capsys.readouterr().out
        assert "tau=" in logged
        tau = float(logged.split("tau=")[1].split()[0])
        assert 0.2 < tau <= 0.6

    def test_min_area_cleanup(self, tmp_path):
        from mvfcn.io import save_scoremap
        d = tmp_path / "s"
        d.mkdir()
        score = np.zeros((16, 16), dtype=np.float32)
        score[0, 0] = 1.0          # single-pixel speck
        score[4:12, 4:12] = 1.0    # 64-pixel block
        save_scoremap(score, d / "in000001.f32")
        out = tmp_path / "m"
        assert run_cli("binarize", "--scores", d, "--method", "global:0.5",
                       "--min-area", 50, "--out", out) == 0
        mask = load_image(out / "in000001.pgm")[0, 0]
        assert mask[0, 0] == 0.0 and mask[8, 8] == 1.0

    def test_duplicate_frame_index_exits_3(self, tmp_path, score_dir, capsys):
        from mvfcn.io import save_image
        # in000001.pgm is already there; b001.pgm claims the same frame 1
        save_image(np.zeros((20, 20), np.float32), score_dir / "b001.pgm")
        assert run_cli("binarize", "--scores", score_dir, "--method", "global:0.5",
                       "--out", tmp_path / "m") == 3
        assert "duplicate frame index 1" in capsys.readouterr().err

    def test_unreadable_sidecar_exits_3(self, tmp_path, score_dir, capsys):
        (score_dir / "in000002.f32").mkdir()
        assert run_cli("binarize", "--scores", score_dir, "--method", "global:0.5",
                       "--out", tmp_path / "m") == 3
        assert "cannot read" in capsys.readouterr().err

    def test_sidecar_with_wrong_magic_exits_3(self, tmp_path, score_dir, capsys):
        (score_dir / "in000002.f32").write_bytes(b"MVSX" + np.array([2, 2], "<u4").tobytes()
                                                 + np.zeros(4, "<f4").tobytes())
        assert run_cli("binarize", "--scores", score_dir, "--method", "global:0.5",
                       "--out", tmp_path / "m") == 3
        assert "in000002.f32: not a score-map sidecar" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["otsu", "global:0.5"])
    def test_non_finite_sidecar_exits_3(self, tmp_path, score_dir, capsys, method):
        from conftest import write_raw_scoremap
        score = np.full((20, 20), 0.2, dtype=np.float32)
        score[5:15, 5:15] = 0.6
        score[7, 7] = np.nan
        write_raw_scoremap(score_dir / "in000002.f32", score)
        assert run_cli("binarize", "--scores", score_dir, "--method", method,
                       "--out", tmp_path / "m") == 3
        assert "in000002.f32: score map holds a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["otsu", "global:0.5"])
    def test_empty_sidecar_exits_3(self, tmp_path, score_dir, capsys, method):
        (score_dir / "in000002.f32").write_bytes(b"MVSC" + np.array([0, 5], "<u4").tobytes())
        out = tmp_path / "m"
        assert run_cli("binarize", "--scores", score_dir, "--method", method,
                       "--out", out) == 3
        assert "in000002.f32: empty score map 0x5" in capsys.readouterr().err
        assert not (out / "in000002.pgm").exists()

    def test_missing_scores_dir_exits_3(self, tmp_path, capsys):
        assert run_cli("binarize", "--scores", tmp_path / "absent", "--method", "otsu",
                       "--out", tmp_path / "m") == 3
        assert "cannot read" in only_error_line(capsys)

    def test_out_on_a_file_exits_3(self, score_dir, blocker, capsys):
        assert run_cli("binarize", "--scores", score_dir, "--method", "global:0.5",
                       "--out", blocker) == 3
        assert "cannot write" in only_error_line(capsys)

    def test_output_on_a_directory_exits_3_before_any_frame(self, tmp_path, score_dir, capsys):
        from mvfcn.io import save_scoremap
        score = np.full((20, 20), 0.2, dtype=np.float32)
        score[2:8, 2:8] = 0.7
        save_scoremap(score, score_dir / "in000002.f32")
        out = tmp_path / "m"
        (out / "in000002.pgm").mkdir(parents=True)
        assert run_cli("binarize", "--scores", score_dir, "--method", "otsu",
                       "--out", out) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "in000002.pgm: it is a directory" in captured.err
        assert [p.name for p in out.iterdir()] == ["in000002.pgm"]

    def test_no_score_maps_exits_3(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli("binarize", "--scores", empty, "--method", "otsu",
                       "--out", tmp_path / "m") == 3
        assert "holds no score maps" in only_error_line(capsys)

    def test_negative_min_area_exits_2(self, tmp_path, score_dir, capsys):
        assert run_cli("binarize", "--scores", score_dir, "--method", "otsu",
                       "--min-area", "-1", "--out", tmp_path / "m") == 2
        assert "--min-area must be non-negative" in only_error_line(capsys)

    def test_bad_method_exits_2(self, tmp_path, score_dir):
        assert run_cli("binarize", "--scores", score_dir, "--method", "magic",
                       "--out", tmp_path / "m") == 2
        assert run_cli("binarize", "--scores", score_dir, "--method", "global:1.5",
                       "--out", tmp_path / "m") == 2
        # matches the method pattern, but float() refuses it
        assert run_cli("binarize", "--scores", score_dir, "--method", "global:1e",
                       "--out", tmp_path / "m") == 2


class TestEval:
    def _write_masks(self, directory, masks, prefix):
        from mvfcn.io import save_image
        directory.mkdir(parents=True, exist_ok=True)
        for i, mask in enumerate(masks, start=1):
            save_image(mask, directory / f"{prefix}{i:06d}.pgm")

    def test_perfect_prediction_fom_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        r = np.random.default_rng(0)
        masks = [(r.uniform(size=(10, 10)) > 0.5).astype(np.uint8) for _ in range(3)]
        self._write_masks(tmp_path / "pred", masks, "in")
        self._write_masks(tmp_path / "gt", masks, "gt")
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt") == 0
        out = capsys.readouterr().out
        assert "fom=1.0000" in out
        report = (tmp_path / "eval_report.txt").read_text()
        assert "fom=1.000000" in report

    def test_hand_fixture_fom(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        gt = np.zeros((4, 4), np.uint8)
        pred = np.zeros((4, 4), np.uint8)
        gt[0, 0] = gt[0, 1] = gt[1, 0] = gt[2, 2] = gt[3, 3] = 1
        pred[0, 0] = pred[0, 1] = pred[1, 0] = pred[1, 3] = 1
        self._write_masks(tmp_path / "pred", [pred], "in")
        self._write_masks(tmp_path / "gt", [gt], "gt")
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt") == 0
        assert "fom=0.6667" in capsys.readouterr().out

    @pytest.mark.parametrize("missing", ["pred", "gt"])
    def test_missing_directory_exits_3(self, tmp_path, capsys, missing):
        self._write_masks(tmp_path / "pred", [np.ones((6, 6), np.uint8)], "in")
        self._write_masks(tmp_path / "gt", [np.ones((6, 6), np.uint8)], "gt")
        dirs = {"pred": tmp_path / "pred", "gt": tmp_path / "gt", missing: tmp_path / "absent"}
        assert run_cli("eval", "--pred", dirs["pred"], "--gt", dirs["gt"],
                       "--report", tmp_path / "r.txt") == 3
        assert "cannot read" in only_error_line(capsys)

    def test_report_into_missing_directory_written(self, tmp_path, capsys):
        masks = [np.ones((6, 6), np.uint8)]
        self._write_masks(tmp_path / "pred", masks, "in")
        self._write_masks(tmp_path / "gt", masks, "gt")
        report = tmp_path / "absent" / "r.txt"
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                       "--report", report) == 0
        assert "fom=1.000000" in report.read_text()
        assert capsys.readouterr().err == ""

    def test_report_on_a_directory_exits_3_before_any_frame(self, tmp_path, capsys):
        masks = [np.ones((6, 6), np.uint8)] * 2
        self._write_masks(tmp_path / "pred", masks, "in")
        self._write_masks(tmp_path / "gt", masks, "gt")
        report = tmp_path / "report"
        report.mkdir()
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                       "--report", report) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{report}: it is a directory" in captured.err
        assert list(report.iterdir()) == []

    def test_length_mismatch_exits_3(self, tmp_path):
        r = np.random.default_rng(1)
        masks = [(r.uniform(size=(6, 6)) > 0.5).astype(np.uint8) for _ in range(3)]
        self._write_masks(tmp_path / "pred", masks[:2], "in")
        self._write_masks(tmp_path / "gt", masks, "gt")
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt") == 3

    def test_misalignment_names_the_lone_frame(self, tmp_path, capsys):
        masks = [np.ones((6, 6), np.uint8)] * 4
        self._write_masks(tmp_path / "pred", masks[:2], "in")
        save_image(masks[0], tmp_path / "pred" / "in000004.pgm")
        self._write_masks(tmp_path / "gt", masks[:3], "gt")
        # both sides hold three frames; frame 3 is only in gt, frame 4 only in pred
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                       "--report", tmp_path / "r.txt") == 3
        err = only_error_line(capsys)
        assert "frame 3 " in err
        assert str(tmp_path / "pred") in err and str(tmp_path / "gt") in err

    def test_duplicate_frame_index_exits_3(self, tmp_path, capsys):
        masks = [np.ones((6, 6), np.uint8)] * 2
        self._write_masks(tmp_path / "pred", masks, "in")
        self._write_masks(tmp_path / "gt", masks, "gt")
        # a000001.pgm and in000001.pgm both claim frame 1
        self._write_masks(tmp_path / "pred", masks[:1], "a")
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt") == 3
        assert "duplicate frame index 1" in capsys.readouterr().err

    def test_roi_file_respected(self, tmp_path, capsys, monkeypatch):
        from mvfcn.io import save_image
        monkeypatch.chdir(tmp_path)
        gt = np.ones((6, 6), np.uint8)
        pred = np.zeros((6, 6), np.uint8)
        pred[:, :3] = 1  # half right, half wrong
        roi = np.zeros((6, 6), np.uint8)
        roi[:, :3] = 1  # but the wrong half is outside the roi
        self._write_masks(tmp_path / "pred", [pred], "in")
        self._write_masks(tmp_path / "gt", [gt], "gt")
        save_image(roi, tmp_path / "ROI.pgm")
        assert run_cli("eval", "--pred", tmp_path / "pred", "--gt", tmp_path / "gt",
                       "--roi", tmp_path / "ROI.pgm") == 0
        assert "fom=1.0000" in capsys.readouterr().out


class TestUsage:
    def test_no_command_exits_2(self):
        assert run_cli() == 2

    def test_unknown_command_exits_2(self):
        assert run_cli("frobnicate") == 2
