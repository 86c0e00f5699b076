"""Optimizer update rules and checkpoint container round-trips."""

import json
import struct

import numpy as np
import pytest

from redloco.config import tiny_config
from redloco.errors import CheckpointError
from redloco.harness.cli import cli
from redloco.nn import (Adam, Conv2d, Elu, GruCell, LayerStack, Linear, TensorParam,
                        adam_update, load_checkpoint, save_checkpoint)
from redloco.training import build_networks, load_bundle, save_bundle


def read_manifest(path) -> tuple[dict, bytes]:
    """The JSON manifest of a checkpoint file and the bytes after it."""
    raw = path.read_bytes()
    (n,) = struct.unpack("<Q", raw[4:12])
    return json.loads(raw[12:12 + n]), raw[12 + n:]


def rewrite_manifest(path, edit) -> None:
    """Apply ``edit`` to the manifest of a checkpoint file in place."""
    manifest, payload = read_manifest(path)
    edit(manifest)
    m = json.dumps(manifest, sort_keys=True).encode()
    path.write_bytes(path.read_bytes()[:4] + struct.pack("<Q", len(m)) + m + payload)


class TestAdam:
    def test_zero_grad_leaves_values_unchanged(self):
        p = TensorParam("w", np.array([1.0, -2.0, 3.0]))
        assert adam_update(p, lr=0.01)
        np.testing.assert_array_equal(p.values, [1.0, -2.0, 3.0])

    def test_first_step_moves_by_lr_times_sign(self):
        # bias-corrected first step: delta = -lr * g / (|g| + eps)
        for g in (0.5, -0.25, 3.0):
            p = TensorParam("w", np.array([1.0]))
            p.grad[...] = g
            adam_update(p, lr=1e-3)
            assert p.values[0] == pytest.approx(1.0 - 1e-3 * np.sign(g), abs=1e-9)

    def test_constant_grad_moves_monotonically_against_its_sign(self):
        p = TensorParam("w", np.array([0.0]))
        vals = [0.0]
        for _ in range(5):
            p.grad[...] = 2.0
            adam_update(p, lr=1e-2)
            vals.append(float(p.values[0]))
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_non_finite_grad_rejected_and_flagged(self):
        p = TensorParam("w", np.array([1.0]))
        p.grad[...] = np.nan
        assert not adam_update(p, lr=1e-3)
        assert p.values[0] == 1.0
        assert p.step_count == 0
        np.testing.assert_array_equal(p.grad, [0.0])
        opt = Adam([p], lr=1e-3)
        p.grad[...] = np.inf
        assert opt.step() == 1
        assert opt.rejected == 1

    def test_grads_zeroed_and_step_counted_after_update(self):
        p = TensorParam("w", np.array([1.0, 2.0]))
        p.grad[...] = [0.1, -0.1]
        adam_update(p, lr=1e-3)
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])
        assert p.step_count == 1
        assert np.isfinite(p.values).all()


class TestCheckpoint:
    def _stack(self, seed=0):
        return LayerStack([Linear(6, 8), Elu(), GruCell(8, 5), Linear(5, 3)],
                          (6,), np.random.default_rng(seed))

    def test_round_trip_is_bit_exact(self, tmp_path):
        s = self._stack(3)
        conv = LayerStack([Conv2d(2, 4, 3, 2, 1)], (2, 8, 8), np.random.default_rng(4))
        extra = TensorParam("log_std", np.array([-0.7, -0.3]))
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, {"main": s, "conv": conv, "log_std": extra},
                        meta={"iteration": 7})
        entries, meta = load_checkpoint(path)
        assert meta["iteration"] == 7
        for a, b in zip(s.params(), entries["main"].params()):
            assert a.values.tobytes() == b.values.tobytes()
        for a, b in zip(conv.params(), entries["conv"].params()):
            assert a.values.tobytes() == b.values.tobytes()
        assert entries["log_std"].values.tobytes() == extra.values.tobytes()

    def test_saved_file_is_byte_stable(self, tmp_path):
        s = self._stack(5)
        save_checkpoint(tmp_path / "a.ckpt", {"s": s}, meta={"k": 1})
        save_checkpoint(tmp_path / "b.ckpt", {"s": s}, meta={"k": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_restored_stack_reproduces_outputs_exactly(self, tmp_path):
        s = self._stack(6)
        save_checkpoint(tmp_path / "s.ckpt", {"s": s})
        entries, _ = load_checkpoint(tmp_path / "s.ckpt")
        x = np.random.default_rng(7).standard_normal((4, 6))
        h = np.random.default_rng(8).standard_normal((4, 5))
        y1, h1, _ = s.forward(x, h)
        y2, h2, _ = entries["s"].forward(x, h)
        assert y1.tobytes() == y2.tobytes()
        assert h1.tobytes() == h2.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_entries_are_written_as_f64(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {"s": self._stack(9), "p": TensorParam("p", np.ones(2))})
        manifest, _ = read_manifest(path)
        assert [e["dtype"] for e in manifest["entries"]] == ["f64", "f64"]

    def test_entry_of_another_dtype_is_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {"s": self._stack(9)})
        rewrite_manifest(path, lambda m: m["entries"][0].update(dtype="f32"))
        with pytest.raises(CheckpointError, match="'f32'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [40, "half"])
    def test_truncated_file_raises_checkpoint_error(self, tmp_path, keep):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, {"s": self._stack(1)}, meta={"k": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2 if keep == "half" else keep])
        with pytest.raises(CheckpointError, match="cut.ckpt"):
            load_checkpoint(path)


class TestBundleLoading:
    """A bundle loads only if its entries and their params match the network
    set one to one; nothing is left at its random initial value."""

    @pytest.fixture
    def bundle(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "bundle.ckpt"
        save_bundle(path, cfg, build_networks(cfg, np.random.default_rng(0)))
        entries, meta = load_checkpoint(path)
        return path, entries, meta

    def test_intact_bundle_loads(self, bundle):
        path, entries, _ = bundle
        _, nets, _ = load_bundle(path)
        for a, b in zip(nets.named_stacks()["vp.head_mt"].params(),
                        entries["vp.head_mt"].params()):
            assert a.values.tobytes() == b.values.tobytes()

    def test_missing_entry_is_named(self, bundle):
        path, entries, meta = bundle
        del entries["vp.head_mt"]
        save_checkpoint(path, entries, meta)
        with pytest.raises(CheckpointError, match=r"missing \['vp.head_mt'\]"):
            load_bundle(path)

    def test_unexpected_entry_is_named(self, bundle):
        path, entries, meta = bundle
        entries["vp.head_extra"] = TensorParam("vp.head_extra", np.zeros(3))
        save_checkpoint(path, entries, meta)
        with pytest.raises(CheckpointError, match=r"unexpected \['vp.head_extra'\]"):
            load_bundle(path)

    @pytest.mark.parametrize("fewer", [True, False])
    def test_param_count_mismatch_is_named(self, bundle, fewer):
        # the stored head has fewer or more params than the network's (W, b)
        path, entries, meta = bundle
        n = entries["vp.head_v"].input_shape[0]
        descs = [Elu()] if fewer else [Linear(n, 2), Linear(2, 2)]
        entries["vp.head_v"] = LayerStack(descs, (n,), np.random.default_rng(1))
        save_checkpoint(path, entries, meta)
        with pytest.raises(CheckpointError, match=r"vp.head_v holds \d+ params, the network needs 2"):
            load_bundle(path)

    def test_embedded_config_with_an_unknown_key_is_a_checkpoint_error(self, bundle):
        # what a checkpoint written with a since-deleted key gets
        path, entries, meta = bundle
        meta["config"] += "net.encoder = mlp\n"
        save_checkpoint(path, entries, meta)
        with pytest.raises(CheckpointError, match="embedded config: .*net.encoder"):
            load_bundle(path)

    @pytest.mark.parametrize("fault", ["unknown_key", "f32_entry"])
    def test_cli_reports_a_bad_bundle_as_json(self, bundle, tmp_path, capsys, fault):
        path, entries, meta = bundle
        if fault == "unknown_key":
            meta["config"] += "net.encoder = mlp\n"
            save_checkpoint(path, entries, meta)
        else:
            rewrite_manifest(path, lambda m: m["entries"][-1].update(dtype="f32"))
        code = cli(["calibrate-beta", "--checkpoint", str(path),
                    "--out", str(tmp_path / "beta.json")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "CheckpointError"
        assert "bundle.ckpt" in payload["message"]

    @pytest.mark.parametrize("field", ["input_shape", "entries"])
    def test_manifest_missing_a_field_is_named(self, bundle, tmp_path, capsys, field):
        path, _, _ = bundle
        if field == "entries":
            rewrite_manifest(path, lambda m: m.pop("entries"))
        else:
            rewrite_manifest(path, lambda m: m["entries"][0].pop(field))
        with pytest.raises(CheckpointError, match=f"'{field}' is missing"):
            load_checkpoint(path)
        code = cli(["calibrate-beta", "--checkpoint", str(path),
                    "--out", str(tmp_path / "beta.json")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "CheckpointError"
        assert "bundle.ckpt" in payload["message"] and field in payload["message"]

    @pytest.mark.parametrize("fault", ["layer_field", "list_manifest"])
    def test_manifest_of_the_wrong_form_is_a_checkpoint_error(self, bundle, fault):
        path, _, _ = bundle
        if fault == "layer_field":
            rewrite_manifest(path, lambda m: m["entries"][0]["layers"][0].update(bogus=1))
            match = "'bogus'"
        else:
            path.write_bytes(path.read_bytes()[:4] + struct.pack("<Q", 2) + b"[]")
            match = "not a JSON object"
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    def test_cli_reports_a_truncated_checkpoint_as_json(self, bundle, tmp_path, capsys):
        path, _, _ = bundle
        path.write_bytes(path.read_bytes()[:40])
        code = cli(["calibrate-beta", "--checkpoint", str(path),
                    "--out", str(tmp_path / "beta.json")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "CheckpointError"
        assert "bundle.ckpt" in payload["message"]
