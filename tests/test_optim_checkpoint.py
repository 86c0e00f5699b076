"""Optimizer update rules and checkpoint container round-trips."""

import importlib
import json
import struct

import numpy as np
import pytest

from redloco.config import tiny_config
from redloco.errors import CheckpointError
from redloco.harness.cli import cli
from redloco.nn import Adam, TensorParam, clip_grad_norm, load_checkpoint, save_checkpoint
from redloco.training import Trainer, build_networks, load_bundle, save_bundle

checkpoint_mod = importlib.import_module("redloco.nn.checkpoint")


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
        assert Adam([p], lr=0.01).step() == 0
        np.testing.assert_array_equal(p.values, [1.0, -2.0, 3.0])

    def test_first_step_moves_by_lr_times_sign(self):
        # bias-corrected first step: delta = -lr * g / (|g| + eps)
        for g in (0.5, -0.25, 3.0):
            p = TensorParam("w", np.array([1.0]))
            p.grad[...] = g
            Adam([p], lr=1e-3).step()
            assert p.values[0] == pytest.approx(1.0 - 1e-3 * np.sign(g), abs=1e-9)

    def test_constant_grad_moves_monotonically_against_its_sign(self):
        p = TensorParam("w", np.array([0.0]))
        opt = Adam([p], lr=1e-2)
        vals = [0.0]
        for _ in range(5):
            p.grad[...] = 2.0
            opt.step()
            vals.append(float(p.values[0]))
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_non_finite_grad_rejected_and_flagged(self):
        p = TensorParam("w", np.array([1.0]))
        opt = Adam([p], lr=1e-3)
        p.grad[...] = np.nan
        assert opt.step() == 1
        assert p.values[0] == 1.0
        assert p.step_count == 0
        np.testing.assert_array_equal(p.grad, [0.0])
        p.grad[...] = np.inf
        assert opt.step() == 1
        assert opt.rejected == 2

    def test_grads_zeroed_and_step_counted_after_update(self):
        p = TensorParam("w", np.array([1.0, 2.0]))
        p.grad[...] = [0.1, -0.1]
        Adam([p], lr=1e-3).step()
        np.testing.assert_array_equal(p.grad, [0.0, 0.0])
        assert p.step_count == 1
        assert np.isfinite(p.values).all()

    def test_a_non_finite_grad_rejects_only_its_own_parameter(self):
        bad = TensorParam("bad", np.array([5.0, 6.0, 7.0]))
        good = TensorParam("good", np.array([[1.0, 2.0], [3.0, 4.0]]))
        opt = Adam([bad, good], lr=1e-2)
        bad.grad[...], good.grad[...] = 1.0, 0.5
        opt.step()
        bad_before, good_before = bad.values.copy(), good.values.copy()
        moments_before = opt.moment1[:3].copy(), opt.moment2[:3].copy()
        bad.grad[...], good.grad[...] = [1.0, np.nan, 1.0], 0.5
        assert opt.step() == 1
        assert opt.rejected == 1
        assert (bad.step_count, good.step_count) == (1, 2)
        np.testing.assert_array_equal(bad.values, bad_before)
        np.testing.assert_array_equal(opt.moment1[:3], moments_before[0])
        np.testing.assert_array_equal(opt.moment2[:3], moments_before[1])
        assert (good.values < good_before).all()
        np.testing.assert_array_equal(opt.grad, np.zeros(7))
        # the next step bias-corrects each parameter from its own step count
        ref = TensorParam("ref", good.values.copy(), step_count=good.step_count)
        ref_opt = Adam([ref], lr=1e-2)
        ref_opt.moment1[...], ref_opt.moment2[...] = opt.moment1[3:], opt.moment2[3:]
        bad.grad[...], good.grad[...], ref.grad[...] = 1.0, 0.25, 0.25
        assert opt.step() == 0 and ref_opt.step() == 0
        assert good.values.tobytes() == ref.values.tobytes()

    def test_clip_matches_a_per_parameter_reference_bit_for_bit(self):
        rng = np.random.default_rng(4)
        shapes = [(5, 3), (3,), (2, 2, 3, 3), (1,), (200,)]
        params = [TensorParam(f"p{i}", rng.standard_normal(s)) for i, s in enumerate(shapes)]
        opt = Adam(params, lr=1e-3)
        for max_norm in (1e9, 0.5):
            grads = [rng.standard_normal(s) * 10.0 ** rng.uniform(-3, 3, s) for s in shapes]
            total = 0.0
            for g in grads:
                total += float(np.sum(g ** 2))
            want_norm = float(np.sqrt(total))
            if want_norm > max_norm:
                scale = max_norm / (want_norm + 1e-12)
                want = [g * scale for g in grads]
            else:
                want = grads
            for p, g in zip(params, grads):
                p.grad[...] = g
            assert clip_grad_norm(opt, max_norm) == want_norm
            for p, w in zip(params, want):
                assert p.grad.tobytes() == w.tobytes()

    def test_params_are_views_into_their_optimizers_arena(self, tmp_path):
        tr = Trainer(tiny_config(), tmp_path / "run")
        res = tr.run()
        segment = {}
        for opt in (tr.policy_opt, tr.critic_opt, tr.op_opt, tr.vp_opt, tr.him_opt, tr.ae_opt):
            for p, seg in zip(opt.params, opt.segments):
                assert np.shares_memory(p.values, opt.values)
                assert np.shares_memory(p.grad, opt.grad)
                segment[id(p)] = opt.values[seg]
        arrays, _ = load_checkpoint(res.checkpoint)
        for entry, obj in tr.nets.named_stacks().items():
            named = ([(entry, obj)] if isinstance(obj, TensorParam)
                     else [(f"{entry}/{p.name}", p) for p in obj.params()])
            for name, p in named:
                assert arrays.pop(name).tobytes() == segment.pop(id(p)).tobytes()
        assert not arrays and not segment


class TestCheckpoint:
    def _arrays(self, seed=0):
        rng = np.random.default_rng(seed)
        return {"main/L0.W": rng.standard_normal((8, 6)), "main/L0.b": rng.standard_normal(8),
                "conv/L0.W": rng.standard_normal((4, 2, 3, 3)), "scalar": np.array(-0.7)}

    def test_round_trip_is_bit_exact(self, tmp_path):
        arrays = self._arrays(3)
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, arrays, meta={"iteration": 7})
        loaded, meta = load_checkpoint(path)
        assert meta["iteration"] == 7
        assert list(loaded) == list(arrays)
        for name, a in arrays.items():
            assert loaded[name].shape == a.shape
            assert loaded[name].tobytes() == a.tobytes()

    def test_saved_file_is_byte_stable(self, tmp_path):
        arrays = self._arrays(5)
        save_checkpoint(tmp_path / "a.ckpt", arrays, meta={"k": 1})
        save_checkpoint(tmp_path / "b.ckpt", arrays, meta={"k": 1})
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_a_failed_write_leaves_the_old_checkpoint_and_no_temporary(self, tmp_path,
                                                                        monkeypatch):
        path = tmp_path / "net.ckpt"
        save_checkpoint(path, self._arrays(1), meta={"k": 1})
        before = path.read_bytes()

        class FailingFile:
            """A file whose second write raises, as a full disk would."""

            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError(28, "No space left on device")
                return self.f.write(data)

        monkeypatch.setattr(checkpoint_mod, "open",
                            lambda *args, **kwargs: FailingFile(open(*args, **kwargs)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(path, self._arrays(2), meta={"k": 2})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["net.ckpt"]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_entries_are_written_as_f64(self, tmp_path):
        # one dtype tag for the file; each entry is a name and a shape
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32)}, meta={})
        manifest, payload = read_manifest(path)
        assert manifest["version"] == 2 and manifest["dtype"] == "f64"
        assert manifest["entries"] == [{"name": "w", "shape": [2, 3]}]
        assert payload == np.ones((2, 3), dtype="<f8").tobytes()

    def test_another_dtype_tag_is_refused(self, tmp_path):
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, self._arrays(9), meta={})
        rewrite_manifest(path, lambda m: m.update(dtype="f32"))
        with pytest.raises(CheckpointError, match="s.ckpt: dtype 'f32'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("keep", [40, "half"])
    def test_truncated_file_raises_checkpoint_error(self, tmp_path, keep):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, self._arrays(1), meta={"k": 1})
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2 if keep == "half" else keep])
        with pytest.raises(CheckpointError, match="cut.ckpt"):
            load_checkpoint(path)

    def test_trailing_bytes_are_refused(self, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(path, self._arrays(2), meta={})
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match=r"long.ckpt: trailing bytes \(8\)"):
            load_checkpoint(path)


class TestBundleLoading:
    """A bundle loads only if its arrays match the network set's parameters
    one to one, by name and shape; nothing is left at its random initial
    value."""

    @pytest.fixture
    def bundle(self, tmp_path):
        cfg = tiny_config()
        path = tmp_path / "bundle.ckpt"
        save_bundle(path, cfg, build_networks(cfg, np.random.default_rng(0)))
        arrays, meta = load_checkpoint(path)
        return path, dict(arrays), meta

    def test_intact_bundle_loads(self, bundle):
        path, arrays, _ = bundle
        _, nets, _ = load_bundle(path)
        stacks = nets.named_stacks()
        for p in stacks["vp.head_mt"].params():
            assert p.values.tobytes() == arrays[f"vp.head_mt/{p.name}"].tobytes()
        assert stacks["log_std"].values.tobytes() == arrays["log_std"].tobytes()

    def test_weights_follow_the_named_stacks_order(self, bundle):
        # the bytes after the manifest are every parameter in named_stacks() order
        path, _, _ = bundle
        nets = build_networks(tiny_config(), np.random.default_rng(0))
        params = []
        for obj in nets.named_stacks().values():
            params.extend([obj] if isinstance(obj, TensorParam) else obj.params())
        _, payload = read_manifest(path)
        assert payload == b"".join(p.values.tobytes() for p in params)

    def test_missing_array_is_named(self, bundle):
        path, arrays, meta = bundle
        del arrays["vp.head_mt/L0.W"]
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=r"missing \['vp.head_mt/L0.W'\]"):
            load_bundle(path)

    def test_unexpected_array_is_named(self, bundle):
        path, arrays, meta = bundle
        arrays["vp.head_mt/L9.W"] = np.zeros(3)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=r"unexpected \['vp.head_mt/L9.W'\]"):
            load_bundle(path)

    def test_mis_shaped_array_is_named_with_both_shapes(self, bundle):
        path, arrays, meta = bundle
        want = arrays["vp.head_v/L0.b"].shape
        arrays["vp.head_v/L0.b"] = np.zeros(want[0] + 1)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError,
                           match=rf"vp.head_v/L0.b is stored as \({want[0] + 1},\), "
                                 rf"the network needs \({want[0]},\)"):
            load_bundle(path)

    @pytest.mark.parametrize("name,value", [("ae/L0.W", np.nan), ("vp.embed/L0.W", np.inf)])
    def test_non_finite_array_is_named_with_the_file(self, bundle, name, value):
        path, arrays, meta = bundle
        arrays[name] = arrays[name].copy()
        arrays[name].flat[3] = value
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=rf"{path.name}: {name} holds non-finite"):
            load_bundle(path)

    def test_embedded_config_with_an_unknown_key_is_a_checkpoint_error(self, bundle):
        # what a checkpoint written with a since-deleted key gets
        path, arrays, meta = bundle
        meta["config"] += "net.encoder = mlp\n"
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match="embedded config: .*net.encoder"):
            load_bundle(path)

    @pytest.mark.parametrize("line", ["selector.beta = nan", "selector.gamma = 0.1",
                                      "reward.hip_bias = -0.5", "net.depth_frames = 2",
                                      "promote_ratio = 0.8", "world.gravity = 9.81",
                                      "net.cnn_kernel = 3", "selector.ae_pad = 1",
                                      "ppo.entropy_coef = 0.005", "reward.collision = -10.0",
                                      "camera.mount_pitch = 0.8", "ppo.discount = 0.99",
                                      "world.cell_size = 0.05", "world.dt = 0.02",
                                      "camera.fov_v = 1.0", "camera.fov_h = 1.5",
                                      "camera.mount_forward = 0.1", "camera.mount_up = 0.05",
                                      "camera.max_range = 2.0", "camera.min_depth = 0.01",
                                      "camera.prop_noise_std = 0.01",
                                      "camera.add_noise_std = 0.1", "selector.tick_period = 5",
                                      "flip_period = 20", "ppo.lr = 3e-4", "ppo.clip = 0.2",
                                      "ppo.gae_lambda = 0.95", "ppo.est_lr = 1e-3",
                                      "ppo.ae_lr = 2e-3", "ppo.ae_epochs = 4",
                                      "ppo.ae_batch = 256", "phase_budget_frac = 0.6",
                                      "camera.pos_jitter = 0.01",
                                      "camera.ang_jitter = 0.0872664626", "ppo.epochs = 4",
                                      "ppo.minibatches = 4"])
    def test_embedded_config_naming_a_key_no_run_read_is_refused(self, bundle, line):
        path, arrays, meta = bundle
        meta["config"] += line + "\n"
        save_checkpoint(path, arrays, meta)
        key = line.partition(" ")[0]
        with pytest.raises(CheckpointError, match=rf"embedded config: unknown config key '{key}'"):
            load_bundle(path)

    @pytest.mark.parametrize("fault", ["unknown_key", "f32_tag", "version_1"])
    def test_cli_reports_a_bad_bundle_as_json(self, bundle, tmp_path, capsys, fault):
        path, arrays, meta = bundle
        if fault == "unknown_key":
            meta["config"] += "net.encoder = mlp\n"
            save_checkpoint(path, arrays, meta)
        elif fault == "f32_tag":
            rewrite_manifest(path, lambda m: m.update(dtype="f32"))
        else:
            # what every checkpoint written before the named-array format gets
            rewrite_manifest(path, lambda m: m.update(version=1))
        code = cli(["calibrate-beta", "--checkpoint", str(path),
                    "--out", str(tmp_path / "beta.json")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "CheckpointError"
        assert "bundle.ckpt" in payload["message"]
        if fault == "version_1":
            assert "version 1" in payload["message"] and "retrain" in payload["message"]

    @pytest.mark.parametrize("field", ["name", "shape", "entries"])
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

    @pytest.mark.parametrize("fault", ["shape_field", "repeated_name", "list_manifest"])
    def test_manifest_of_the_wrong_form_is_a_checkpoint_error(self, bundle, fault):
        path, _, _ = bundle
        if fault == "shape_field":
            rewrite_manifest(path, lambda m: m["entries"][0].update(shape="8x6"))
            match = "'8x6'"
        elif fault == "repeated_name":
            rewrite_manifest(path, lambda m: m["entries"][1].update(
                name=m["entries"][0]["name"]))
            match = "repeats"
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
