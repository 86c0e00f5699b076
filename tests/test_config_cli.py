"""Flat-text config round-trips and CLI surface."""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redloco
from redloco import config as config_mod
from redloco.errors import ConfigError
from redloco.harness import read_beta_file
from redloco.harness.cli import cli
from redloco.sensor import dump_text, render_batch
from redloco.training import Trainer
from redloco.training import runner as runner_mod
from redloco.world import BatchWorld

cli_mod = importlib.import_module("redloco.harness.cli")

# keys deleted because no run could read them or because they have one value,
# now a constant where it is used; a config or an embedded checkpoint config
# that names one is refused
DELETED_KEYS = ("selector.beta", "selector.gamma", "reward.hip_bias", "net.depth_frames",
                "phase_threshold", "world.stand_height", "world.gap_width_range",
                "net.actor_hidden", "selector.ae_kernel", "ppo.max_grad_norm",
                "reward.lin_vel", "world.dt", "world.cell_size", "camera.fov_v",
                "camera.fov_h", "camera.mount_forward", "camera.mount_up",
                "camera.mount_pitch", "camera.max_range", "camera.min_depth",
                "camera.prop_noise_std", "camera.add_noise_std", "selector.tick_period",
                "flip_period", "ppo.lr", "ppo.clip", "ppo.discount", "ppo.gae_lambda",
                "ppo.est_lr", "ppo.ae_lr", "ppo.ae_epochs", "ppo.ae_batch",
                "phase_budget_frac", "camera.pos_jitter", "camera.ang_jitter", "ppo.epochs",
                "ppo.minibatches")

# the keys no run, preset, flag or benchmark workload set, each now one
# constant in the module that reads it, holding the literal that was its
# default: (key, module, constant, value)
RETIRED_CONSTANTS = (
    ("world.dt", "world.batch", "DT", 0.02),
    ("world.cell_size", "world.terrain", "CELL_SIZE", 0.05),
    ("camera.fov_v", "sensor.camera", "FOV_V", 1.0),
    ("camera.fov_h", "sensor.camera", "FOV_H", 1.5),
    ("camera.mount_forward", "sensor.camera", "MOUNT_FORWARD", 0.10),
    ("camera.mount_up", "sensor.camera", "MOUNT_UP", 0.05),
    ("camera.mount_pitch", "sensor.camera", "MOUNT_PITCH", 0.8),
    ("camera.max_range", "sensor.camera", "MAX_RANGE", 2.0),
    ("camera.min_depth", "sensor.camera", "MIN_DEPTH", 0.01),
    ("camera.prop_noise_std", "sensor.camera", "PROP_NOISE_STD", 0.01),
    ("camera.add_noise_std", "sensor.camera", "ADD_NOISE_STD", 0.1),
    ("selector.tick_period", "training.runner", "TICK_PERIOD", 5),
    ("flip_period", "training.schedule", "FLIP_PERIOD", 20),
    ("ppo.lr", "training.ppo", "LR", 3e-4),
    ("ppo.clip", "training.ppo", "CLIP", 0.2),
    ("ppo.discount", "training.ppo", "DISCOUNT", 0.99),
    ("ppo.gae_lambda", "training.ppo", "GAE_LAMBDA", 0.95),
    ("ppo.est_lr", "training.supervised", "EST_LR", 1e-3),
    ("ppo.ae_lr", "training.supervised", "AE_LR", 2e-3),
    ("ppo.ae_epochs", "training.supervised", "AE_EPOCHS", 4),
    ("ppo.ae_batch", "training.supervised", "AE_BATCH", 256),
    ("phase_budget_frac", "training.schedule", "PHASE_BUDGET_FRAC", 0.6),
    ("camera.pos_jitter", "sensor.camera", "POS_JITTER", 0.01),
    ("camera.ang_jitter", "sensor.camera", "ANG_JITTER", 0.0872664626),
    ("ppo.epochs", "training.ppo", "EPOCHS", 4),
    ("ppo.minibatches", "training.ppo", "MINIBATCHES", 4),
)
# keys that decide which files a run writes, not any figure it computes
SETTER_EXEMPT = ("out_dir", "checkpoint_every")
# the config classes and presets, with the section their keywords set
CONFIG_CALLS = {"TrainConfig": "", "desk_config": "", "paper_shape_config": "",
                "tiny_config": "", "WorldConfig": "world.", "CameraConfig": "camera.",
                "NetConfig": "net.", "SelectorConfig": "selector."}


def config_keys() -> list[str]:
    return [line.partition("=")[0].strip()
            for line in config_mod.to_text(config_mod.TrainConfig()).splitlines()
            if not line.startswith("#")]


def default_value(key: str):
    value = config_mod.TrainConfig()
    for part in key.split("."):
        value = getattr(value, part)
    return value


def outside_bounds() -> list[tuple[str, str]]:
    """(key, text) for the value just below every bound."""
    return [(key, str(bound.low - 1)) for key, bound in config_mod.BOUNDS.items()]


def module_level_names(path: Path) -> set[str]:
    """Names that a module-level assignment in ``path`` binds."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def config_setters(paths) -> set[str]:
    """The dotted config keys that the code in ``paths`` sets: by assignment to
    an attribute (``cfg.camera.height = 12``, ``cfg.seed = args.seed``; not to
    ``self.x``), by keyword to a config class or preset
    (``NetConfig(history_len=2)``), or by keyword to ``dataclasses.replace`` of
    a section (``replace(cfg.world, episode_steps=n)``)."""
    sections = set(CONFIG_CALLS.values()) - {""}
    keys: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in getattr(node, "targets", [getattr(node, "target", None)]):
                    for attr in ast.walk(target):
                        if not isinstance(attr, ast.Attribute) or (
                                isinstance(attr.value, ast.Name) and attr.value.id == "self"):
                            continue
                        owner = getattr(attr.value, "attr", "") + "."
                        keys.add((owner if owner in sections else "") + attr.attr)
            elif isinstance(node, ast.Call):
                func = getattr(node.func, "id", getattr(node.func, "attr", None))
                if func in CONFIG_CALLS:
                    prefix = CONFIG_CALLS[func]
                elif func == "replace" and node.args:
                    owner = getattr(node.args[0], "attr", "") + "."
                    prefix = owner if owner in sections else ""
                else:
                    continue
                keys |= {prefix + kw.arg for kw in node.keywords if kw.arg}
    return keys


class TestConfig:
    def test_text_round_trip_preserves_every_field(self):
        cfg = config_mod.desk_config()
        cfg.seed = 9
        cfg.terrain_mix = ("flat", "gap")
        cfg.camera.edge_border = 2
        cfg.net.z_dim = 3
        back = config_mod.parse_text(config_mod.to_text(cfg))
        assert back == cfg

    def test_dotted_keys_reach_nested_sections(self):
        cfg = config_mod.parse_text("selector.ae_bottleneck = 4\ncamera.edge_border = 2\n"
                                    "seed = 3\n")
        assert cfg.selector.ae_bottleneck == 4
        assert cfg.camera.edge_border == 2
        assert cfg.seed == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_mod.parse_text("selector.gamme = 0.25\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError):
            config_mod.parse_text("just some words\n")

    @pytest.mark.parametrize("key, raw, bad", [("camera.edge_border", "abc", "abc"),
                                               ("n_envs", "2.5", "2.5"),
                                               ("net.cnn_channels", "4, x, 16", "x")])
    def test_malformed_value_names_the_key_and_the_value(self, key, raw, bad):
        with pytest.raises(ConfigError) as exc:
            config_mod.parse_text(f"{key} = {raw}\n")
        assert key in str(exc.value) and repr(bad) in str(exc.value)

    def test_every_config_key_is_read_by_the_program(self):
        # a leaf read as `.leaf` or named as "leaf" outside config.py; a knob
        # that nothing reads is dead
        cfg_py = Path(config_mod.__file__)
        code = "\n".join(p.read_text() for p in sorted(cfg_py.parent.rglob("*.py"))
                         if p != cfg_py)
        keys = config_keys()
        dead = [k for k in keys
                if not re.search(rf"\.{k.rsplit('.', 1)[-1]}\b|[\"']{k.rsplit('.', 1)[-1]}[\"']",
                                 code)]
        assert keys and dead == []

    def test_a_short_run_reads_every_config_key(self, tmp_path, monkeypatch):
        # a key no run reads cannot change a run. Record every field read on
        # the config classes, except reads inside config.py (text round trips)
        # and the dataclasses module (bulk copies); this run reaches resets,
        # rough terrain, the AE epochs and, past its iteration budget, phase 2
        cfg = config_mod.tiny_config()
        cfg.n_envs = 8
        cfg.terrain_mix = config_mod.TrainConfig().terrain_mix
        cfg.iterations = 3
        cfg.world.episode_steps = 12
        cfg.out_dir = str(tmp_path)
        keys = config_keys()
        ignored = {config_mod.__file__, dataclasses.__file__}
        read: set[str] = set()
        prefix = {config_mod.TrainConfig: ""}
        prefix.update((type(getattr(cfg, f.name)), f"{f.name}.") for f in dataclasses.fields(cfg)
                      if dataclasses.is_dataclass(getattr(cfg, f.name)))

        def hook(obj, name, _get=object.__getattribute__):
            if not name.startswith("__") and sys._getframe(1).f_code.co_filename not in ignored:
                read.add(prefix[type(obj)] + name)
            return _get(obj, name)

        for cls in prefix:
            monkeypatch.setattr(cls, "__getattribute__", hook)
        tr = Trainer(cfg)
        tr.run()
        monkeypatch.undo()
        assert (tmp_path / "checkpoint.ckpt").exists()
        assert tr.phase.budget == 1 and tr.phase.phase == 2
        unread = [k for k in keys if k not in read]
        assert unread == [], f"keys the run never reads: {unread}"

    def test_a_key_set_twice_names_the_key_and_both_lines(self):
        with pytest.raises(ConfigError, match=r"seed: set twice, on lines 1 and 3"):
            config_mod.parse_text("seed = 1\ncamera.edge_border = 2\nseed = 2\n")

    def test_the_base_presets_values_are_not_repeats(self):
        cfg = config_mod.parse_text("camera.height = 20\n", base=config_mod.desk_config())
        assert (cfg.camera.height, cfg.camera.width) == (20, 16)

    def test_tuples_parse_from_comma_lists(self):
        cfg = config_mod.parse_text("terrain_mix = flat, gap, rough\n"
                                    "net.cnn_channels = 4, 8, 16\n")
        assert cfg.terrain_mix == ("flat", "gap", "rough")
        assert cfg.net.cnn_channels == (4, 8, 16)

    def test_every_numeric_key_has_a_bound(self):
        numeric = [k for k in config_keys() if isinstance(default_value(k), (int, float))]
        assert numeric and [k for k in numeric if k not in config_mod.BOUNDS] == []
        assert sorted(config_mod.BOUNDS) == sorted(numeric)
        # every numeric key counts something; none is a float
        assert [k for k in numeric if not isinstance(default_value(k), int)] == []

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), key=st.sampled_from(sorted(config_mod.BOUNDS)))
    def test_any_value_outside_a_bound_is_refused_naming_the_key(self, data, key):
        bound = config_mod.BOUNDS[key]
        value = data.draw(st.integers(max_value=bound.low - 1))
        cfg = config_mod.TrainConfig()
        *path, name = key.split(".")
        section = cfg
        for part in path:
            section = getattr(section, part)
        setattr(section, name, value)
        with pytest.raises(ConfigError) as exc:
            config_mod.validate(cfg)
        assert str(exc.value) == f"{key} = {value!r} is outside its range {bound}"

    @pytest.mark.parametrize("preset", sorted(config_mod.PRESETS))
    def test_every_preset_lies_inside_the_bounds(self, preset):
        cfg = config_mod.PRESETS[preset]()
        assert config_mod.validate(cfg) is cfg

    def test_a_config_built_in_code_is_refused_before_the_run_directory(self, tmp_path):
        cfg = config_mod.tiny_config(seed=-1)
        with pytest.raises(ConfigError, match="seed = -1 is outside its range"):
            Trainer(cfg, tmp_path / "run")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key, module, name, value", RETIRED_CONSTANTS,
                             ids=[case[0] for case in RETIRED_CONSTANTS])
    def test_a_retired_key_is_one_constant_with_its_old_value(self, key, module, name,
                                                               value):
        assert key in DELETED_KEYS
        assert key not in config_keys() and key not in config_mod.BOUNDS
        constant = getattr(importlib.import_module(f"redloco.{module}"), name)
        assert type(constant) is type(value) and constant == value
        # one module binds it; every other reader imports it, so no copy drifts
        src = Path(redloco.__file__).parent
        binders = [path.relative_to(src).with_suffix("").as_posix().replace("/", ".")
                   for path in sorted(src.rglob("*.py"))
                   if name in module_level_names(path)]
        assert binders == [module]

    def test_every_config_key_is_set_outside_the_tests(self):
        # a key stays only while a preset, a CLI flag, a program path or a
        # benchmark workload sets it; tests and examples are not callers
        src = Path(redloco.__file__).parent
        bench = src.parents[1] / "bench"
        paths = sorted(src.rglob("*.py")) + sorted(p for p in bench.glob("*.py")
                                                   if not p.name.startswith("test_"))
        assert any(p.parent == bench for p in paths)
        setters = config_setters(paths)
        unset = [k for k in config_keys() if k not in setters and k not in SETTER_EXEMPT]
        assert unset == [], f"keys only tests set, or nothing: {unset}"

    @pytest.mark.parametrize("code, keys", [
        ("cfg.camera.height = 12\ncfg.seed += 1\n", {"camera.height", "camera", "seed"}),
        ("self.seed = 3\n", set()),
        ("NetConfig(history_len=2)\nconfig_mod.tiny_config(seed=1, **kw)\n",
         {"net.history_len", "seed"}),
        ("dataclasses.replace(cfg.world, episode_steps=9)\nreplace(cfg, n_envs=2)\n",
         {"world.episode_steps", "n_envs"}),
        ("f(height=12)\nx = cfg.camera.width\n", set()),
    ], ids=["assignment", "self", "constructor", "replace", "reads"])
    def test_the_setter_scan_rules(self, tmp_path, code, keys):
        path = tmp_path / "case.py"
        path.write_text(code)
        assert config_setters([path]) == keys

    def test_camera_test_settings_lie_inside_the_bounds(self):
        for cam in (config_mod.CameraConfig(height=12, width=16),
                    config_mod.CameraConfig(height=48, width=64)):
            config_mod.validate(config_mod.TrainConfig(camera=cam))

    def test_presets_differ_in_camera_resolution(self):
        desk = config_mod.desk_config()
        paper = config_mod.paper_shape_config()
        assert (desk.camera.height, desk.camera.width) == (12, 16)
        assert (paper.camera.height, paper.camera.width) == (48, 64)
        assert paper.net.history_len == 10


class TestCli:
    def test_module_entry_point_runs_without_a_runtime_warning(self):
        src = str(Path(redloco.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "redloco.harness.cli",
             "--help"], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_importing_redloco_pins_blas_to_one_thread_unless_set(self):
        src = str(Path(redloco.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env.update(PYTHONPATH=src, MKL_NUM_THREADS="3")
        proc = subprocess.run(
            [sys.executable, "-c", "import os, redloco; print(*(os.environ[v] for v in "
             "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1", "3"]

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            cli(["train", "--bogus"])
        assert exc.value.code == 2

    def test_gradcheck_smoke_passes(self, capsys):
        assert cli(["gradcheck", "--instances", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "gru_cell" in out and "PASS" in out

    @pytest.mark.parametrize("argv, error, message", [
        (["render-depth", "--level", "10"], "ContractError", "level 10 outside 0..9"),
        (["render-depth", "--terrain", "volcano"], "ContractError",
         "unknown terrain kind 'volcano'"),
        (["render-depth", "--frames", "0"], "ContractError", "frames must be at least 1, got 0"),
        (["gradcheck", "--instances", "0"], "ContractError",
         "instances must be at least 1, got 0"),
        (["gradcheck", "--tolerance", "nan"], "ConfigError",
         "--tolerance: bad value nan, want a number above 0"),
        (["gradcheck", "--tolerance", "0"], "ConfigError",
         "--tolerance: bad value 0.0, want a number above 0"),
    ], ids=["level", "terrain", "frames", "instances", "tolerance-nan", "tolerance-zero"])
    def test_bad_render_and_gradcheck_flags_are_one_json_line_and_write_nothing(
            self, tmp_path, capsys, monkeypatch, argv, error, message):
        monkeypatch.chdir(tmp_path)
        out = ["--out", "frames"] * (argv[0] == "render-depth")
        assert cli(argv + out) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": error, "message": message}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("randomize", [False, True], ids=["raw", "randomize"])
    def test_render_depth_writes_text_frames(self, tmp_path, capsys, randomize):
        code = cli(["render-depth", "--terrain", "stairs_up", "--level", "3",
                    "--seed", "5", "--frames", "2", "--out", str(tmp_path)]
                   + ["--randomize"] * randomize)
        assert code == 0
        frames = sorted(tmp_path.glob("frame_*.txt"))
        assert len(frames) == 2
        assert frames[0].read_text().startswith("schema: depth-frame/v1")
        # the frames of a one-env batch world built from the seed's two children
        cfg = config_mod.desk_config()
        env_rng, render_rng = (np.random.default_rng(c)
                               for c in np.random.SeedSequence(5).spawn(2))
        world = BatchWorld(cfg.world, ["stairs_up"], [env_rng], [3])
        for path in frames:
            data, poses = render_batch(world, cfg.camera, [render_rng], randomize)
            assert path.read_text() == dump_text(data[0], poses[0], randomize)

    def test_train_cli_is_deterministic(self, tmp_path):
        cfg_file = tmp_path / "tiny.cfg"
        cfg = config_mod.tiny_config()
        cfg.iterations = 2
        config_mod.save(cfg, cfg_file)
        for name in ("a", "b"):
            code = cli(["train", "--config", str(cfg_file), "--preset", "tiny",
                        "--seed", "7", "--out", str(tmp_path / name)])
            assert code == 0
        assert ((tmp_path / "a" / "metrics.csv").read_text()
                == (tmp_path / "b" / "metrics.csv").read_text())
        assert ((tmp_path / "a" / "checkpoint.ckpt").read_bytes()
                == (tmp_path / "b" / "checkpoint.ckpt").read_bytes())

    def test_malformed_config_value_is_a_structured_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("camera.edge_border = abc\n")
        code = cli(["train", "--preset", "tiny", "--config", str(cfg_file),
                    "--out", str(tmp_path / "run")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert "camera.edge_border" in payload["message"] and "'abc'" in payload["message"]

    @pytest.mark.parametrize("text, named, out", [
        pytest.param("seed = 1\nseed = 2\n", "seed: set twice, on lines 1 and 2", "run",
                     id="repeat"),
        pytest.param("terrain_mix =\n", "terrain_mix: expected at least one", "run",
                     id="empty-mix"),
        pytest.param("out_dir =\n", "out_dir: expected a value", "run", id="empty-out-dir"),
        pytest.param("seed = 1\n", "--out: expected a path", "", id="empty-out-flag"),
        pytest.param("terrain_mix = flat, volcano\n", "terrain_mix: unknown terrain kind "
                     "'volcano'", "run", id="unknown-terrain"),
        *(pytest.param(f"{key} = 0.1\n", key, "run", id=key) for key in DELETED_KEYS),
        *(pytest.param(f"{key} = {raw}\n", f"{key} = {shown} is outside its range "
                       f"{config_mod.BOUNDS[key]}", "run", id=f"{key}={raw}")
          for key, raw, shown in [
              ("n_envs", "0", "0"), ("horizon", "0", "0"),
              ("net.history_len", "0", "0"), ("world.episode_steps", "0", "0"),
              ("camera.edge_border", "-1", "-1")]),
        *(pytest.param(f"{key} = {raw}\n", f"{key} = {raw} is outside its range "
                       f"{config_mod.BOUNDS[key]}", "run", id=f"bound:{key}={raw}")
          for key, raw in outside_bounds()),
        pytest.param("camera.edge_border = 6\n", "camera.edge_border = 6 crops the whole "
                     "12x16 frame", "run", id="edge-border-crops-the-frame"),
    ])
    def test_refused_config_is_one_json_line_and_writes_nothing(self, tmp_path, capsys,
                                                                 monkeypatch, text, named,
                                                                 out):
        # relative paths: an empty --out would be the working directory
        monkeypatch.chdir(tmp_path)
        Path("bad.cfg").write_text(text)
        code = cli(["train", "--preset", "tiny", "--config", "bad.cfg", "--out", out])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert named in payload["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("argv", [
        ["eval-noise", "--checkpoint", "missing.ckpt", "--beta", "0.1"],
        ["sweep-gamma", "--checkpoint", "missing.ckpt", "--beta", "0.1"],
        ["trace", "--checkpoint", "missing.ckpt", "--beta", "0.1"],
        ["render-depth"],
        ["calibrate-beta", "--checkpoint", "missing.ckpt"],
    ], ids=lambda argv: argv[0])
    def test_every_subcommand_refuses_an_empty_out(self, tmp_path, capsys, monkeypatch,
                                                   argv):
        monkeypatch.chdir(tmp_path)
        assert cli(argv + ["--out", ""]) == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload == {"error": "ConfigError",
                           "message": "--out: expected a path, got an empty one"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--iterations", "0")])
    def test_train_flags_outside_their_bounds_are_refused(self, tmp_path, capsys,
                                                         monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        assert cli(["train", "--preset", "tiny", flag, value, "--out", "run"]) == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        key = flag.removeprefix("--")
        assert payload == {"error": "ConfigError", "message": f"{key} = {value} is outside "
                           f"its range {config_mod.BOUNDS[key]}"}
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["eval-noise", "--checkpoint", "missing.ckpt", "--beta", "0.1", "--out", "out"],
        ["sweep-gamma", "--checkpoint", "missing.ckpt", "--beta", "0.1", "--out", "out"],
        ["trace", "--checkpoint", "missing.ckpt", "--beta", "0.1", "--out", "out"],
        ["calibrate-beta", "--checkpoint", "missing.ckpt", "--out", "out"],
        ["render-depth", "--out", "out"],
        ["gradcheck", "--instances", "1"],
    ], ids=lambda argv: argv[0])
    def test_a_negative_seed_is_refused_before_anything_runs(self, tmp_path, capsys,
                                                             monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert cli(argv + ["--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ContractError",
                                        "message": "seed must be at least 0, got -1"}
        assert list(tmp_path.iterdir()) == []

    def test_rollout_abort_is_a_structured_error(self, tmp_path, capsys, monkeypatch):
        # a reward phase that returns NaN aborts the rollout
        real = runner_mod.compute_reward

        def nan_reward(*args):
            reward = real(*args)
            reward.total[:] = np.nan
            return reward

        monkeypatch.setattr(runner_mod, "compute_reward", nan_reward)
        code = cli(["train", "--preset", "tiny", "--iterations", "3",
                    "--out", str(tmp_path / "run")])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "RolloutAbort"
        assert re.search(r"at iteration \d+; see .*diagnostics_iter\d+\.json",
                         payload["message"])

    def test_eval_noise_requires_beta(self, tmp_path, capsys):
        code = cli(["eval-noise", "--checkpoint", "missing.ckpt",
                    "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert json.loads(err.strip())["error"] == "ConfigError"

    def test_missing_checkpoint_is_a_structured_error(self, tmp_path, capsys):
        code = cli(["trace", "--checkpoint", str(tmp_path / "nope.ckpt"),
                    "--beta", "0.1", "--out", str(tmp_path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("checkpoint, error", [
        ("missing", "FileNotFoundError"), ("corrupt", "CheckpointError"),
        ("directory", "IsADirectoryError")])
    @pytest.mark.parametrize("cmd", ["eval-noise", "sweep-gamma", "trace"])
    def test_an_unloadable_checkpoint_is_refused_before_out_is_made(
            self, tmp_path, capsys, monkeypatch, cmd, checkpoint, error):
        monkeypatch.chdir(tmp_path)
        Path("corrupt").write_bytes(b"not a checkpoint")
        Path("directory").mkdir()
        assert cli([cmd, "--checkpoint", checkpoint, "--beta", "0.1", "--out", "out"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == error and checkpoint in payload["message"]
        assert not Path("out").exists()

    @pytest.mark.parametrize("argv, error", [
        (["train", "--preset", "tiny", "--iterations", "1", "--out", "taken"],
         "FileExistsError"),
        (["render-depth", "--out", "taken"], "FileExistsError"),
        (["train", "--preset", "tiny", "--config", "directory", "--out", "run"],
         "IsADirectoryError"),
    ], ids=["train-out-file", "render-out-file", "train-config-dir"])
    def test_an_os_error_is_one_json_line_and_makes_nothing(self, tmp_path, capsys,
                                                           monkeypatch, argv, error):
        monkeypatch.chdir(tmp_path)
        Path("taken").write_text("a file, not a directory\n")
        Path("directory").mkdir()
        assert cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == error
        assert ("taken" if "taken" in argv else "directory") in payload["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["directory", "taken"]
        assert Path("taken").read_text() == "a file, not a directory\n"

    @pytest.mark.parametrize("command", ["nan", "inf", "-inf"])
    def test_a_non_finite_command_is_refused_before_loading(self, tmp_path, capsys,
                                                            command):
        code = cli(["eval-noise", f"--command={command}", "--beta", "0.1",
                    "--checkpoint", str(tmp_path / "missing.ckpt"),
                    "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "ContractError",
            "message": f"command must be a finite speed, got {float(command)}"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, flag, token", [
        (["eval-noise", "--conditions", "gaussian"], "--conditions", "gaussian"),
        (["eval-noise", "--conditions", "gaussian:30,foo:30"], "--conditions", "foo:30"),
        (["eval-noise", "--conditions", "salt_pepper:lots"], "--conditions", "salt_pepper:lots"),
        (["trace", "--noise", "occlusion"], "--noise", "occlusion"),
        (["trace", "--noise", "smoke:0:10"], "--noise", "smoke:0:10"),
        (["sweep-gamma", "--gammas", "a"], "--gammas", "a"),
        (["sweep-gamma", "--gammas", "0.1,0"], "--gammas", "0"),
        (["trace", "--noise", "occlusion:0:300:200"], "--noise", "occlusion:0:300:200"),
        (["trace", "--noise", "occlusion:0:300:300"], "--noise", "occlusion:0:300:300"),
    ])
    def test_malformed_noise_and_gamma_flags_are_refused_before_loading(
            self, tmp_path, capsys, argv, flag, token):
        code = cli(argv + ["--checkpoint", str(tmp_path / "missing.ckpt"), "--beta", "0.1",
                           "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert flag in payload["message"] and repr(token) in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_noise_conditions_that_share_a_name_are_refused_before_loading(
            self, tmp_path, capsys):
        # both would write velocity_gaussian_30.csv and traces_gaussian_30.jsonl
        code = cli(["eval-noise", "--conditions", "gaussian:30,gaussian:30.4",
                    "--checkpoint", str(tmp_path / "missing.ckpt"), "--beta", "0.1",
                    "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ContractError"
        message = payload["message"]
        assert "gaussian:30 " in message and "gaussian:30.4" in message
        assert "'gaussian_30'" in message
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, named", [("beta = abc", "'abc'"),
                                             ("beta_old = 7", "no beta entry")],
                             ids=["not_a_number", "no_beta_line"])
    def test_malformed_beta_file_names_the_file_and_the_value(self, tmp_path, capsys, line,
                                                              named):
        beta_file = tmp_path / "beta.cfg"
        beta_file.write_text(f"# schema: beta-calibration/v1\n{line}\n")
        code = cli(["eval-noise", "--checkpoint", str(tmp_path / "missing.ckpt"),
                    "--beta-file", str(beta_file), "--out", str(tmp_path / "out")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"] == "ConfigError"
        assert str(beta_file) in payload["message"] and named in payload["message"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("source", ["--beta", "--beta-file"])
    @pytest.mark.parametrize("cmd", ["eval-noise", "sweep-gamma", "trace"])
    def test_a_non_finite_beta_is_refused_naming_its_source_before_loading(
            self, tmp_path, capsys, monkeypatch, cmd, source, value):
        monkeypatch.chdir(tmp_path)
        if source == "--beta":
            given, named = ["--beta", value], f"--beta: bad value {value}, want a finite number"
        else:
            Path("beta.cfg").write_text(f"# schema: beta-calibration/v1\nbeta = {value}\n")
            given = ["--beta-file", "beta.cfg"]
            named = f"beta.cfg: beta value '{value}' is not finite"
        # the checkpoint is missing, so refusing after the load would name the file
        assert cli([cmd, "--checkpoint", "missing.ckpt", *given, "--out", "out"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ConfigError", "message": named}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["beta.cfg"] * (source != "--beta")

    @pytest.mark.parametrize("text, want", [
        ("# schema: beta-calibration/v1\nbetamax = 3\nbeta = 0.02\n", 0.02),
        ("# schema: beta-calibration/v1\nbeta_old = 7\n", None),
    ], ids=["longer_key_first", "only_a_longer_key"])
    def test_beta_file_reads_the_key_beta_exactly(self, tmp_path, text, want):
        beta_file = tmp_path / "beta.cfg"
        beta_file.write_text(text)
        if want is None:
            with pytest.raises(ConfigError, match="no beta entry"):
                read_beta_file(beta_file)
        else:
            assert read_beta_file(beta_file) == want

    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_calibrate_beta_refuses_an_unwritable_out_before_it_calibrates(
            self, tmp_path, capsys, monkeypatch, where):
        def calibrate(*args, **kwargs):
            raise AssertionError("calibrated before --out was checked")

        monkeypatch.setattr(cli_mod, "calibrate_beta_run", calibrate)
        out = tmp_path if where == "directory" else tmp_path / "missing" / "beta.cfg"
        code = cli(["calibrate-beta", "--checkpoint", str(tmp_path / "missing.ckpt"),
                    "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ConfigError"
        assert "--out" in payload["message"] and str(out) in payload["message"]
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv, field", [
        (["eval-noise", "--beta", "0.1", "--robots", "0"], "robots"),
        (["eval-noise", "--beta", "0.1", "--steps", "0"], "steps"),
        (["eval-noise", "--beta", "0.1", "--steps", "399"], "steps 399"),
        (["eval-noise", "--beta", "0.1", "--onset", "50"], "noise_onset 50"),
        (["eval-noise", "--beta", "0.1", "--onset", "201"], "noise_onset 201"),
        (["calibrate-beta", "--episodes", "0"], "episodes"),
        (["calibrate-beta", "--steps", "0"], "steps"),
        (["sweep-gamma", "--beta", "0.1", "--steps", "500"], "551"),
        (["sweep-gamma", "--beta", "0.1", "--steps", "550"], "551"),
    ])
    def test_runs_too_small_to_measure_are_refused_before_loading(self, tmp_path, capsys,
                                                                   argv, field):
        code = cli(argv + ["--checkpoint", str(tmp_path / "missing.ckpt"),
                           "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ContractError"
        assert field in payload["message"]
        if field == "551":
            assert "steps" in payload["message"]
        if field in ("steps 399", "noise_onset 50", "noise_onset 201"):   # summary windows
            assert "[50, noise_onset)" in payload["message"]
            assert "[200, 400)" in payload["message"]
        if field.startswith("noise_onset"):
            assert "[51, 200]" in payload["message"]
        assert not (tmp_path / "out").exists()

    def test_trace_onset_past_the_episode_names_steps_and_the_onset_range(self, tmp_path,
                                                                         capsys):
        # the default --noise occlusion:0:150:300 starts after a 100-step episode
        code = cli(["trace", "--checkpoint", str(tmp_path / "missing.ckpt"), "--beta", "0.1",
                    "--steps", "100", "--out", str(tmp_path / "out")])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ContractError"
        message = payload["message"]
        assert "onset 150" in message and "steps is 100" in message and "[0, 99]" in message
        assert not (tmp_path / "out").exists()
