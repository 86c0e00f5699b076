"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
report. The behavioral criteria share one desk-scale trained checkpoint
(session fixture); the property criteria are self-contained.
"""

import dataclasses
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from redloco.config import tiny_config
from redloco.estimators import fuse_batch
from redloco.harness import (ExperimentSpec, NoiseEvent, run_episode, run_gamma_sweep,
                             run_noise_robustness, run_trace)
from redloco.harness.verify import run_full_suite
from redloco.nn import load_checkpoint, save_checkpoint
from redloco.selector import MODE_OP, filter_update, make_selector, min_flip_ticks
from redloco.sensor import (edge_truncate_resize, inject_gaussian, inject_salt_pepper,
                            render_batch)
from redloco.sensor.camera import FOV_H, FOV_V, MAX_RANGE, MIN_DEPTH, MOUNT_PITCH
from redloco.training import load_bundle, train
from redloco.training.runner import TICK_PERIOD
from redloco.training.schedule import FLIP_PERIOD
from redloco.world import BatchWorld, generate_terrain, linear_velocity_reward
from redloco.world.batch import STAND_HEIGHT
from redloco.world.terrain import CELL_SIZE
from redloco.config import CameraConfig, WorldConfig


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -------------------------------------------------------------------------
def test_criterion_1_gradient_fidelity():
    t0 = time.time()
    results = run_full_suite(instances=20, seed=0)
    elapsed = time.time() - t0
    worst = max(results.values())
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, ok, f"max FD rel err {worst:.2e} over {len(results)} kinds/losses "
                  f"x20 instances in {elapsed:.1f}s")


# -------------------------------------------------------------------------
def _oracle_filter(gamma, votes, p0=1.0):
    p = p0
    out = []
    for v in votes:
        p = (1.0 - gamma) * p + gamma * v
        out.append(p)
    return out


def test_criterion_2_filter_recurrence_oracle():
    patterns = {
        "step": [0.0] * 40,
        "impulse": [1.0] * 10 + [0.0] + [1.0] * 29,
        "alternating": [1.0, 0.0] * 20,
    }
    worst = 0.0
    for gamma in (0.05, 0.1, 0.3, 1.0):
        for name, votes in patterns.items():
            losses = [0.5 if v == 1.0 else 2.0 for v in votes]  # beta = 1.0
            state = make_selector(1.0, gamma)
            got = []
            for lv in losses:
                state = filter_update(state, lv)
                got.append(state.p)
            want = _oracle_filter(gamma, votes)
            worst = max(worst, float(np.abs(np.array(got) - np.array(want)).max()))
    state = make_selector(1.0, 0.1)
    flip_tick = None
    for k in range(1, 20):
        state = filter_update(state, 2.0)
        if state.mode == MODE_OP:
            flip_tick = k
            break
    ok = worst <= 1e-12 and flip_tick == 7
    report(2, ok, f"oracle max |dP| {worst:.2e}; step-input flip at tick {flip_tick}")


# -------------------------------------------------------------------------
def test_criterion_3_tracking_reward_oracle():
    def direct(c_x, v_along, v_norm):
        return (min(v_along, c_x) / (c_x + 1e-5)) if c_x != 0.0 else 1.0 / (1.0 + v_norm)

    rng = np.random.default_rng(3)
    grid = [(0.0, 0.0, 0.0), (0.0, 0.3, 1.0)]
    for c in np.concatenate([[0.0], np.linspace(0.01, 1.2, 9)]):
        for va in np.linspace(-1.0, 1.5, 11):
            for vn in np.linspace(0.0, 2.0, 10):
                grid.append((float(c), float(va), float(vn)))
    worst = max(abs(linear_velocity_reward(c, va, vn) - direct(c, va, vn))
                for c, va, vn in grid)
    exact_rest = linear_velocity_reward(0.0, 0.0, 0.0) == 1.0
    exact_unit = linear_velocity_reward(0.0, 0.5, 1.0) == 0.5
    ok = len(grid) >= 1000 and worst <= 1e-12 and exact_rest and exact_unit
    report(3, ok, f"{len(grid)} grid points, max |dr| {worst:.2e}, "
                  f"boundaries exact: {exact_rest and exact_unit}")


# -------------------------------------------------------------------------
def test_criterion_4_raycast_oracle():
    cam = CameraConfig(height=12, width=16)
    cfg = WorldConfig()
    worst = 0.0

    def angles():
        rows = MOUNT_PITCH + np.linspace(-FOV_V / 2, FOV_V / 2, cam.height)
        cols = np.linspace(-FOV_H / 2, FOV_H / 2, cam.width)
        return rows, cols

    # flat: ray-plane closed form
    w = BatchWorld(cfg, ["flat"], [np.random.default_rng(0)])
    w.pitch[0] = 0.0
    frames, poses = render_batch(w, cam, [None], randomize=False)
    img, (_, cam_z, _, _) = frames[0], poses[0]
    rows, _ = angles()
    expect = np.where(np.sin(rows) > 1e-12, cam_z / np.maximum(np.sin(rows), 1e-12),
                      MAX_RANGE)
    expect = np.clip(expect, MIN_DEPTH, MAX_RANGE)
    worst = max(worst, float(np.abs(img - expect[:, None]).max()))

    # single step: piecewise closed form per pixel
    hf = generate_terrain("flat", 0, 0)
    step_x, step_h = 6.0, 0.4
    hf.heights[int(step_x / CELL_SIZE):] = step_h
    w.set_terrain(0, hf)
    w.x[0], w.z[0] = 5.0, STAND_HEIGHT
    frames, poses = render_batch(w, cam, [None], randomize=False)
    img2, (cam_x, cam_z, _, _) = frames[0], poses[0]
    rows, cols = angles()
    for r in range(cam.height):
        for c in range(cam.width):
            dz = -np.sin(rows[r])
            dx = np.cos(rows[r]) * np.cos(cols[c])
            best = MAX_RANGE
            if dz < 0:
                t = -cam_z / dz
                if cam_x + t * dx < step_x:
                    best = min(best, t)
                t_top = (step_h - cam_z) / dz
                if t_top > 0 and cam_x + t_top * dx >= step_x:
                    best = min(best, t_top)
            t_wall = (step_x - cam_x) / dx
            if t_wall > 0 and 0.0 <= cam_z + t_wall * dz < step_h:
                best = min(best, t_wall)
            want = np.clip(best, MIN_DEPTH, MAX_RANGE)
            worst = max(worst, abs(float(img2[r, c]) - want))

    # range invariant across pipeline stages
    rng = np.random.default_rng(1)

    def randomized():
        return render_batch(w, cam, [rng], randomize=True)[0][0]

    in_range = True
    for stage in (img, img2,
                  randomized(),
                  edge_truncate_resize(randomized(), 2),
                  inject_gaussian(randomized(), 100.0, rng, MAX_RANGE, MIN_DEPTH),
                  inject_salt_pepper(randomized(), 70.0, rng, MAX_RANGE, MIN_DEPTH)):
        in_range &= stage.min() > 0 and stage.max() <= 2.0
    ok = worst < 1e-6 and in_range
    report(4, ok, f"max closed-form deviation {worst:.2e} m; all stages in (0, 2]: {in_range}")


# -------------------------------------------------------------------------
@given(st.integers(0, 2 ** 31 - 1), st.integers(0, 1))
@settings(max_examples=200, deadline=None)
def test_criterion_5_property_fused_halves(seed, mask):
    rng = np.random.default_rng(seed)
    h_b = rng.standard_normal(32)
    h_v = rng.standard_normal(32)
    fused = fuse_batch(h_b[None], h_v[None], np.array([mask]))[0]
    active, zeroed = (fused[:32], fused[32:]) if mask == 1 else (fused[32:], fused[:32])
    source = h_b if mask == 1 else h_v
    assert (zeroed == 0.0).all()
    assert active.tobytes() == source.tobytes()


def test_criterion_5_width_invariance_over_simulated_switches():
    rng = np.random.default_rng(5)
    widths = set()
    bad = 0
    mask = 0
    for _ in range(10_000):
        mask ^= 1
        h = fuse_batch(rng.standard_normal((1, 32)), rng.standard_normal((1, 32)),
                       np.array([mask]))[0]
        widths.add(h.shape)
        bad += not np.isfinite(h).all()
    ok = widths == {(64,)} and bad == 0
    report(5, ok, f"10k mode switches: widths {widths}, non-finite latents {bad} "
                  f"(plus 200 hypothesis cases for exclusivity)")


# -------------------------------------------------------------------------
def test_criterion_6_selector_separation(joint_run, calibrated_beta):
    beta = calibrated_beta["beta"]
    ckpt = str(joint_run.checkpoint)
    cfg, nets, _ = load_bundle(ckpt)

    # held-out clean frames: the calibration protocol re-run on a fresh seed,
    # spanning the same terrain mix and levels
    from redloco.harness import calibrate_beta_run
    held = calibrate_beta_run(ckpt, episodes=12, seed=99)
    frac_clean_below = float(np.mean(np.array(held["losses"]) < beta))

    base = ExperimentSpec("sep", ckpt, beta, robots=12, command=0.6, steps=400,
                          noise_onset=150, seed=101)
    sp = dataclasses.replace(base, noise_events=[NoiseEvent("salt_pepper", 70.0, 150)])
    sp_ep = run_episode(cfg, nets, sp, "auto")
    sp_losses = sp_ep.losses[150 // TICK_PERIOD + 1:]
    sp_losses = sp_losses[np.isfinite(sp_losses)]
    frac_sp_above = float(np.mean(sp_losses > beta))

    occ = dataclasses.replace(base, noise_events=[NoiseEvent("occlusion", 0.0, 150)])
    occ_ep = run_episode(cfg, nets, occ, "auto")
    occ_losses = occ_ep.losses[150 // TICK_PERIOD + 1:]
    occ_losses = occ_losses[np.isfinite(occ_losses)]
    frac_occ_above = float(np.mean(occ_losses > beta))

    duration_ok = joint_run.duration < 30 * 60
    ok = (frac_clean_below >= 0.95 and frac_sp_above >= 0.95
          and frac_occ_above == 1.0 and duration_ok)
    report(6, ok, f"beta {beta:.4f}: clean held-out below {frac_clean_below:.3f} "
                  f"(>=0.95), sp70 above {frac_sp_above:.3f} (>=0.95), occlusion "
                  f"above {frac_occ_above:.3f} (==1.0), trained in "
                  f"{joint_run.duration / 60:.1f} min (<30)")


# -------------------------------------------------------------------------
def test_criterion_7_noise_protocol(joint_run, calibrated_beta, tmp_path):
    spec = ExperimentSpec("fig6", str(joint_run.checkpoint), calibrated_beta["beta"],
                          robots=20, command=0.6, steps=600, noise_onset=150, seed=0)
    summary = run_noise_robustness(spec, tmp_path)
    lines = []
    ok = True
    for c in summary["conditions"]:
        switched = c["max_switch_delay_ticks"]
        holds = (0 < switched <= 15
                 and c["post_mean_auto"] >= 0.8 * c["pre_mean_auto"]
                 and c["tracking_err_vp_only"] > c["tracking_err_auto"])
        ok &= holds
        lines.append(f"{c['condition']}: delay {switched}t, "
                     f"vel {c['post_mean_auto']:.2f}/{c['pre_mean_auto']:.2f}, "
                     f"err auto {c['tracking_err_auto']:.3f} < vp "
                     f"{c['tracking_err_vp_only']:.3f}: {holds}")
    report(7, ok, "; ".join(lines))


# -------------------------------------------------------------------------
def test_criterion_8_gamma_sweep(joint_run, calibrated_beta, tmp_path):
    spec = ExperimentSpec("fig7", str(joint_run.checkpoint), calibrated_beta["beta"],
                          robots=8, command=0.6, steps=650, seed=1)
    res = run_gamma_sweep(spec, [0.05, 0.1, 0.3, 1.0], tmp_path)
    rows = {r["gamma"]: r for r in res["rows"]}
    counts_ok = rows[0.1]["switch_count"] < rows[1.0]["switch_count"]
    delays = [rows[g]["predicted_delay_ticks"] for g in (0.05, 0.1, 0.3, 1.0)]
    noninc = all(b <= a for a, b in zip(delays, delays[1:]))
    exact = all(
        d == rows[g]["predicted_delay_ticks"] == min_flip_ticks(g)
        for g in (0.05, 0.1, 0.3, 1.0) for d in rows[g]["first_onset_delays"])
    oracle = all(r["recurrence_max_p_err"] <= 1e-12 and r["recurrence_flips_match"]
                 for r in res["rows"])
    ok = counts_ok and noninc and exact and oracle
    report(8, ok, f"switches at 0.1: {rows[0.1]['switch_count']} < at 1.0: "
                  f"{rows[1.0]['switch_count']}; delays {delays} nonincreasing; "
                  f"first-onset delays exact: {exact}; recurrence match: {oracle}")


# -------------------------------------------------------------------------
def test_criterion_9_adaptation_schedule_audit(tmp_path):
    cfg = tiny_config()
    cfg.seed = 3
    cfg.n_envs = 6
    cfg.horizon = 16
    cfg.iterations = 100
    cfg.terrain_mix = ("flat", "gap", "stairs_up", "platform", "rough", "flat")
    res = train(cfg, tmp_path / "audit")
    rows = [ln.split(",") for ln in res.masks_log.read_text().splitlines()[2:]]
    assert len(rows) == 100 * cfg.n_envs
    from redloco.training import AdaptationSchedule
    sched = AdaptationSchedule(list(cfg.terrain_mix), FLIP_PERIOD)
    violations = 0
    for it_s, env_s, kind, cls, mask_s in rows:
        it, env, mask = int(it_s), int(env_s), int(mask_s)
        if cls == "difficult":
            violations += mask != 0
        else:
            violations += mask != (((it // 20) % 2) ^ sched.offsets[env])
    ok = violations == 0
    report(9, ok, f"{len(rows)} logged masks over 100 iterations, {violations} violations")


# -------------------------------------------------------------------------
def test_criterion_10_determinism_and_persistence(tmp_path):
    cfg_a = tiny_config()
    cfg_a.iterations = 4
    cfg_a.terrain_mix = ("flat", "gap")
    run_a = train(cfg_a, tmp_path / "a")
    cfg_b = tiny_config()
    cfg_b.iterations = 4
    cfg_b.terrain_mix = ("flat", "gap")
    run_b = train(cfg_b, tmp_path / "b")
    metrics_same = run_a.metrics.read_text() == run_b.metrics.read_text()
    ckpt_same = run_a.checkpoint.read_bytes() == run_b.checkpoint.read_bytes()

    # container round-trip is bit-exact
    entries, meta = load_checkpoint(run_a.checkpoint)
    save_checkpoint(tmp_path / "resaved.ckpt", entries, meta)
    roundtrip = (tmp_path / "resaved.ckpt").read_bytes() == run_a.checkpoint.read_bytes()

    # a restored checkpoint reproduces evaluation outputs
    spec = ExperimentSpec("det", str(run_a.checkpoint), beta=0.5, robots=1,
                          steps=120, seed=11,
                          noise_events=[NoiseEvent("occlusion", 0.0, 60, 90)])
    s1 = run_trace(spec, tmp_path / "t1")
    s2 = run_trace(spec, tmp_path / "t2")
    t1 = (tmp_path / "t1" / "trace.jsonl").read_text()
    t2 = (tmp_path / "t2" / "trace.jsonl").read_text()
    ok = metrics_same and ckpt_same and roundtrip and t1 == t2
    report(10, ok, f"metrics identical: {metrics_same}, checkpoints identical: "
                   f"{ckpt_same}, container round-trip: {roundtrip}, "
                   f"replayed eval identical: {t1 == t2}")


# -------------------------------------------------------------------------
def test_criterion_11_learning_smoke(flat_smoke_run):
    import csv
    import io
    rows = [r for r in flat_smoke_run.metrics.read_text().splitlines()
            if not r.startswith("#")]
    data = list(csv.DictReader(io.StringIO("\n".join(rows))))
    lin_tail = float(np.mean([float(d["mean_lin_vel"]) for d in data[-20:]]))
    losses = {}
    for key in ("loss_op", "loss_vp", "loss_ad"):
        vals = [float(d[key]) for d in data if np.isfinite(float(d[key]))]
        head = float(np.mean(vals[:10]))
        tail = float(np.mean(vals[-10:]))
        losses[key] = (head, tail)
    decreasing = all(tail < 0.25 * head for head, tail in losses.values())
    duration_ok = flat_smoke_run.duration < 600
    ok = lin_tail > 0.5 and decreasing and duration_ok
    detail = ", ".join(f"{k} {h:.3f}->{t:.3f}" for k, (h, t) in losses.items())
    report(11, ok, f"final tracking {lin_tail:.3f} (>0.5); losses {detail} "
                   f"(each <25% of initial); within budget: {duration_ok}")
