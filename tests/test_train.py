import numpy as np
import pytest

from evsynth.core import LogDiffSeq, SpikeTrain
from evsynth.errors import ConfigError, DivergenceError
from evsynth.refsim import RefSimConfig
from evsynth.scenegen import NoiseModel, SceneSpec, bar_edges
from evsynth.spikenet import SpikeNetConfig, forward
from evsynth.train import (AdamState, DatasetPair, TrainConfig,
                           adam_step, clip_global_norm, make_dataset, train,
                           write_history_csv)

QUIET = RefSimConfig(theta=0.2, sigma_theta=0.0, init_mode="zero",
                     leak_rate=0.0, shot_rate=0.0)


def small_scene(kind="moving_edge", **kw):
    base = dict(width=12, height=10, fps=1000.0, duration=0.08, velocity=150.0,
                seed=4)
    base.update(kw)
    return SceneSpec(kind, **base)


def test_static_noise_free_dataset_is_all_zero():
    pairs = make_dataset([small_scene(velocity=0.0)], NoiseModel(gain=0.0),
                         QUIET)
    assert len(pairs) == 1
    assert not pairs[0].e.data.any()
    assert np.abs(pairs[0].x.data).max() == 0.0


def test_make_dataset_deterministic():
    scenes = [small_scene(), small_scene("grating")]
    a = make_dataset(scenes, NoiseModel(seed=1), QUIET)
    b = make_dataset(scenes, NoiseModel(seed=1), QUIET)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.x.data, pb.x.data)
        assert np.array_equal(pa.e.data, pb.e.data)


def test_moving_edge_events_near_analytic_trajectory():
    spec = small_scene(width=48, height=8, duration=0.2, velocity=100.0)
    pairs = make_dataset([spec], NoiseModel(gain=0.0), QUIET)
    e = pairs[0].e
    ks, ys, xs = np.nonzero(e.data)
    assert len(ks) > 0
    lead, trail = bar_edges(spec, ks)
    w = spec.width
    centers = xs + 0.5
    d_lead = np.minimum((centers - lead) % w, (lead - centers) % w)
    d_trail = np.minimum((centers - trail) % w, (trail - centers) % w)
    near = np.minimum(d_lead, d_trail) <= 1.0
    assert near.mean() >= 0.90


def test_adam_zero_grads_keep_params():
    params = [np.array([1.0, -2.0]), np.array([[3.0]])]
    state = AdamState.for_tensors(params)
    out, state = adam_step(params, [np.zeros(2), np.zeros((1, 1))], state, 0.1)
    assert all(np.array_equal(a, b) for a, b in zip(out, params))
    assert state.t == 1


def test_adam_constant_grad_approaches_lr_sign():
    params = [np.array([0.0])]
    state = AdamState.for_tensors(params)
    g = [np.array([0.37])]
    lr = 1e-3
    prev = params
    for _ in range(1000):
        prev, cur = params, None
        params, state = adam_step(params, g, state, lr)
    step = prev[0][0] - params[0][0]
    assert step == pytest.approx(lr, rel=0.01)  # -> lr * sign(g)


def test_adam_is_elementwise():
    gen = np.random.default_rng(0)
    p = [gen.normal(size=5)]
    g = [gen.normal(size=5)]
    perm = np.array([3, 1, 4, 0, 2])
    out, _ = adam_step(p, g, AdamState.for_tensors(p), 0.01)
    out_p, _ = adam_step([p[0][perm]], [g[0][perm]],
                         AdamState.for_tensors([p[0][perm]]), 0.01)
    assert np.allclose(out[0][perm], out_p[0])


def test_clip_global_norm():
    grads = [np.array([3.0]), np.array([4.0])]
    clipped, norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum((g ** 2).sum() for g in clipped))
    assert total == pytest.approx(1.0)
    same, _ = clip_global_norm(grads, 10.0)
    assert all(np.array_equal(a, b) for a, b in zip(same, grads))


def _tiny_dataset(all_zero_targets=False, seed=0):
    scenes = [small_scene(seed=seed),
              small_scene("grating", seed=seed + 1)]
    noise = NoiseModel(spp=64, gain=0.5, seed=seed)
    pairs = make_dataset(scenes, noise, QUIET)
    if all_zero_targets:
        for p in pairs:
            p.e = SpikeTrain(p.e.width, p.e.height, p.e.fps,
                             np.zeros_like(p.e.data))
    return pairs


def _tiny_net():
    return SpikeNetConfig(channels=6, kernel=3, depth=1)


def test_degenerate_zero_target_convergence():
    # all-zero targets: after training the net emits zero spikes on holdout
    pairs = _tiny_dataset(all_zero_targets=True)
    cfg = _tiny_net()
    tcfg = TrainConfig(epochs=10, batch=24, lr=2e-3, seed=1, holdout=0.1)
    params, history = train(pairs, cfg, tcfg)
    xs = np.concatenate([p.x.pixel_sequences() for p in pairs])
    spikes, _ = forward(xs, params, cfg, mode="hard")
    assert not spikes.any()
    assert history[-1][1] <= history[0][1]


def test_history_shape_and_finiteness():
    pairs = _tiny_dataset()
    tcfg = TrainConfig(epochs=3, batch=32, lr=1e-3, seed=0)
    _, history = train(pairs, _tiny_net(), tcfg)
    assert len(history) == 3
    assert all(np.isfinite(tr) and np.isfinite(ho) for _, tr, ho in history)
    assert [ep for ep, _, _ in history] == [1, 2, 3]


def test_training_is_reproducible():
    pairs = _tiny_dataset()
    tcfg = TrainConfig(epochs=2, batch=32, lr=1e-3, seed=7)
    p1, h1 = train(pairs, _tiny_net(), tcfg)
    p2, h2 = train(pairs, _tiny_net(), tcfg)
    assert h1 == h2
    assert all(np.array_equal(a, b) for a, b in zip(p1.tensors(), p2.tensors()))


def test_holdout_pixels_never_contribute_gradients():
    # corrupting only the holdout pixels' inputs/targets leaves the final
    # parameters bit-identical
    pairs = _tiny_dataset()
    tcfg = TrainConfig(epochs=2, batch=32, lr=1e-3, seed=3, holdout=0.2)

    xs = np.concatenate([p.x.pixel_sequences() for p in pairs])
    n_pix = xs.shape[0]
    gen = np.random.default_rng(tcfg.seed)
    perm = gen.permutation(n_pix)
    hold = perm[:int(round(tcfg.holdout * n_pix))]

    p_ref, _ = train(pairs, _tiny_net(), tcfg)

    k = pairs[0].x.k
    w, h = pairs[0].x.width, pairs[0].x.height
    corrupted = []
    offset = 0
    for p in pairs:
        x = p.x.pixel_sequences()
        e = p.e.pixel_sequences().copy()
        local = hold[(hold >= offset) & (hold < offset + x.shape[0])] - offset
        x[local] += 5.0
        e[local] = 1 - np.abs(e[local])  # scramble targets too
        corrupted.append(DatasetPair(
            LogDiffSeq(w, h, 1000.0, x.reshape(h, w, k).transpose(2, 0, 1)),
            SpikeTrain(w, h, 1000.0, e.reshape(h, w, k).transpose(2, 0, 1))))
        offset += x.shape[0]

    p_corrupt, _ = train(corrupted, _tiny_net(), tcfg)
    assert all(np.array_equal(a, b) for a, b in zip(p_ref.tensors(),
                                                    p_corrupt.tensors()))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_raises():
    pairs = _tiny_dataset()
    tcfg = TrainConfig(epochs=3, batch=32, lr=1e18, clip=1e18, seed=0)
    with pytest.raises(DivergenceError):
        train(pairs, _tiny_net(), tcfg)


def test_checkpoints_written_per_epoch(tmp_path):
    pairs = _tiny_dataset()
    tcfg = TrainConfig(epochs=2, batch=32, lr=1e-3, seed=0)
    train(pairs, _tiny_net(), tcfg, checkpoint_dir=tmp_path)
    assert (tmp_path / "epoch_001.evsn").exists()
    assert (tmp_path / "epoch_002.evsn").exists()


def test_history_csv(tmp_path):
    path = tmp_path / "history.csv"
    write_history_csv([(1, 0.5, 0.6), (2, 0.25, 0.3)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,holdout_loss"
    assert lines[1] == "1,0.5,0.6"


def test_empty_dataset_rejected():
    with pytest.raises(ValueError):
        train([], _tiny_net(), TrainConfig(epochs=1))


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(holdout=0.7)
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    for bad in (dict(lr=np.inf), dict(lr=np.nan), dict(seed=-1)):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
