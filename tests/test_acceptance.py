"""Release gate: one test per shipping criterion.

Each test carries an `acceptance` marker; the terminal summary prints one
PASS/FAIL line per criterion. Numeric thresholds that were fixed from the
first pinned-seed desk-scale measurement are enforced here as regressions.
"""

import csv
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import check_grad, rel_err, rng
from fdcnet.cli import main
from fdcnet.dataset import build_dataset, load_dataset
from fdcnet.kernels import (
    batch_norm,
    conv1d,
    conv1d_transposed,
    dct_forward,
    dct_inverse,
    dct_matrix,
    gelu,
    layer_norm,
    linear,
    relu,
    sigmoid,
    softmax,
)
from fdcnet.model import FdcNet, ModelConfig
from fdcnet.model.classifier import classify_forward
from fdcnet.model.denoiser import denoise_forward
from fdcnet.model.feedback import feature_enhance, joint_loss
from fdcnet.model.gate import ChannelGate, channel_stats, modulate
from fdcnet.model.pe import BandLimitedPE, sinusoid_table
from fdcnet.noise import NoiseSpec, inject_noise
from fdcnet.optim import AdamW
from fdcnet.synth import SynthSpec
from fdcnet.tensor import GradTape, Tensor, backward, mul, no_grad, sub, swapaxes, tsum
from fdcnet.trainer import TrainConfig, curriculum_snr, evaluate, read_eval_csv

README = Path(__file__).resolve().parent.parent / "README.md"


# -- criterion: paper-scale results are documented as out of scope ------------


@pytest.mark.acceptance("paper-scale results documented as not reproducible")
def test_readme_documents_dataset_limits():
    text = README.read_text()
    low = text.lower()
    assert "deap" in low
    assert "dreamer" in low
    assert "license" in low
    # the headline numbers from the original large-scale studies are named
    # as explicitly out of reach for this repository
    assert "not reproduc" in low or "cannot be reproduc" in low or "are not" in low
    assert "synthetic" in low


# -- criterion: gradient suite ------------------------------------------------


def _tiny_model():
    cfg = ModelConfig(
        n_channels=4, d_model=16, n_layers=1, n_heads=4, ff_dim=32,
        dropout=0.0, t_fb=2, head_hidden=8, kernel_size=5, t_max=64,
        gate_reduction=4,
    )
    model = FdcNet(cfg, seed=11)
    r = rng(12)
    # every branch live: randomize all parameters, including zero inits
    for t in model.named_parameters().values():
        t.data[:] = r.normal(scale=0.2, size=t.shape)
    return model


@pytest.mark.acceptance("gradient suite: full model FD < 1e-3, per-op < 1e-5")
def test_gradient_suite():
    t0 = time.monotonic()
    model = _tiny_model()
    r = rng(13)
    x = r.normal(size=(2, 4, 32))
    clean = Tensor(r.normal(size=(2, 4, 32)))
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.array([1.0, 1.0])

    def loss_tensor():
        out = model.forward(x, mode="train")
        return joint_loss(clean, out.x_hat, out.p, y, w, alpha=0.6)

    params = model.named_parameters()
    with GradTape():
        backward(loss_tensor())
    analytic = {k: t.grad.copy() for k, t in params.items()}

    def loss_value() -> float:
        with no_grad():
            return float(loss_tensor().numpy())

    h = 1e-5
    worst = 0.0
    for path, t in params.items():
        flat = t.data.reshape(-1)
        fd = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_value()
            flat[i] = orig - h
            down = loss_value()
            flat[i] = orig
            fd[i] = (up - down) / (2 * h)
        err = rel_err(analytic[path].reshape(-1), fd)
        worst = max(worst, err)
        assert err < 1e-3, f"{path}: FD rel err {err:.3g}"

    # per-op checks at the tighter tolerance
    r = rng(14)
    wconv = r.normal(size=(3, 2, 3))
    proj = r.normal(size=(2, 3, 6))
    check_grad(lambda t: tsum(mul(conv1d(t, wconv, padding=1), proj)),
               r.normal(size=(2, 2, 6)), tol=1e-5)
    projt = r.normal(size=(2, 2, 6))
    check_grad(lambda t: tsum(mul(conv1d_transposed(t, wconv, padding=1), projt)),
               r.normal(size=(2, 3, 6)), tol=1e-5)
    pd = r.normal(size=(3, 8))
    check_grad(lambda t: tsum(mul(dct_forward(t), pd)), r.normal(size=(3, 8)), tol=1e-5)
    check_grad(lambda t: tsum(mul(dct_inverse(t), pd)), r.normal(size=(3, 8)), tol=1e-5)
    pv = r.normal(size=(4, 5))
    check_grad(lambda t: tsum(mul(softmax(t), pv)), r.normal(size=(4, 5)), tol=1e-5)
    check_grad(lambda t: tsum(mul(sigmoid(t), pv)), r.normal(size=(4, 5)), tol=1e-5)
    check_grad(lambda t: tsum(mul(gelu(t), pv)), r.normal(size=(4, 5)), tol=1e-5)
    safe = r.normal(size=(4, 5))
    safe[np.abs(safe) < 0.1] = 0.5  # keep FD away from the ReLU kink
    check_grad(lambda t: tsum(mul(relu(t), pv)), safe, tol=1e-5)
    wl = r.normal(size=(6, 5))
    bl = r.normal(size=6)
    pl = r.normal(size=(4, 6))
    check_grad(lambda t: tsum(mul(linear(t, wl, bl), pl)), r.normal(size=(4, 5)), tol=1e-5)
    gam, bet = r.normal(size=5), r.normal(size=5)
    check_grad(lambda t: tsum(mul(layer_norm(t, Tensor(gam), Tensor(bet)), pv)),
               r.normal(size=(4, 5)), tol=1e-5)
    rm, rv = np.zeros(3), np.ones(3)
    pb = r.normal(size=(4, 3, 6))
    check_grad(
        lambda t: tsum(mul(
            batch_norm(t, Tensor(np.ones(3)), Tensor(np.zeros(3)), rm, rv,
                       training=True),
            pb,
        )),
        r.normal(size=(4, 3, 6)), tol=1e-5,
    )

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    assert worst < 1e-3


# -- criterion: DCT suite -----------------------------------------------------


@pytest.mark.acceptance("DCT suite: round trip, Parseval, direct-sum oracle")
def test_dct_suite():
    for t_len in (1, 2, 4, 5, 128):
        x = rng(20 + t_len).normal(size=(3, t_len))
        back = dct_inverse(dct_forward(x)).numpy()
        assert np.abs(back - x).max() < 1e-10
        coeffs = dct_forward(x).numpy()
        # orthonormal transform preserves energy
        assert abs((coeffs**2).sum() - (x**2).sum()) < 1e-10

    for t_len in range(1, 9):
        x = rng(40 + t_len).normal(size=t_len)
        got = dct_forward(x).numpy()
        direct = np.empty(t_len)
        for k in range(t_len):
            acc = 0.0
            for n in range(t_len):
                acc += x[n] * np.cos(np.pi * (2 * n + 1) * k / (2 * t_len))
            scale = np.sqrt(1.0 / t_len) if k == 0 else np.sqrt(2.0 / t_len)
            direct[k] = scale * acc
        assert np.abs(got - direct).max() < 1e-12
        m = dct_matrix(t_len)
        assert np.abs(m @ m.T - np.eye(t_len)).max() < 1e-12


# -- criterion: noise-injection oracle ---------------------------------------


@pytest.mark.acceptance("noise injection hits target SNR within 0.05 dB")
def test_noise_injection_oracle():
    r = rng(30)
    targets = [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    for sig in range(100):
        clean = r.normal(scale=r.uniform(0.5, 2.0), size=(1, 2, 256))
        p_clean = float(np.mean(clean**2))
        target = targets[sig % len(targets)]
        seed = 1000 + sig

        noisy0, achieved0 = inject_noise(clean, NoiseSpec(gaussian_sigma=0.0), target, seed)
        resid = noisy0 - clean
        snr = 10.0 * np.log10(p_clean / np.mean(resid**2))
        assert abs(snr - target) < 0.05
        assert abs(achieved0[0] - target) < 0.05

        # same seed with the Gaussian floor on: the bio component is the
        # sigma=0 residual, and must still meet the target on its own
        noisy1, achieved1 = inject_noise(clean, NoiseSpec(gaussian_sigma=0.01), target, seed)
        floor = (noisy1 - clean) - resid
        assert abs(achieved1[0] - target) < 0.05
        assert 0.005 < float(floor.std()) < 0.02
        bio_snr = 10.0 * np.log10(p_clean / np.mean(resid**2))
        assert abs(bio_snr - target) < 0.05


# -- criterion: residual identity ---------------------------------------------


def _identity_model(channels=2):
    cfg = ModelConfig(
        n_channels=channels, d_model=16, n_layers=1, n_heads=4, ff_dim=32,
        dropout=0.0, t_fb=2, head_hidden=8, kernel_size=5, t_max=256,
        gate_reduction=channels,
    )
    return FdcNet(cfg, seed=5)


@pytest.mark.acceptance("zero decoder passes input through; identity model keeps SNR")
def test_residual_identity():
    model = _identity_model(channels=4)
    x = rng(50).normal(size=(3, 4, 64))
    out = model.forward(x, mode="eval")
    assert np.array_equal(out.x_hat.numpy(), x)

    segs = build_dataset(
        SynthSpec(n_subjects=2, trials_per_subject=3, n_channels=2, trial_length_s=2.0, seed=51),
        target_snr_db=0.0,
        gaussian_sigma=0.01,
        emg_eog_ratio=1.0,
        window=128,
        overlap=0.5,
    )[:24]
    report = evaluate(_identity_model(), segs, [-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], eval_seed=52)
    for row in report.rows:
        assert abs(row.output_snr_db - row.input_snr_db) < 0.05


# -- criterion: range properties ----------------------------------------------


@pytest.mark.acceptance("enhancement in (1,2), gate in (0,1), band weights normalized")
def test_range_properties():
    model = _tiny_model()
    fb = model.fb
    total = 0
    r = rng(60)
    for _ in range(10):
        f = r.normal(size=(100_000, fb.d))
        m = 1.0 + sigmoid(linear(f, fb.params["enhance.w"], fb.params["enhance.b"])).numpy()
        assert np.all(m > 1.0) and np.all(m < 2.0)
        total += m.size
    assert total >= 1_000_000
    # the module applies exactly that multiplier
    f = r.normal(size=(64, fb.d))
    xin = r.normal(size=(64, fb.d))
    expect = xin * (1.0 + sigmoid(linear(f, fb.params["enhance.w"], fb.params["enhance.b"])).numpy())
    np.testing.assert_allclose(feature_enhance(xin, f, fb).numpy(), expect, rtol=1e-15)

    gate = ChannelGate(8, 4, rng(61))
    for _ in range(10):
        x = r.normal(scale=r.uniform(0.1, 10.0), size=(1000, 8, 32))
        wts = gate.weights(channel_stats(x)).numpy()
        assert np.all(wts > 0.0) and np.all(wts < 1.0)

    pe = BandLimitedPE()
    table = sinusoid_table(64, 16)
    opt = AdamW({"pe.alpha_logits": pe.params["alpha_logits"]}, lr=0.01)
    target = Tensor(rng(62).normal(size=(32, 16)))
    for _ in range(100):
        with GradTape():
            diff = sub(mul(pe.envelope(), table[:32]), target)
            backward(tsum(mul(diff, diff)))
        opt.step()
        opt.zero_grad()
    weights = softmax(pe.params["alpha_logits"]).numpy()
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.ptp(pe.params["alpha_logits"].numpy()) > 0.0  # the steps actually moved them


# -- criterion: ablation equivalence ------------------------------------------


def _independent_paths(model, x):
    """The two single-path computations, composed without any feedback."""
    with no_grad():
        xg = modulate(Tensor(x), model.gate.weights(channel_stats(Tensor(x))))
        s = model.stem_den.forward(xg)
        h_den = model.encoder.forward(swapaxes(s, 1, 2), False, None)
        x_hat = denoise_forward(Tensor(x), h_den, model.decoder, False)
        h_cls = swapaxes(gelu(s), 1, 2)
        logits, p = classify_forward(h_cls, model.head)
    return x_hat.numpy(), logits.numpy(), p.numpy()


@pytest.mark.acceptance("zeroed feedback messages reduce to independent paths bit-exactly")
def test_ablation_equivalence():
    x = rng(70).normal(size=(2, 4, 32))

    # fresh model: injections and decoder output layer start at zero
    fresh = _tiny_cfg_model(t_fb=2, randomize=False)
    out = fresh.forward(x, mode="eval")
    xh, lg, p = _independent_paths(fresh, x)
    assert np.array_equal(out.x_hat.numpy(), xh)
    assert np.array_equal(out.logits.numpy(), lg)
    assert np.array_equal(out.p.numpy(), p)

    # trained-weights case: message weights forced back to zero
    noisy = _tiny_cfg_model(t_fb=1, randomize=True)
    noisy.fb.params["inj_cls.w"].data[:] = 0.0
    out = noisy.forward(x, mode="eval")
    xh, lg, p = _independent_paths(noisy, x)
    assert np.array_equal(out.x_hat.numpy(), xh)
    assert np.array_equal(out.logits.numpy(), lg)
    assert np.array_equal(out.p.numpy(), p)

    # structural ablation flag gives the same reduction with shared weights
    ablated = FdcNet(noisy.cfg.with_ablations(no_feedback=True), seed=1)
    state = noisy.state_arrays()
    ablated.load_state({k: state[k] for k in ablated.state_arrays()})
    out = ablated.forward(x, mode="eval")
    assert np.array_equal(out.x_hat.numpy(), xh)
    assert np.array_equal(out.p.numpy(), p)


def _tiny_cfg_model(t_fb: int, randomize: bool) -> FdcNet:
    cfg = ModelConfig(
        n_channels=4, d_model=16, n_layers=1, n_heads=4, ff_dim=32,
        dropout=0.0, t_fb=t_fb, head_hidden=8, kernel_size=5, t_max=64,
        gate_reduction=4,
    )
    model = FdcNet(cfg, seed=1)
    if randomize:
        r = rng(71)
        for t in model.named_parameters().values():
            t.data[:] = r.normal(scale=0.2, size=t.shape)
    return model


# -- criterion: desk-scale end-to-end -----------------------------------------


@pytest.mark.slow
@pytest.mark.acceptance("desk-scale pipeline: loss falls, acc > 0.60, gain > 3 dB, < 10 min")
def test_desk_scale_end_to_end(tmp_path):
    t0 = time.monotonic()
    data = tmp_path / "data.fdcd"
    run = tmp_path / "run"
    assert main(
        ["synth", "--subjects", "4", "--trials", "25", "--channels", "8",
         "--label-effect", "0.5", "--seed", "0", "--out", str(data)]
    ) == 0
    assert len(load_dataset(data)) == 2000

    assert main(
        ["train", "--data", str(data), "--out-dir", str(run), "--desk",
         "--epochs", "20", "--seed", "0"]
    ) == 0
    with open(run / "training_log.csv", newline="") as fh:
        log = list(csv.DictReader(fh))
    assert len(log) == 20
    first_loss = float(log[0]["loss_total"])
    final_loss = float(log[-1]["loss_total"])
    assert final_loss < first_loss
    final_acc = float(log[-1]["val_acc"])
    assert final_acc > 0.60

    eval_csv = tmp_path / "eval.csv"
    assert main(
        ["eval", "--model", str(run / "model.fdcn"), "--data", str(data),
         "--use", "test", "--snr-grid", "-3:3:1", "--seed", "0",
         "--out", str(eval_csv)]
    ) == 0
    report = read_eval_csv(eval_csv)
    by_target = dict(zip(report.grid, report.rows))
    # held-out accuracy at the curriculum's terminal difficulty
    assert by_target[-3.0].acc_4class > 0.60
    gain = by_target[0.0].output_snr_db - by_target[0.0].input_snr_db
    assert gain > 3.0

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"pipeline took {elapsed:.1f}s"


# -- criterion: curriculum endpoints ------------------------------------------


@pytest.mark.acceptance("curriculum runs +3 dB to -3 dB, monotone")
def test_curriculum_endpoints():
    cfg = TrainConfig()
    vals = [curriculum_snr(e, 20, cfg) for e in range(20)]
    assert vals[0] == 3.0
    assert vals[-1] == -3.0
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# -- criterion: determinism ---------------------------------------------------


@pytest.mark.acceptance("identical config and seed reproduce outputs byte for byte")
def test_determinism(tmp_path):
    def synth(out):
        assert main(
            ["synth", "--subjects", "2", "--trials", "4", "--channels", "2",
             "--trial-seconds", "2", "--seed", "9", "--out", str(out)]
        ) == 0

    a, b = tmp_path / "a.fdcd", tmp_path / "b.fdcd"
    synth(a)
    synth(b)
    assert a.read_bytes() == b.read_bytes()

    def train(out_dir):
        assert main(
            ["train", "--data", str(a), "--out-dir", str(out_dir),
             "--epochs", "2", "--batch-size", "8", "--d-model", "8",
             "--n-layers", "1", "--n-heads", "2", "--ff-dim", "16",
             "--head-hidden", "8", "--gate-reduction", "2", "--kernel-size", "5"]
        ) == 0

    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    train(r1)
    train(r2)
    assert (r1 / "model.fdcn").read_bytes() == (r2 / "model.fdcn").read_bytes()
    assert (r1 / "training_log.csv").read_bytes() == (r2 / "training_log.csv").read_bytes()

    def run_eval(out):
        assert main(
            ["eval", "--model", str(r1 / "model.fdcn"), "--data", str(a),
             "--snr-grid", "-3:3:3", "--seed", "4", "--out", str(out)]
        ) == 0

    e1, e2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
    run_eval(e1)
    run_eval(e2)
    assert e1.read_bytes() == e2.read_bytes()

    def run_denoise(out):
        assert main(
            ["denoise", "--model", str(r1 / "model.fdcn"), "--data", str(a),
             "--out", str(out)]
        ) == 0

    d1, d2 = tmp_path / "d1.fdcd", tmp_path / "d2.fdcd"
    run_denoise(d1)
    run_denoise(d2)
    assert d1.read_bytes() == d2.read_bytes()

    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    assert main(["report", str(e1), "--out-dir", str(g1)]) == 0
    assert main(["report", str(e1), "--out-dir", str(g2)]) == 0
    assert (g1 / "summary.txt").read_bytes() == (g2 / "summary.txt").read_bytes()
    for svg in sorted(g1.glob("*.svg")):
        assert svg.read_bytes() == (g2 / svg.name).read_bytes()
