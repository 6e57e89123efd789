"""Acceptance suite: one test per shipping criterion, each at its stated
tolerance, printing one pass/fail line.

Data-dependent criteria resolve records through the session dataset fixture:
real PhysioNet files when ECGDENOISE_DATA points at them, otherwise the
deterministic synthetic WFDB fixtures.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

from __future__ import annotations

import numpy as np
import pytest

from ecgdenoise import baselines, bench, enkf, metrics, wfdbio
from ecgdenoise.core import Signal, TWO_PI
from ecgdenoise.enkf import FilterConfig, kalman_gain, sample_covariances, substream, update
from ecgdenoise.model import default_morphology, wave_increment
from references import wave_increment_dtheta

NINE_RECORDS = ("102", "108", "121", "122", "215", "220", "232", "118", "119")


def _report(n: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n} {status}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def reduced_bench(data_root):
    """The reduced trend/determinism plan: records 118+119, em noise, 12/18 dB."""
    plan = bench.BenchPlan(
        records=("118", "119"),
        snr_levels=(12.0, 18.0),
        noise="em",
        seed=0,
        duration_s=60.0,
    )
    return plan, bench.run_bench(plan, data_root)


class TestCriterion1:
    def test_enkf_matches_exact_kalman_filter(self):
        """Linear-Gaussian equivalence: ensemble mean vs closed-form KF."""
        a_coef, q_var, r_var = 0.9, 2.0, 0.25
        n_members, steps, n_seeds = 10_000, 200, 100
        cfg = FilterConfig(
            n_ensemble=n_members, q_theta=0.0, q_z=0.0, r_phi=1.0, r_s=np.sqrt(r_var), seed=0
        )

        def run_seed(seed: int) -> float:
            rng = substream(seed, "linear-system")
            x = rng.normal(0.0, 1.0)
            ys = []
            for _ in range(steps):
                x = a_coef * x + rng.normal(0.0, np.sqrt(q_var))
                ys.append(x + rng.normal(0.0, np.sqrt(r_var)))
            # Exact Kalman recursion: the oracle.
            m, p = 0.0, 1.0
            kf = []
            for y in ys:
                mp = a_coef * m
                pp = a_coef * a_coef * p + q_var
                k = pp / (pp + r_var)
                m = mp + k * (y - mp)
                p = (1 - k) * pp
                kf.append((m, p))
            # EnKF: module covariance/gain/update machinery on the z slot.
            z = rng.normal(0.0, 1.0, size=n_members)
            z -= z.mean()
            theta = np.zeros(n_members)
            worst = 0.0
            for t, y in enumerate(ys):
                w = rng.normal(0.0, np.sqrt(q_var), size=n_members)
                z = a_coef * z + (w - w.mean())
                gain = kalman_gain(sample_covariances(theta, z), cfg)
                _, z = update(theta, z, 0.0, float(y), gain, cfg, rng.standard_normal((2, n_members)))
                worst = max(worst, abs(float(z.mean()) - kf[t][0]) / np.sqrt(kf[t][1]))
            return worst

        passing = sum(1 for s in range(n_seeds) if run_seed(s) <= 0.05)
        _report(
            1,
            "EnKF within 0.05 posterior-std of exact KF over 200 steps",
            passing >= 95,
            f"{passing}/100 seeds",
        )


class TestCriterion2:
    def test_sample_covariances_match_brute_force(self):
        from test_enkf import brute_force_covariances

        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            theta = np.mod(rng.normal(rng.uniform(0, TWO_PI), 0.5, n), TWO_PI)
            z = rng.normal(0.0, rng.uniform(0.1, 2.0), n)
            got = sample_covariances(theta, z)
            want = brute_force_covariances(theta, z)
            worst = max(worst, float(np.abs(got - want).max()))
        _report(2, "sample covariances equal two-pass oracle", worst < 1e-12, f"max dev {worst:.2e}")


class TestCriterion3:
    def test_jacobian_matches_central_differences(self):
        p = default_morphology()
        rng = np.random.default_rng(7)
        h = 1e-6
        worst = 0.0
        for _ in range(1000):
            theta = float(rng.uniform(0, TWO_PI))
            step = float(rng.uniform(0.005, 0.05))
            analytic = float(wave_increment_dtheta(theta, p, step))
            fd_dz = (
                float(wave_increment(theta + h, p, step))
                - float(wave_increment(theta - h, p, step))
            ) / (2 * h)
            worst = max(worst, abs(analytic - fd_dz))
        _report(3, "EKF Jacobian vs central differences", worst < 1e-6, f"max err {worst:.2e}")


class TestCriterion4:
    def test_identity_and_degeneracy_suite(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=400)
        sig = Signal(y, 360.0)
        checks = []

        out = baselines.tvd_denoise(sig, 0.0)
        checks.append(("tvd lambda-0 identity", np.array_equal(out.samples, y)))

        t = np.linspace(-1, 1, 400)
        poly = 2.0 * t**3 - t + 0.5
        out = baselines.sg_filter(Signal(poly, 360.0), 11, 3)
        checks.append(("sg cubic reproduction", np.abs(out.samples - poly).max() < 1e-9))

        out = baselines.wavelet_denoise(sig, levels=4, threshold=0.0)
        rel = np.abs(out.samples - y).max() / np.abs(y).max()
        checks.append(("wavelet zero-threshold reconstruction", rel < 1e-8))

        zeros = Signal(np.zeros(400), 360.0)
        checks.append(
            (
                "nlms zero-reference identity",
                np.array_equal(baselines.nlms_denoise(sig, zeros, 16, 0.5).samples, y),
            )
        )
        checks.append(
            (
                "rls zero-reference identity",
                np.array_equal(baselines.rls_denoise(sig, zeros, 16, 0.999, 100.0).samples, y),
            )
        )

        theta, z = np.array([1.0, 2.0, 3.0]), np.array([0.1, 0.2, 0.3])
        cfg = FilterConfig(n_ensemble=3, r_phi=0.1, r_s=0.1)
        upd_theta, upd_z = update(theta, z, 0.5, 0.5, np.zeros((2, 2)), cfg, substream(0, 0).standard_normal((2, 3)))
        checks.append(
            (
                "enkf zero-gain invariance",
                np.array_equal(upd_theta, theta) and np.array_equal(upd_z, z),
            )
        )

        failed = [name for name, ok in checks if not ok]
        _report(4, "filter identity/degeneracy suite", not failed, f"failed: {failed or 'none'}")


class TestCriterion5:
    def test_tvd_not_above_subgradient_oracle(self):
        rng = np.random.default_rng(5)
        n_instances, n, iters = 100, 20, 1_000_000
        ys = rng.normal(size=(n_instances, n)) * rng.uniform(0.5, 2.0, size=(n_instances, 1))
        lams = rng.uniform(0.05, 1.5, size=(n_instances, 1))

        def objective(xs):
            return 0.5 * np.sum((ys - xs) ** 2, axis=1) + lams[:, 0] * np.sum(
                np.abs(np.diff(xs, axis=1)), axis=1
            )

        # Projected-subgradient oracle, one vectorized run for all instances.
        zs = ys.copy()
        best = objective(zs)
        for t in range(1, iters + 1):
            sign = np.sign(np.diff(zs, axis=1))
            grad = zs - ys
            grad[:, :-1] -= lams * sign
            grad[:, 1:] += lams * sign
            zs -= (0.05 / np.sqrt(t)) * grad
            best = np.minimum(best, objective(zs))

        mine = np.array(
            [
                objective(
                    baselines.tvd_denoise(Signal(ys[i], 1.0), float(lams[i, 0])).samples[None, :]
                )[i]
                for i in range(n_instances)
            ]
        )
        gap = float((mine - best).max())
        _report(5, "tvd objective <= subgradient oracle + 1e-6", gap <= 1e-6, f"max gap {gap:.2e}")


class TestCriterion6:
    def test_metric_identities(self):
        rng = np.random.default_rng(6)
        ok = True
        detail = ""
        for _ in range(300):
            n = int(rng.integers(4, 200))
            x = Signal(rng.normal(size=n) * rng.uniform(0.2, 5), 360.0)
            y = Signal(rng.normal(size=n) * rng.uniform(0.2, 5), 360.0)
            if np.array_equal(x.samples, y.samples):
                continue
            s = metrics.snr(x, y)
            p = metrics.prd(x, y)
            if abs(s - (-20.0 * np.log10(p / 100.0))) > 1e-9:
                ok, detail = False, "snr/prd identity"
                break
            r = metrics.rmse(x, y)
            expected_p = 100.0 * r * np.sqrt(n) / np.sqrt(float(x.samples @ x.samples))
            if abs(p - expected_p) > 1e-9 * max(1.0, p):
                ok, detail = False, "prd/rmse identity"
                break
            a, b = float(rng.uniform(0.1, 4)), float(rng.uniform(-2, 2))
            base = metrics.corr(x, y)
            mapped = metrics.corr(Signal(a * x.samples + b, 360.0), y)
            if abs(base - mapped) > 1e-12:
                ok, detail = False, "corr affine invariance"
                break
        # Trivial anchors.
        x = Signal(rng.normal(size=50) + 0.2, 360.0)
        zero = Signal(np.zeros(50), 360.0)
        if metrics.snr(x, zero) != 0.0:
            ok, detail = False, "snr zero anchor"
        if abs(metrics.prd(x, zero) - 100.0) > 1e-12:
            ok, detail = False, "prd zero anchor"
        _report(6, "metric identity chain", ok, detail or "all identities within tolerance")


class TestCriterion7:
    def test_mixer_calibration_on_record(self, data_root):
        clean, _ = bench.load_record(data_root, "118", 0)
        noise, _ = bench.load_record(data_root, "em", 0)
        worst = 0.0
        for level in (-6.0, 0.0, 6.0, 12.0, 18.0, 24.0):
            m = metrics.mix(clean, noise, level)
            worst = max(worst, abs(metrics.snr(m.clean, m.noisy) - level))
        _report(7, "mixer hits all six levels on 118+em", worst <= 1e-9, f"max dev {worst:.2e} dB")


class TestCriterion8:
    def test_checksums_all_nine_records(self, data_root):
        bad = []
        for name in NINE_RECORDS:
            header = wfdbio.read_header((data_root / f"{name}.hea").read_text())
            adc = wfdbio.decode_212(
                (data_root / header.signals[0].filename).read_bytes(),
                header.n_samples,
                header.n_signals,
            )
            for ch, spec in enumerate(header.signals):
                if spec.checksum is None:
                    bad.append(f"{name}:{ch}:missing")
                elif wfdbio.signal_checksum(adc[:, ch]) != spec.checksum:
                    bad.append(f"{name}:{ch}")
        _report(8, "per-channel checksums match headers for all nine records", not bad, f"bad: {bad or 'none'}")

    def test_record_118_first_100_beats_exact(self, dataset):
        got = wfdbio.read_annotations((dataset.root / "118.atr").read_bytes()).indices
        if dataset.generated:
            want = dataset.truth["118"].beats
            n = min(100, len(want))
            ok = len(got) >= n and np.array_equal(got[:n], want[:n])
            _report(8, "record 118 first 100 beat times exact vs writer oracle", ok, f"{n} beats compared")
        else:
            ref = dataset.root / "118.beats.txt"
            if not ref.exists():
                pytest.skip(
                    "real dataset without 118.beats.txt sidecar: reference "
                    "annotation list unavailable for the exact-match half"
                )
            want = np.array([int(v) for v in ref.read_text().split()[:100]])
            _report(8, "record 118 first 100 beat times exact vs reference file", np.array_equal(got[: len(want)], want))


class TestCriterion9:
    def test_trend_enkf_leads_at_high_snr(self, reduced_bench):
        plan, cells = reduced_bench
        agg = {(c.method, c.input_snr): c.report for c in bench.aggregate(cells)}
        digest = bench.params_digest(plan)
        problems = []
        for level in (12.0, 18.0):
            e = agg[("enkf", level)]
            w = agg[("wavelet", level)]
            t = agg[("tvd", level)]
            if not e.snr_improvement > 0.0:
                problems.append(f"enkf improvement {e.snr_improvement:.3f} dB at {level:g} dB")
            if not e.corr >= w.corr:
                problems.append(f"enkf corr {e.corr:.5f} < wavelet {w.corr:.5f} at {level:g} dB")
            if not e.corr >= t.corr:
                problems.append(f"enkf corr {e.corr:.5f} < tvd {t.corr:.5f} at {level:g} dB")
        _report(
            9,
            "trend: EnKF improvement > 0 and corr >= wavelet/tvd at 12 and 18 dB",
            not problems,
            "; ".join(problems) + f"; params_digest {digest}" if problems else "aggregate rows lead",
        )

    def test_no_failed_cells(self, reduced_bench):
        plan, cells = reduced_bench
        failed = [f"{c.record_id}/{c.method}@{c.input_snr:g}" for c in cells if c.report is None]
        _report(
            9,
            "reduced plan runs every cell",
            not failed,
            f"failed cells: {failed or 'none'}; params_digest {bench.params_digest(plan)}",
        )


class TestCriterion10:
    def test_byte_identical_rerun_and_permutation(self, reduced_bench, data_root):
        plan, cells = reduced_bench
        table_first = bench.table_csv(cells, plan)

        rerun = bench.run_bench(plan, data_root)
        table_rerun = bench.table_csv(rerun, plan)

        permuted_plan = bench.BenchPlan(
            records=tuple(reversed(plan.records)),
            methods=tuple(reversed(plan.methods)),
            snr_levels=tuple(reversed(plan.snr_levels)),
            channel=plan.channel,
            noise=plan.noise,
            seed=plan.seed,
            duration_s=plan.duration_s,
        )
        permuted = bench.run_bench(permuted_plan, data_root)
        table_permuted = bench.table_csv(permuted, permuted_plan)

        parallel = bench.run_bench(plan, data_root, jobs=2)
        table_parallel = bench.table_csv(parallel, plan)

        same_rerun = table_first == table_rerun
        same_permuted = table_first == table_permuted
        same_parallel = table_first == table_parallel
        _report(
            10,
            "bench CSV byte-identical across rerun, plan permutation and two jobs",
            same_rerun and same_permuted and same_parallel,
            f"rerun identical: {same_rerun}, permuted identical: {same_permuted}, "
            f"jobs=2 identical: {same_parallel}",
        )
