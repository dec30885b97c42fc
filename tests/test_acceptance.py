"""Acceptance gate: every criterion at its stated tolerance, one line per criterion.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see the per-criterion
pass lines in the summary.
"""
import time
import warnings

import numpy as np
import pytest

import hjikit as hk
from hjikit import audits as au
from hjikit import cli
from hjikit import construct1d as c1
from hjikit import smoothing as sm
from hjikit import storage as stg
from hjikit import systems as sy
from hjikit import trajectories as tr


def _report(num, name):
    print(f"acceptance criterion {num} ({name}): PASS")


REGION2 = hk.Region(box=((-2.0, 2.0), (-2.0, 2.0)), points_per_dim=41)


def test_criterion_1_sigma1_witness():
    s1 = sy.zoo_entry("sigma1").system
    v1s = stg.builtin("v1_scaled")
    rep = hk.check_witness(s1, v1s, 1.0, REGION2)
    assert rep.passed and rep.max_residual <= 1e-9

    rep9 = hk.check_witness(s1, v1s, 0.9, REGION2)
    assert not rep9.passed
    res_11 = hk.affine_residual(s1, [1.0, 1.0], [2.0, 2.0], 0.9)
    assert res_11 == pytest.approx(2.0 / 0.9 - 2.0, abs=1e-9)

    g = hk.min_gain_scan(s1, v1s, REGION2, hk.gamma_range(0.5, 2.0, 0.01)).min_gamma
    assert g is not None and abs(g - 1.0) <= 0.01 + 1e-12
    _report(1, "sigma1 witness, falsification at 0.9, minimal gain")


def test_criterion_2_smooth_fields_variant():
    sc = sy.zoo_entry("sigma1_c1")
    rep = hk.check_witness(sc.system, sc.claimed_witness, 1.0, REGION2)
    assert rep.passed and rep.max_residual <= 1e-9
    _report(2, "C1-fields variant passes at gain 1")


def test_criterion_3_cusp_system():
    s2 = sy.zoo_entry("sigma2").system
    v2 = stg.builtin("v2")
    rep = hk.check_witness(s2, v2, 1.0, REGION2)
    assert rep.passed
    assert np.any(REGION2.grid()[:, 1] == 0.0)  # the x2 = 0 rows were included

    for a in (0.5, 1.0, 2.0):
        t = np.linspace(0, 1, 41)
        vals = v2.value_batch(au.curve_point(a, t))
        assert np.max(np.abs(vals - a * a)) <= 1e-12, a
        assert au.audit_curve_tangency(a) <= 1e-9, a

    report = au.audit_curve_monotone(stg.builtin("v1"), 1.0, t_grid=[0.0, 0.5, 1.0])
    assert report.kind == au.VIOLATION
    assert report.witness_point == (1.0, 0.5)
    assert report.detail["increase"] == pytest.approx(0.5 + 0.75 ** 1.5 - 1.0, abs=1e-12)
    _report(3, "cusp system: witness, curve constancy/tangency, L1 falsified")


def test_criterion_4_cubic_input_powers():
    sp = sy.zoo_entry("sigma_p(3)").system
    rep = hk.check_witness(sp, stg.builtin("v1"), 0.01, REGION2)
    assert rep.passed

    report = au.audit_sigmap(stg.builtin("sq_norm"), 3.0, 1.0,
                             xi_samples=[(2.0, 1.0)], search_u_max=2.0, u_points=8)
    assert report.kind == au.VIOLATION
    xi, u = report.witness_point
    assert xi == (2.0, 1.0) and u == (2.0, 0.0)
    assert report.detail["residual"] == pytest.approx(15.0, abs=1e-9)
    _report(4, "cubic powers: tiny-gain witness and explicit falsification")


def test_criterion_5_scalar_system():
    defects = au.verify_sigma3_pieces()  # 301 x 301 grid by default
    assert defects["case1_equality"] <= 1e-12
    assert defects["case4_equality"] <= 1e-12
    assert defects["case2_inequality"] <= 1e-12
    assert defects["case3_inequality"] <= 1e-12

    v3 = stg.builtin("v3_scalar")
    assert v3.subdiff([1.0]).intervals == ((1.0, 2.0),)
    assert hk.verify_subgradient(v3, [1.0], [1.0])
    assert hk.verify_subgradient(v3, [1.0], [2.0])
    assert not hk.verify_subgradient(v3, [1.0], [0.99])
    assert not hk.verify_subgradient(v3, [1.0], [2.01])

    s3 = sy.zoo_entry("sigma3_scalar").system
    reg = hk.Region(box=((-3.0, 3.0),), points_per_dim=121)
    g = hk.min_gain_scan(s3, v3, reg, hk.gamma_range(0.8, 1.2, 0.01)).min_gamma
    assert g == pytest.approx(1.0, abs=1e-12)

    report = au.audit_scalar_straddle(v3)
    assert report.kind == au.OBSTRUCTION
    assert report.detail["limsup_left"] == pytest.approx(1.0, abs=1e-12)
    assert report.detail["liminf_right"] == pytest.approx(2.0, abs=1e-12)
    _report(5, "scalar system: pieces, kink subdifferential, gain, straddle")


def test_criterion_6_one_dimensional_construction():
    lin = sy.zoo_entry("scalar_linear").system
    grid = np.linspace(0.01, 2.0, 200)
    built = c1.construct_w(lin, 1.0, stg.builtin("sq_norm"), grid,
                           h=lambda x: 4 * abs(x))
    assert np.max(np.abs(built.w_values - grid ** 2)) <= 1e-6
    # the worked instance sits exactly on the double root; the clamp guards
    # rounding perturbations of it
    q = c1.QuadCoeffs.at(lin, 1.0, 1.0)
    assert q.b * q.b - 4 * q.a * q.c == 0.0
    perturbed = sy.AffineSystem(1, 1, ("-x1*0.9999999999995",), (("1",),))
    qp = c1.QuadCoeffs.at(perturbed, 1.0, 1.0)
    assert -1e-10 <= qp.b * qp.b - 4 * qp.a * qp.c < 0.0
    assert c1.p_of_x(perturbed, 1.0, lambda x: 4 * abs(x), 1.0) == pytest.approx(2.0)

    rng = np.random.default_rng(21)
    agree = 0
    while agree < 1000:
        c0 = -rng.uniform(0.1, 3.0)
        c1v = rng.uniform(-2.0, 2.0)
        sysm = sy.AffineSystem(1, 1, (f"{c0}*x1",), ((f"{c1v}",),))
        gamma = rng.uniform(0.3, 3.0)
        x = rng.uniform(0.1, 3.0)
        p = rng.uniform(0.0, 5.0)
        if abs(c1.delta(c1.QuadCoeffs.at(sysm, gamma, x), p)) / (4 * gamma) <= 1e-3:
            continue
        assert (c1.f_membership(sysm, gamma, x, p, "direct", u_points=1001)
                == c1.f_membership(sysm, gamma, x, p, "quadratic"))
        agree += 1

    weak = sy.AffineSystem(1, 1, ("-x1/10",), (("1",),))
    with pytest.raises(c1.InfeasibleAtError):
        c1.p_of_x(weak, 1.0, lambda x: 4 * abs(x), 1.0)
    _report(6, "1-D construction: W = x^2, clamp, membership equivalence, infeasibility")


def test_criterion_7_smoothing_pipeline():
    # compactification identity suite at 1e-12
    rng = np.random.default_rng(22)
    U = rng.uniform(-5, 5, (10_000, 2))
    D = sm.compactify(U)
    usq = np.sum(U * U, axis=1)
    dsq = np.sum(D * D, axis=1)
    assert np.max(np.abs((1 - dsq) - 1 / (1 + usq))) <= 1e-12
    assert np.max(np.abs(usq - dsq / (1 - dsq)) / (1 + usq)) <= 1e-12
    for p in (1.0, 1.5, 2.0):
        for signed in (True, False):
            phi_u = (np.sign(U) * np.abs(U) ** p) if signed else np.abs(U) ** p
            phi_d = (np.sign(D) * np.abs(D) ** p) if signed else np.abs(D) ** p
            coeff = 1.0 if p == 2.0 else (1 - dsq)[:, None] ** (1 - p / 2)
            assert np.max(np.abs(phi_d * coeff - phi_u / (1 + usq)[:, None])) <= 1e-12

    # field correspondence at 1e-9
    for name in ("sigma_p(3)", "sigma_p_signed(3)"):
        ps = sy.zoo_entry(name).system
        for _ in range(50):
            x = rng.uniform(-2, 2, 2)
            u = rng.uniform(-3, 3, ps.m)
            lhs = (1 + float(u @ u)) * sm.transformed_field(ps, x, sm.compactify(u))
            assert np.max(np.abs(lhs - ps.dynamics(x, u))) <= 1e-9

    # delta selection constraints, sampled
    for eps in np.geomspace(1e-3, 10, 25):
        d = sm.choose_delta(float(eps))
        assert 1 / (1 - d) <= 1 + eps + 1e-12
        assert d / (1 - d) <= min(eps, 0.25) + 1e-12

    # end-to-end certified smoothing on the annulus 0.05 <= |x| <= 2
    for name, vname in (("sigma1", "v1_scaled"), ("sigma2", "v2")):
        sysm = sy.zoo_entry(name).system
        cert = sm.smooth_witness(sysm, stg.builtin(vname), 1.0, 1.1,
                                 r_min=0.05, r_max=2.0)
        assert cert.passed, (name, cert.failure_reason)
        assert cert.max_relative_approx_error <= 0.5
        assert cert.max_eq20_residual <= 0.0
    _report(7, "smoothing: identities, delta bookkeeping, certified instances")


def test_criterion_8_trajectories():
    lin = sy.zoo_entry("scalar_linear").system
    traj = tr.integrate(lin, [1.0], tr.ConstantInput([0.0]), (0, 1), 1e-3)
    assert abs(traj.states[-1, 0] - np.exp(-1)) <= 1e-9
    errs = []
    for h in (0.05, 0.025):
        t = tr.integrate(lin, [1.0], tr.ConstantInput([0.0]), (0, 1), h)
        errs.append(abs(t.states[-1, 0] - np.exp(-1)))
    assert 12 <= errs[0] / errs[1] <= 20

    # integral dissipation: 100 random runs per zoo entry at the claimed gain.
    # Trajectories of several entries ride kink manifolds (the coordinate axes,
    # or x = |u| for the scalar system) where the integrator drops to first
    # order, so the step is set with a 4x margin against the slack tolerance.
    rng = np.random.default_rng(23)
    for entry in sy.zoo():
        n, m = entry.system.n, entry.system.m
        gamma = entry.claimed_gamma if entry.has_specific_gamma else 1.0
        step = 2e-4 if entry.name == "sigma3_scalar" else 2.5e-4
        X0 = rng.uniform(-1, 1, (100, n))
        ens = tr.random_piecewise_ensemble(m, 1.0, step, 100,
                                           seed=int(rng.integers(1 << 16)))
        trajs = tr.integrate_ensemble(entry.system, X0, ens, (0, 1), step)
        worst = max(tr.dissipation_audit(t, entry.claimed_witness, gamma)
                    for t in trajs)
        assert worst <= 1e-4, (entry.name, worst)

    s1 = sy.zoo_entry("sigma1").system
    ens = tr.random_piecewise_ensemble(2, 5.0, 1e-3, 50, seed=0)
    assert tr.l2_gain_lowerbound(s1, ens, 5.0, 1e-3) <= 1.0 + 1e-3

    sweep = [tr.SinusoidInput([1.0], [w]) for w in (0.05, 0.1, 0.2, 0.5)]
    assert tr.l2_gain_lowerbound(lin, sweep, 50.0, 2e-3) >= 0.95
    _report(8, "trajectories: RK4 oracle, dissipation slack, gain bounds")


def test_criterion_9_determinism_and_runtime(tmp_path):
    start = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code1 = cli.main(["zoo", "run", "--all", "--out", str(tmp_path / "r1")])
        code2 = cli.main(["zoo", "run", "--all", "--out", str(tmp_path / "r2")])
    elapsed = time.time() - start
    assert code1 == 0 and code2 == 0
    a = (tmp_path / "r1" / "zoo.json").read_bytes()
    b = (tmp_path / "r2" / "zoo.json").read_bytes()
    assert a == b
    assert elapsed <= 300.0
    _report(9, "deterministic zoo regression within the time budget")
