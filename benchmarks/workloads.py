"""The three workloads as lists of operations, each with its oracle check.

An operation is one CLI invocation (an argv for ``conjrisk.cli.run_command``)
or, for the 3-D validity experiment the CLI cannot express, one library
call. Reference answers are computed here, before anything is timed; the
checks run after each operation, outside its timed span.

Each check returns ``(exact, gross)``. ``exact`` is the oracle at the
accuracy the paper's numbers need (relative 1e-6 on probabilities, 1e-9 of
the scene size on distances, 4 binomial standard errors on Monte Carlo
rates); misses count in ``wrong_frac``. ``gross`` is a loose bound that
catches a broken answer (wrong formula, swapped axis, corrupt output) while
tolerating the accuracy defects the code is known to have; a miss there sets
the result's ``correct`` to false.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracles

#: Relative tolerance on probabilities for ``wrong_frac``.
RTOL = 1e-6
#: Gross bound on probabilities: relative, with an absolute floor above the
#: contour quadrature's known cancellation floor (about 1e-17, measured up
#: to 5e-10 for s2/r >= 0.05).
GROSS_RTOL, GROSS_ATOL = 0.5, 1e-9
#: Below this s/r (s2/r for anisotropic encounters) the 64-point contour rule
#: under-resolves its integrand: Pc is off by up to 0.2
#: near d = r, and detection rates at s/r = 0.05 by 95%. There the gross
#: bound is only this absolute error. Above it the measured errors stay
#: under 1e-5 relative (plus the 1e-17 floor).
UNDER_RESOLVED_S_OVER_R, UNDER_RESOLVED_GROSS_ATOL = 0.1, 0.25
#: Binomial standard errors allowed for Monte Carlo rates (exact, gross).
Z_EXACT, Z_GROSS = 4.0, 8.0
#: Distance tolerance as a share of the scene size (exact, gross).
DIST_RTOL, DIST_GROSS_RTOL = 1e-9, 1e-3

TRIAGE_FILES = 500
STUDY_DRAWS = 110
STUDY_MC_TRIALS = 20000
STUDY_CHECKED_THRESHOLDS = 4
VALIDITY_ROUNDS = 12
VALIDITY_FC_RUNS = 4
VALIDITY_TRIALS = 1000
FC_TRIALS = 200000


@dataclass
class Op:
    """One operation of a workload and how to judge its answer."""

    kind: str
    check: Callable[..., tuple[bool, bool]]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    mc_trials: int = 0
    belief_evals: int = 0


def _close(value: float, ref: float, rtol: float, atol: float = 1e-300) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


def _prob_verdict(value: float, ref: float) -> tuple[bool, bool]:
    return (_close(value, ref, RTOL),
            0.0 <= value <= 1.0 and _close(value, ref, GROSS_RTOL, GROSS_ATOL))


def _gross_slack(ref: float, under_resolved: bool) -> float:
    """Gross error allowed on a probability ``ref``."""
    return UNDER_RESOLVED_GROSS_ATOL if under_resolved else GROSS_RTOL * ref + GROSS_ATOL


def _combine(verdicts) -> tuple[bool, bool]:
    verdicts = list(verdicts)
    return all(v[0] for v in verdicts), all(v[1] for v in verdicts)


# -- triage -----------------------------------------------------------------

def triage(seed: int, workdir: Path, n_files: int = TRIAGE_FILES) -> list[Op]:
    """Each catalogue file through ``pc`` and then ``screen``."""
    ops = []
    for case in inputs.triage_catalogue(seed, n_files, oracles.touching_k):
        path = workdir / case.name
        path.write_bytes(case.data)
        conj = oracles.read_conjunction(case.data.decode("utf-8"), case.fmt)
        plane = oracles.encounter_plane(conj)
        pc_ref = oracles.pc_reference(*plane)
        under_resolved = plane[3] < UNDER_RESOLVED_S_OVER_R * plane[4]
        delta = conj.x2 - conj.x1
        k = case.k_sigma
        lower, upper = oracles.gap_bounds(delta, k * k * conj.p1, k * k * conj.p2)
        scale = max(float(np.linalg.norm(delta)),
                    k * math.sqrt(float(np.linalg.eigvalsh(conj.p1)[-1])),
                    k * math.sqrt(float(np.linalg.eigvalsh(conj.p2)[-1])))

        def check_pc(out, _result, ref=pc_ref, exempt=under_resolved):
            pc = float(out.strip())
            return (_close(pc, ref, RTOL),
                    0.0 <= pc <= 1.0 and abs(pc - ref) <= _gross_slack(ref, exempt))

        def check_screen(out, _result, lo=lower, hi=upper, scale=scale, r=conj.r, k=k):
            doc = json.loads(out)
            dist = doc["min_distance_m"]
            confidence = oracles.chi2_cdf_3(k * k)
            top = hi if math.isfinite(hi) else 0.0     # intersecting: distance 0
            verdicts = []
            for rtol in (DIST_RTOL, DIST_GROSS_RTOL):
                tol = rtol * scale
                ok = lo - tol <= dist <= top + tol
                # within the tolerance of r the decision may go either way
                if r < lo - tol:
                    ok = ok and not doc["overlap"]
                elif r > top + tol:
                    ok = ok and doc["overlap"]
                ok = ok and _close(doc["confidence"], confidence, 1e-12, 1e-15)
                ok = ok and _close(doc["risk_cap"], 2.0 * (1.0 - confidence), 1e-9, 1e-15)
                verdicts.append(ok)
            return verdicts[0], verdicts[1]

        ops.append(Op("pc", check_pc, argv=["pc", "--input", str(path)]))
        ops.append(Op("screen", check_screen,
                      argv=["screen", "--input", str(path), "--k-sigma", repr(k)]))
    return ops


# -- threshold study ----------------------------------------------------------

def _default_thresholds() -> np.ndarray:
    """The CLI's default grid: 43 log-spaced values plus the policy pair."""
    return np.unique(np.concatenate([np.geomspace(1e-8, 1e-1, 43), [1e-7, 4.4e-4]]))


def _read_csv(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()[1:]]


def threshold_study(seed: int, workdir: Path, n_draws: int = STUDY_DRAWS,
                    mc_trials: int = STUDY_MC_TRIALS) -> list[Op]:
    """Per draw: ``boundary``, ``dilution-curve``, and ``detection-curve``
    semi-analytic then Monte Carlo."""
    grid = _default_thresholds()
    ops = []
    for i, draw in enumerate(inputs.threshold_draws(seed, n_draws)):
        s, d = draw.s_over_r, draw.d_true_over_r
        # checked rows: a seeded sample of the grid plus both policy thresholds
        pick = inputs.rng_for(seed, 100 + i).choice(grid.size, STUDY_CHECKED_THRESHOLDS, replace=False)
        rows = sorted(set(pick.tolist()) | {int(np.searchsorted(grid, 1e-7)),
                                           int(np.searchsorted(grid, 4.4e-4))})
        rates = {j: oracles.detection_rate_reference(float(grid[j]), s, d) for j in rows}
        s_bound = oracles.dilution_boundary_reference(draw.threshold)

        def check_boundary(out, _result, ref=s_bound, radius=draw.combined_radius):
            lines = out.split()
            return _combine([
                (_close(float(lines[0]), ref, 1e-8), _close(float(lines[0]), ref, 1e-3)),
                (_close(float(lines[1]), ref * radius, 1e-8),
                 _close(float(lines[1]), ref * radius, 1e-3)),
            ])

        exempt = s < UNDER_RESOLVED_S_OVER_R

        def check_semi(out, _result, rates=rates, exempt=exempt):
            table = _read_csv(out)
            if len(table) != grid.size:
                return False, False
            verdicts = []
            for j, ref in rates.items():
                threshold, rate, failure = (float(v) for v in table[j])
                verdicts.append((_close(rate, ref, RTOL, 1e-12),
                                 abs(rate - ref) <= _gross_slack(ref, exempt)))
                verdicts.append((_close(threshold, grid[j], 1e-8),) * 2)
                verdicts.append((abs(rate + failure - 1.0) <= 2e-9,) * 2)
            return _combine(verdicts)

        def check_mc(out, _result, rates=rates, n=mc_trials, exempt=exempt):
            table = _read_csv(out)
            if len(table) != grid.size:
                return False, False
            verdicts = []
            for j, ref in rates.items():
                rate = float(table[j][1])
                verdicts.append((oracles.binomial_ok(rate, ref, n, Z_EXACT),
                                 oracles.binomial_ok(rate, ref, n, Z_GROSS,
                                                     _gross_slack(ref, exempt))))
            return _combine(verdicts)

        curve_path = workdir / f"dilution{i:03d}.json"
        s_checks = np.geomspace(0.5, 1000.0, 200)[::25]
        curve_refs = [oracles.pc_circular_reference(d, float(v)) for v in s_checks]
        peak_ref = oracles.dilution_peak_reference(d, 0.5, 1000.0)

        def check_dilution(_out, _result, path=curve_path, refs=curve_refs, peak_ref=peak_ref):
            doc = json.loads(path.read_text(encoding="utf-8"))
            grid_rows = doc["grid"][::25]
            verdicts = [_prob_verdict(p, ref) for (_s, p), ref in zip(grid_rows, refs)]
            verdicts.append(_prob_verdict(doc["peak_pc"], peak_ref))
            return _combine(verdicts)

        ops.append(Op("boundary", check_boundary, argv=[
            "boundary", "--threshold", repr(draw.threshold),
            "--combined-radius", repr(draw.combined_radius)]))
        ops.append(Op("dilution", check_dilution, argv=[
            "dilution-curve", "--d-over-r", repr(d), "--output", str(curve_path)]))
        ops.append(Op("curve_semi", check_semi, argv=[
            "detection-curve", "--s-over-r", repr(s), "--d-true", repr(d)]))
        ops.append(Op("curve_mc", check_mc, mc_trials=mc_trials, argv=[
            "detection-curve", "--s-over-r", repr(s), "--d-true", repr(d),
            "--method", "monte-carlo", "--n-trials", str(mc_trials),
            "--seed", str(draw.mc_seed)]))
    return ops


# -- validity harness ---------------------------------------------------------

def _validity_rows(out: str) -> list[tuple[float, float, float, str]]:
    return [(float(a), float(r), float(s), v) for a, r, s, v in _read_csv(out)]


def validity_harness(seed: int, workdir: Path, n_rounds: int = VALIDITY_ROUNDS,
                     n_fc: int = VALIDITY_FC_RUNS, n_trials: int = VALIDITY_TRIALS,
                     fc_trials: int = FC_TRIALS) -> list[Op]:
    """Per round: ``false-confidence`` runs, CLI ``validity`` with the
    additive and the ksigma rule at the proof halfwidth, and a library
    ``validity_check`` of a 3-D ksigma rule on three false propositions."""
    del workdir  # every answer goes to stdout or is returned
    ops = []
    for draw in inputs.validity_draws(seed, n_rounds, n_fc):
        sigma = draw.sigma
        alphas = draw.alphas
        # the proof halfwidth of the smallest level is within the proof
        # halfwidth of every level, so the additive rule fails them all
        h = min(a * sigma * math.sqrt(2.0 * math.pi) / 2.0 for a in alphas)
        grid = ",".join(repr(a) for a in alphas)

        for a, widen, fc_seed in zip(draw.fc_alphas, draw.fc_widen, draw.seeds[3:]):
            halfwidth = widen * a * sigma * math.sqrt(2.0 * math.pi) / 2.0
            p_ref = oracles.additive_rate(halfwidth, a, sigma)

            def check_fc(out, _result, p_ref=p_ref, halfwidth=halfwidth):
                fields = dict(part.split("=") for part in out.split())
                rate, target = float(fields["empirical_rate"]), float(fields["p_target"])
                hw = float(fields["halfwidth"])
                return _combine([
                    (oracles.binomial_ok(rate, p_ref, fc_trials, Z_EXACT),
                     oracles.binomial_ok(rate, p_ref, fc_trials, Z_GROSS)),
                    _prob_verdict(target, p_ref),
                    (_close(hw, halfwidth, 1e-8), _close(hw, halfwidth, 1e-3)),
                ])

            argv = ["false-confidence", "--sigma", repr(sigma), "--alpha", repr(a),
                    "--n-trials", str(fc_trials), "--seed", str(fc_seed)]
            if widen != 1.0:
                argv += ["--halfwidth", repr(halfwidth)]
            ops.append(Op("false_confidence", check_fc, argv=argv, mc_trials=fc_trials))

        for rule, seed_ in (("additive", draw.seeds[0]), ("ksigma", draw.seeds[1])):
            refs = [oracles.additive_rate(h, a, sigma) if rule == "additive"
                    else oracles.ksigma_interval_rate(h, a, sigma) for a in alphas]

            def check_validity(out, _result, refs=refs, rule=rule):
                rows = _validity_rows(out)
                if len(rows) != len(refs):
                    return False, False
                verdicts = []
                for (alpha, rate, _se, verdict), ref in zip(rows, refs):
                    expect = "fail" if rule == "additive" else "pass"
                    verdicts.append((verdict == expect, True))
                    verdicts.append((oracles.binomial_ok(rate, ref, n_trials, Z_EXACT),
                                     oracles.binomial_ok(rate, ref, n_trials, Z_GROSS)))
                return _combine(verdicts)

            ops.append(Op(f"validity_{rule}", check_validity,
                          belief_evals=n_trials * len(alphas), argv=[
                              "validity", "--rule", rule, "--sigma", repr(sigma),
                              "--halfwidth", repr(h), "--alpha-grid", grid,
                              "--n-trials", str(n_trials), "--seed", str(seed_)]))

        ops.append(_validity_3d(draw, n_trials))
    return ops


def _validity_3d(draw: inputs.ValidityDraw, n_trials: int) -> Op:
    """Library ``validity_check`` of the 3-D ksigma rule at one level on a
    ball complement, a half-space and an ellipsoid, none holding the truth.

    The half-space rate is analytic; for the others the validity property
    itself (rate at most the level) is the oracle.
    """
    from conjrisk import (Ball, Complement, Ellipsoid, EllipsoidSet, HalfSpace,
                          gaussian_region_rule, gaussian_sampling_model, validity_check)

    cov, theta = draw.cov3, draw.theta3
    alpha = draw.alphas[-1]
    scale = math.sqrt(float(np.linalg.eigvalsh(cov)[-1]))
    normal = np.array([1.0, 0.5, -0.25])
    offset = float(normal @ theta) - 0.5 * scale
    props = [
        Complement(Ball(center=theta, radius=0.1 * scale)),
        HalfSpace(normal=normal, offset=offset),
        EllipsoidSet(Ellipsoid(center=theta + np.array([3.0 * scale, 0.0, 0.0]),
                               axes=np.eye(3), semi_lengths=np.full(3, 2.0 * scale))),
    ]
    half_ref = oracles.halfspace_rate(normal, offset, theta, cov, alpha)
    rule = gaussian_region_rule(cov)
    model = gaussian_sampling_model(theta, cov)

    def call():
        return validity_check(rule=rule, sampling_model=model, theta_true=theta,
                              proposition_family=props, alpha_grid=[alpha],
                              n_trials=n_trials, seed=draw.seeds[2])

    def check(_out, report):
        rate = report.rates[0]
        bound = alpha + Z_EXACT * math.sqrt(alpha * (1.0 - alpha) / n_trials)
        exact = (report.verdicts == ("pass",) and rate <= bound
                 and rate >= half_ref - Z_EXACT * math.sqrt(max(half_ref, 1.0 / n_trials) / n_trials))
        gross = rate <= alpha + Z_GROSS * math.sqrt(alpha * (1.0 - alpha) / n_trials)
        return exact, gross

    return Op("validity_3d", check, call=call, belief_evals=n_trials * len(props))


WORKLOADS = {
    "triage": triage,
    "threshold_study": threshold_study,
    "validity_harness": validity_harness,
}
