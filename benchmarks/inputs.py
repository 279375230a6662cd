"""Seeded input generators for the three workloads.

Each generator takes the seed as an argument and returns plain data: the
conjunction files as bytes and the numbers that become CLI arguments. No
generator imports ``conjrisk``. Continuous properties are drawn by stratified
sampling (one draw per equal-probability stratum, in a seeded order), so that
every seed covers each property's range evenly and the per-run statistics
depend little on the seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

_KVN_AXES = ("R", "T", "N", "RDOT", "TDOT", "NDOT")
_KVN_STATE = ("X", "Y", "Z", "X_DOT", "Y_DOT", "Z_DOT")

#: Gap classes of the two K-sigma position ellipsoids.
GAP_CLASSES = ("overlapping", "near", "far")
#: Conjunction file layouts: KVN (no cross covariance) and two JSON forms.
LAYOUTS = ("kvn", "json_cov12", "kvn", "json_cross6")


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator for one part of a workload's inputs."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,)))
    )


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniforms on (0, 1), one in each stratum ``[i/n, (i+1)/n)``, shuffled."""
    return (rng.permutation(n) + rng.uniform(size=n)) / n


def balanced(rng: np.random.Generator, n: int, labels) -> list:
    """``n`` labels in equal shares (remainder to the first labels), shuffled."""
    labels = list(labels)
    out = [labels[i % len(labels)] for i in range(n)]
    return [out[i] for i in rng.permutation(n)]


def _rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    return q * np.sign(np.diag(r))


def _sym(mat: np.ndarray) -> np.ndarray:
    return 0.5 * (mat + mat.T)


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    return _sym((vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T)


def _round_cov(rng: np.random.Generator, scale: float, ratio: float) -> np.ndarray:
    """Covariance whose 1-sigma semi-axes span ``scale / ratio .. scale``."""
    axes = scale * ratio ** -rng.uniform(0.0, 1.0, 3)
    axes[0] = scale
    q = _rotation(rng)
    return _sym((q * axes**2) @ q.T)


# -- triage -----------------------------------------------------------------

@dataclass(frozen=True)
class TriageCase:
    """One catalogue entry: a conjunction file and the screen's K."""

    name: str
    fmt: str            # "json" or "kvn"
    data: bytes
    k_sigma: float
    gap_class: str


def _json_bytes(x1, v1, r1, x2, v2, r2, cov: dict) -> bytes:
    doc = {
        "object1": {"position_m": [float(v) for v in x1],
                    "velocity_mps": [float(v) for v in v1], "radius_m": float(r1)},
        "object2": {"position_m": [float(v) for v in x2],
                    "velocity_mps": [float(v) for v in v2], "radius_m": float(r2)},
        "covariance": {key: [float(v) for v in np.ravel(m)] for key, m in cov.items()},
    }
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _kvn_bytes(x1, v1, r1, cov1, x2, v2, r2, cov2) -> bytes:
    lines = ["COMMENT synthetic conjunction"]
    for obj, pos, vel, radius, cov in (("OBJECT1", x1, v1, r1, cov1),
                                       ("OBJECT2", x2, v2, r2, cov2)):
        state = np.concatenate([pos, vel])
        for i, suffix in enumerate(_KVN_STATE):
            unit = "m" if i < 3 else "m/s"
            lines.append(f"{obj}_{suffix} = {float(state[i])!r} [{unit}]")
        lines.append(f"{obj}_RADIUS = {float(radius)!r} [m]")
        for i in range(6):
            for j in range(i + 1):
                unit = "m**2" if i < 3 else ("m**2/s" if j < 3 else "m**2/s**2")
                key = f"{obj}_C{_KVN_AXES[i]}_{_KVN_AXES[j]}"
                lines.append(f"{key} = {float(cov[i, j])!r} [{unit}]")
    return ("\n".join(lines) + "\n").encode("utf-8")


#: KVN files carry no cross covariance, so their relative covariance is the
#: sum of two object covariances and its anisotropy stays near theirs.
KVN_MAX_ANISOTROPY = 3.0
JSON_MAX_ANISOTROPY = 1.0e3


def triage_catalogue(seed: int, n: int, touching_k) -> list[TriageCase]:
    """``n`` synthetic conjunction files with their screening K.

    Drawn per file, each stratified over the catalogue:

    * encounter-plane anisotropy ``s1/s2``, log-uniform on [1, 1e3] for the
      JSON files (correlated tracking errors, given as a cross covariance,
      let it reach 1e3 while the object ellipsoids stay round) and on
      [1, 3] for the KVN files;
    * ``s/r``, with ``s = sqrt(s1 s2)``, log-uniform on [0.01, 100];
    * ``d/r`` uniform on [0, 20];
    * the gap class of the two K-sigma position ellipsoids, in equal shares.
      ``touching_k(delta, p1, p2)`` gives the K at which they touch, and K
      is set from it: overlapping 1.02-4x, near-touching with the gap a
      0.06-0.3 share of the touching size (log-uniform), far 0.1-0.6x.
      The gap and the shape draws are stratified within each class and
      layout, because together they set the screen's cost.

    Object position ellipsoids keep semi-axis ratios under about 5:
    alternating projection in ``min_distance`` slows with that ratio over the
    relative gap, and beyond about 10 separated pairs take seconds or fail to
    converge, which no operation of the benchmark may do.
    """
    rng = rng_for(seed, 0)
    s_over_r = 10.0 ** (-2.0 + 4.0 * stratified(rng, n))
    d_over_r = 20.0 * stratified(rng, n)
    gaps = balanced(rng, n, GAP_CLASSES)
    # each class gets the layouts in equal shares
    gap_u, layouts = np.empty(n), [""] * n
    for gap_class in GAP_CLASSES:
        members = [i for i in range(n) if gaps[i] == gap_class]
        gap_u[members] = stratified(rng, len(members))
        for i, layout in zip(members, balanced(rng, len(members), LAYOUTS)):
            layouts[i] = layout
    aniso_u, along_u = np.empty(n), np.empty(n)
    for gap_class in GAP_CLASSES:
        for layout in sorted(set(LAYOUTS)):
            members = [i for i in range(n) if gaps[i] == gap_class and layouts[i] == layout]
            aniso_u[members] = stratified(rng, len(members))
            along_u[members] = stratified(rng, len(members))
    cases = []
    for i in range(n):
        layout = layouts[i]
        top = KVN_MAX_ANISOTROPY if layout == "kvn" else JSON_MAX_ANISOTROPY
        aniso = top ** aniso_u[i]
        r1, r2 = rng.uniform(1.0, 10.0, 2)
        r = r1 + r2
        s = s_over_r[i] * r
        s1, s2 = s * math.sqrt(aniso), s / math.sqrt(aniso)
        frame = _rotation(rng)        # columns: two in-plane axes, velocity axis
        phi = rng.uniform(0.0, 2.0 * math.pi)
        delta = d_over_r[i] * r * (math.cos(phi) * frame[:, 0] + math.sin(phi) * frame[:, 1])
        if layout == "kvn":
            along = s2 * aniso ** along_u[i]
            c_rel = _sym(frame @ np.diag([s1 * s1, s2 * s2, along * along]) @ frame.T)
            root = _sym_sqrt(c_rel)
            q = _rotation(rng)
            p1 = _sym(root @ (q * rng.uniform(0.3, 0.7, 3)) @ q.T @ root)
            p2, cross = _sym(c_rel - p1), np.zeros((3, 3))
        else:
            # e2 = e1 + e_rel with cov(e1) = p1 and cov(e1, e_rel) = b
            along = s1 * 10.0 ** along_u[i]
            c_rel = _sym(frame @ np.diag([s1 * s1, s2 * s2, along * along]) @ frame.T)
            p1 = _round_cov(rng, 4.0 * along * 10.0 ** rng.uniform(0.0, 1.0), 2.0)
            b = rng.uniform(-0.3, 0.3) * _sym_sqrt(p1) @ _rotation(rng) @ _sym_sqrt(c_rel)
            p2 = _sym(p1 + c_rel + b + b.T)
            cross = p1 + b
        speed = rng.uniform(100.0, 15000.0)
        v1 = 7500.0 * _rotation(rng)[:, 0]
        v2 = v1 + speed * frame[:, 2]
        x1 = 7.0e6 * _rotation(rng)[:, 0]
        x2 = x1 + delta
        cov1, cov2, cross6 = np.zeros((6, 6)), np.zeros((6, 6)), np.zeros((6, 6))
        cov1[:3, :3], cov1[3:, 3:] = p1, np.diag(rng.uniform(0.01, 1.0, 3) ** 2)
        cov2[:3, :3], cov2[3:, 3:] = p2, np.diag(rng.uniform(0.01, 1.0, 3) ** 2)
        cross6[:3, :3] = cross

        k_touch = touching_k(x2 - x1, p1, p2)
        if gaps[i] == "overlapping":
            k = k_touch * (1.02 + 2.98 * gap_u[i])
        elif gaps[i] == "near":
            k = k_touch * (1.0 - 0.06 * 5.0 ** gap_u[i])
        else:
            k = k_touch * (0.1 + 0.5 * gap_u[i])

        if layout == "kvn":
            fmt, data = "kvn", _kvn_bytes(x1, v1, r1, cov1, x2, v2, r2, cov2)
        elif layout == "json_cov12":
            full = np.zeros((12, 12))
            full[:6, :6], full[6:, 6:] = cov1, cov2
            full[:6, 6:], full[6:, :6] = cross6, cross6.T
            fmt, data = "json", _json_bytes(x1, v1, r1, x2, v2, r2, {"cov12_row_major": full})
        else:
            fmt, data = "json", _json_bytes(
                x1, v1, r1, x2, v2, r2,
                {"object1_cov6": cov1, "object2_cov6": cov2, "cross6": cross6})
        cases.append(TriageCase(
            name=f"c{i:04d}.{fmt}", fmt=fmt, data=data, k_sigma=float(k), gap_class=gaps[i],
        ))
    return cases


# -- threshold study --------------------------------------------------------

@dataclass(frozen=True)
class StudyDraw:
    """One analyst question: an uncertainty ratio and a true miss distance."""

    s_over_r: float
    d_true_over_r: float
    threshold: float        # for the ``boundary`` command
    combined_radius: float
    mc_seed: int


def threshold_draws(seed: int, n: int) -> list[StudyDraw]:
    """``s/r`` log-uniform on [0.05, 100], so that every draw above about 2.2
    has thresholds of the default grid past the dilution boundary (where
    ``critical_displacement`` returns early) and every draw below has none;
    ``d_true/r`` uniform on [0, 3], collisions (``<= 1``) and near misses."""
    rng = rng_for(seed, 1)
    s_over_r = 0.05 * 2000.0 ** stratified(rng, n)
    d_true = 3.0 * stratified(rng, n)
    thresholds = 10.0 ** (-8.0 + 7.0 * stratified(rng, n))
    return [
        StudyDraw(
            s_over_r=float(s_over_r[i]), d_true_over_r=float(d_true[i]),
            threshold=float(thresholds[i]),
            combined_radius=float(rng.uniform(1.0, 20.0)),
            mc_seed=int(rng.integers(0, 2**31)),
        )
        for i in range(n)
    ]


# -- validity harness -------------------------------------------------------

@dataclass(frozen=True)
class ValidityDraw:
    """One round of the validity experiment."""

    sigma: float
    alphas: tuple[float, ...]       # CLI validity levels
    fc_alphas: tuple[float, ...]    # one false-confidence run per level
    fc_widen: tuple[float, ...]     # halfwidth over the proof halfwidth
    cov3: np.ndarray                # 3-D estimator covariance
    theta3: np.ndarray              # 3-D true parameter
    seeds: tuple[int, ...]


def validity_draws(seed: int, n: int, n_fc: int) -> list[ValidityDraw]:
    """Rounds with ``sigma`` log-uniform on [0.1, 10], levels drawn from
    [0.01, 0.2], ``n_fc`` false-confidence runs per round at the proof
    halfwidth or up to 3x wider, and a random 3-D covariance with semi-axis
    ratio up to 10."""
    rng = rng_for(seed, 2)
    sigma = 0.1 * 100.0 ** stratified(rng, n)
    out = []
    for i in range(n):
        alphas = tuple(sorted(float(a) for a in 10.0 ** rng.uniform(-2.0, math.log10(0.2), 2)))
        fc_alphas = tuple(float(a) for a in 10.0 ** rng.uniform(-2.0, math.log10(0.2), n_fc))
        widen = tuple(float(w) for w in np.where(rng.uniform(size=n_fc) < 0.5, 1.0,
                                                 rng.uniform(1.0, 3.0, n_fc)))
        out.append(ValidityDraw(
            sigma=float(sigma[i]), alphas=alphas, fc_alphas=fc_alphas, fc_widen=widen,
            cov3=_round_cov(rng, float(sigma[i]), 10.0),
            theta3=rng.uniform(-5.0, 5.0, 3),
            seeds=tuple(int(v) for v in rng.integers(0, 2**31, 3 + n_fc)),
        ))
    return out
