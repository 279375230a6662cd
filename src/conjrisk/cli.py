"""Command-line interface orchestrating the analysis library.

Exit codes: 0 on success, 2 on input errors (bad flags, malformed files,
invalid parameters, unsupported propositions), 3 on numerical failures.
Stochastic commands require a seed, either via ``--seed`` or the ``seed``
key of the config file; given identical flags, config, and seed, every
command is byte-deterministic in its outputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .detection import (
    detection_curve,
    dilution_boundary,
    false_confidence_demo,
    proof_halfwidth,
)
from .errors import ConjunctionAnalysisError, InputValidationError, NumericalError
from .fileio import (
    Config,
    csv_text,
    format_cell,
    json_text,
    load_config,
    parse_conjunction,
    write_text,
)
from .probability import dilution_curve, pc_contour
from .geometry import standardized_encounter
from .propositions import Ball, Complement
from .screening import screen_conjunction
from .validity import (
    AdditiveGaussianRule,
    gaussian_region_rule,
    gaussian_sampling_model,
    validity_check,
)

_STOCHASTIC_HINT = "provide --seed or set 'seed' in the config file"


def _resolve_seed(args, config: Config) -> int:
    seed = args.seed if args.seed is not None else config.seed
    if seed is None:
        raise InputValidationError(f"this command is stochastic; {_STOCHASTIC_HINT}")
    return int(seed)


def _read_conjunction(args):
    cf = parse_conjunction(Path(args.input).read_bytes())
    for warning in cf.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return cf


def _floats(flag: str, spec: str) -> list[float]:
    """The comma-separated floats given to ``flag``."""
    try:
        return [float(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise InputValidationError(
            f"{flag} must be comma-separated floats, got {spec!r}"
        ) from None


def _emit(args, config: Config, doc: dict, rows: list[dict]) -> None:
    """Write a result to ``--output``: ``doc`` as JSON or ``rows`` as CSV."""
    if args.output is None:
        return
    if args.format == "json":
        write_text(json_text(doc), args.output)
    else:
        write_text(csv_text(rows, config.output_precision), args.output)


def _cmd_pc(args, config: Config) -> int:
    cf = _read_conjunction(args)
    enc = standardized_encounter(cf.to_joint_state())
    result = pc_contour(enc, n_quad=args.n_quad)
    print(format_cell(result.pc, config.output_precision))
    if result.below_min_quad:
        print(
            "warning: requested quadrature count is below the anisotropy rule",
            file=sys.stderr,
        )
    _emit(args, config, result.to_json_dict(), result.csv_rows())
    return 0


def _cmd_dilution_curve(args, config: Config) -> int:
    curve = dilution_curve(args.d_over_r, args.s_min, args.s_max, args.n_points)
    prec = config.output_precision
    if args.output is None:
        sys.stdout.write(csv_text(curve.csv_rows(), prec))
    else:
        _emit(args, config, curve.to_json_dict(), curve.csv_rows())
        print(
            f"peak_s_over_r={format_cell(curve.peak_s_over_r, prec)} "
            f"peak_pc={format_cell(curve.peak_pc, prec)}"
        )
    return 0


def _cmd_detection_curve(args, config: Config) -> int:
    seed = None
    n_trials = args.n_trials if args.n_trials is not None else config.mc_trials
    if args.method == "monte-carlo":
        seed = _resolve_seed(args, config)
    curve = detection_curve(
        args.s_over_r,
        args.d_true,
        thresholds=(
            None if args.threshold_grid == "default"
            else _floats("--threshold-grid", args.threshold_grid)
        ),
        method=args.method,
        n_trials=n_trials,
        seed=seed,
    )
    if args.output is None:
        sys.stdout.write(csv_text(curve.csv_rows(), config.output_precision))
    else:
        _emit(args, config, curve.to_json_dict(), curve.csv_rows())
        print(f"wrote {len(curve.points)} thresholds to {args.output}")
    return 0


def _cmd_boundary(args, config: Config) -> int:
    radius = args.combined_radius
    if radius is not None and not (radius > 0.0 and math.isfinite(radius)):
        raise InputValidationError(
            f"--combined-radius must be positive and finite, got {radius}"
        )
    boundary = dilution_boundary(args.threshold)
    prec = config.output_precision
    doc = {"threshold": args.threshold, "s_over_r_boundary": boundary}
    if radius is not None:
        doc["uncertainty_m"] = boundary * radius
        if math.isinf(doc["uncertainty_m"]):
            raise NumericalError(
                f"the uncertainty in meters (s/r boundary {boundary!r} times "
                f"combined radius {radius!r}) overflows"
            )
    print(format_cell(boundary, prec))
    if radius is not None:
        print(format_cell(doc["uncertainty_m"], prec))
    _emit(args, config, doc, [doc])
    return 0


def _cmd_screen(args, config: Config) -> int:
    cf = _read_conjunction(args)
    decision = screen_conjunction(cf.to_joint_state(), args.k_sigma)
    doc = decision.to_json_dict()
    sys.stdout.write(json_text(doc))
    _emit(args, config, doc, decision.csv_rows())
    return 0


def _cmd_validity(args, config: Config) -> int:
    seed = _resolve_seed(args, config)
    sigma = args.sigma
    if not (sigma > 0.0 and math.isfinite(sigma)):
        raise InputValidationError(f"sigma must be positive, got {sigma}")
    cov = np.array([[sigma * sigma]])
    if args.rule == "ksigma":
        rule = gaussian_region_rule(cov)
    else:
        rule = AdditiveGaussianRule(cov)
    report = validity_check(
        rule=rule,
        sampling_model=gaussian_sampling_model([0.0], cov),
        theta_true=[0.0],
        proposition_family=[Complement(Ball(center=[0.0], radius=args.halfwidth))],
        alpha_grid=_floats("--alpha-grid", args.alpha_grid),
        n_trials=args.n_trials,
        seed=seed,
    )
    if args.output is None:
        sys.stdout.write(csv_text(report.csv_rows(), config.output_precision))
    else:
        _emit(args, config, report.to_json_dict(), report.csv_rows())
        print("pass" if report.passed() else "fail")
    return 0


def _cmd_false_confidence(args, config: Config) -> int:
    seed = _resolve_seed(args, config)
    halfwidth = args.halfwidth
    if halfwidth is None:
        halfwidth = proof_halfwidth(args.sigma, args.alpha)
    report = false_confidence_demo(
        sigma=args.sigma,
        halfwidth=halfwidth,
        alpha=args.alpha,
        n_trials=args.n_trials,
        seed=seed,
    )
    prec = config.output_precision
    print(
        f"empirical_rate={format_cell(report.empirical_rate, prec)} "
        f"p_target={format_cell(report.p_target, prec)} "
        f"halfwidth={format_cell(report.neighborhood_halfwidth, prec)}"
    )
    _emit(args, config, report.to_json_dict(), report.csv_rows())
    return 0


def _add_io_flags(sub: argparse.ArgumentParser, with_input: bool = False) -> None:
    if with_input:
        sub.add_argument(
            "--input", required=True, help="conjunction file path (JSON or KVN)"
        )
    sub.add_argument("--output", default=None, help="write results to this path")
    sub.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output file format (default: json)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conjrisk",
        description=(
            "Conjunction analysis: encounter-plane collision probability, "
            "dilution and detection-rate analysis, and K-sigma ellipsoid "
            "screening."
        ),
    )
    parser.add_argument(
        "--config",
        default=None,
        help="config file path (overrides the CONJRISK_CONFIG environment variable)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    pc = commands.add_parser("pc", help="collision probability for a conjunction file")
    _add_io_flags(pc, with_input=True)
    pc.add_argument("--n-quad", type=int, default=None, help="quadrature point count")
    pc.set_defaults(handler=_cmd_pc)

    dil = commands.add_parser("dilution-curve", help="probability vs uncertainty ratio")
    _add_io_flags(dil)
    dil.add_argument("--d-over-r", type=float, required=True)
    dil.add_argument("--s-min", type=float, default=0.5)
    dil.add_argument("--s-max", type=float, default=1000.0)
    dil.add_argument("--n-points", type=int, default=200)
    dil.set_defaults(handler=_cmd_dilution_curve)

    det = commands.add_parser(
        "detection-curve", help="failure-to-detect probability vs threshold"
    )
    _add_io_flags(det)
    det.add_argument("--s-over-r", type=float, required=True)
    det.add_argument(
        "--d-true", type=float, required=True, help="true miss distance over combined radius"
    )
    det.add_argument("--threshold-grid", default="default")
    det.add_argument(
        "--method", choices=("semi-analytic", "monte-carlo"), default="semi-analytic"
    )
    det.add_argument("--n-trials", type=int, default=None)
    det.add_argument("--seed", type=int, default=None)
    det.set_defaults(handler=_cmd_detection_curve)

    bnd = commands.add_parser(
        "boundary", help="uncertainty ratio beyond which a threshold is unreachable"
    )
    _add_io_flags(bnd)
    bnd.add_argument("--threshold", type=float, required=True)
    bnd.add_argument(
        "--combined-radius",
        type=float,
        default=None,
        help="also report the boundary as an uncertainty in meters",
    )
    bnd.set_defaults(handler=_cmd_boundary)

    scr = commands.add_parser("screen", help="K-sigma ellipsoid screening decision")
    _add_io_flags(scr, with_input=True)
    scr.add_argument("--k-sigma", type=float, default=4.0)
    scr.set_defaults(handler=_cmd_screen)

    val = commands.add_parser(
        "validity", help="empirical validity check of a belief rule (1D scenario)"
    )
    _add_io_flags(val)
    val.add_argument("--rule", choices=("ksigma", "additive"), default="ksigma")
    val.add_argument("--sigma", type=float, default=1.0)
    val.add_argument(
        "--halfwidth",
        type=float,
        required=True,
        help="radius of the excluded neighborhood around the truth",
    )
    val.add_argument("--alpha-grid", default="0.01,0.05,0.1")
    val.add_argument("--n-trials", type=int, default=10000)
    val.add_argument("--seed", type=int, default=None)
    val.set_defaults(handler=_cmd_validity)

    fc = commands.add_parser(
        "false-confidence", help="additive-belief false-confidence simulation"
    )
    _add_io_flags(fc)
    fc.add_argument("--sigma", type=float, default=1.0)
    fc.add_argument("--alpha", type=float, default=0.05)
    fc.add_argument(
        "--halfwidth",
        type=float,
        default=None,
        help="excluded-neighborhood halfwidth (default: the constructive bound)",
    )
    fc.add_argument("--n-trials", type=int, default=10000)
    fc.add_argument("--seed", type=int, default=None)
    fc.set_defaults(handler=_cmd_false_confidence)

    return parser


#: Built once: constructing the tree takes as long as a whole ``boundary`` run.
_PARSER = build_parser()


def run_command(argv) -> int:
    """Run one CLI invocation; returns the process exit status."""
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        config = load_config(args.config)
        return args.handler(args, config)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ConjunctionAnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
