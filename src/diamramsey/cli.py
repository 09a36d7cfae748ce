"""Command-line surface: every operation with reproducible seeds and JSON I/O.

Each run prints one JSON report to stdout (command, echoed inputs, outputs,
seed, timing, version).  All randomness flows from --seed, defaulting to 0,
never wall-clock, so reruns reproduce the numeric outputs.  Domain errors
exit 1 with machine-readable JSON on stderr and a one-line summary on
stdout; usage errors, among them a float flag that is nan or infinite and
a negative --tol, --seed, --samples or --oracle-samples, exit 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import __version__
from .coloring import color_configuration, falsify_coloring, find_monochromatic_copy
from .constructions import almost_regular_simplex, obtuse_triangle, regular_simplex
from .errors import GeometryError
from .formats import (
    colored_to_dict,
    configuration_to_csv,
    configuration_to_dict,
    load_colored,
    load_configuration,
)
from .geometry import DEFAULT_TOL, affine_dimension, diameter
from .obstruction import (ConjectureLabel, classify_triangle, conjecture_classification,
                          obstruction_verdict)
from .spheres import _jung_radius, circumsphere, min_enclosing_ball
from .spread import SpreadProblem, estimate_c, sample_spread_oracle


def _finite(text: str) -> float:
    """argparse type for float flags: nan and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    """argparse type for --tol: a finite number, zero or more."""
    value = _finite(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _count(text: str) -> int:
    """argparse type for --seed and the sample counts: an integer, zero or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _load(args):
    return load_configuration(args.input, args.format)


def _tol(args, fallback: float = DEFAULT_TOL) -> float:
    return fallback if args.tol is None else args.tol


def _cmd_diameter(args):
    config = _load(args)
    return {"diameter": diameter(config), "n_points": len(config),
            "dim": config.dim}, None, None


def _cmd_meb(args):
    config = _load(args)
    ball = min_enclosing_ball(config, seed=args.seed)
    return {"center": ball.center.tolist(), "radius": ball.radius}, None, None


def _cmd_circumsphere(args):
    config = _load(args)
    sphere = circumsphere(config, tol=_tol(args))
    return {
        "center": sphere.center.tolist(),
        "radius": sphere.radius,
        "residual": sphere.residual,
        "carrier": sphere.carrier.tolist(),
    }, None, None


def _cmd_jung(args):
    config = _load(args)
    m, diam = affine_dimension(config), diameter(config)
    return {
        "jung_bound": _jung_radius(m, diam),
        "affine_dimension": m,
        "diameter": diam,
    }, None, None


def _cmd_obstruct(args):
    config = _load(args)
    verdict = obstruction_verdict(config, tol=_tol(args))
    return verdict.to_dict(), None, None


def _cmd_triangle(args):
    verdict = classify_triangle(args.alpha, args.side)
    return verdict.to_dict(), None, None


def _cmd_conjecture(args):
    config = _load(args)
    label = conjecture_classification(config, tol=_tol(args))
    return {"label": label.value,
            "circumcenter_in_hull": label is ConjectureLabel.DIAMETER_RAMSEY,
            "conjectural": True}, None, None


def _cmd_estimate_c(args):
    config = _load(args)
    problem = SpreadProblem(target=config, radius=args.radius)
    estimate = estimate_c(problem, restarts=args.restarts, seed=args.seed,
                          tolerance=_tol(args), oracle_samples=args.oracle_samples)
    return estimate.to_dict(), None, None


def _cmd_oracle(args):
    config = _load(args)
    problem = SpreadProblem(target=config, radius=args.radius)
    value = sample_spread_oracle(problem, args.samples, seed=args.seed)
    return {"oracle_value": value, "n_samples": args.samples,
            "radius": args.radius}, None, None


def _cmd_color(args):
    config = _load(args)
    colored = color_configuration(config, args.shell)
    artifact = colored_to_dict(colored)
    outputs = dict(artifact)
    outputs["shell_width"] = args.shell
    return outputs, artifact, "json"


def _cmd_falsify(args):
    config = _load(args)
    report = falsify_coloring(config, r=args.radius, c=args.shell,
                              n_samples=args.samples, seed=args.seed)
    return report.to_dict(), None, None


def _cmd_find_copy(args):
    colored = load_colored(args.input)
    target = load_configuration(args.target, args.format)
    witness = find_monochromatic_copy(colored, target, tol=args.tol)
    return {
        "found": witness is not None,
        "indices": list(witness) if witness is not None else None,
    }, None, None


def _cmd_construct(args):
    if args.shape == "regular":
        config = regular_simplex(args.dim)
    elif args.shape == "cor3":
        config = almost_regular_simplex(args.dim, args.delta)
    else:
        config = obtuse_triangle(args.alpha, args.side)
    artifact = configuration_to_dict(config)
    return {"configuration": artifact}, artifact, args.format


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamramsey",
        description="Circumradius obstructions to diameter-Ramsey sets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="configuration file format (default json)")
        p.add_argument("--seed", type=_count, default=0,
                       help="seed for all randomness (default 0)")
        p.add_argument("--tol", type=_tolerance, default=None,
                       help="numeric tolerance override")
        p.add_argument("--out", default=None,
                       help="also write the primary output to this path")
        return p

    def add_input(p):
        p.add_argument("--input", required=True, help="configuration file")

    add_input(add("diameter", _cmd_diameter, help="largest pairwise distance"))
    add_input(add("meb", _cmd_meb, help="minimum enclosing ball"))
    add_input(add("circumsphere", _cmd_circumsphere,
                  help="smallest containing sphere"))
    add_input(add("jung", _cmd_jung, help="Jung covering-ball bound"))
    add_input(add("obstruct", _cmd_obstruct,
                  help="circumradius obstruction verdict"))

    p = add("triangle", _cmd_triangle, help="verdict for a triangle by largest angle")
    p.add_argument("--alpha", type=_finite, required=True, help="largest angle, degrees")
    p.add_argument("--side", type=_finite, default=1.0, help="side opposite alpha")

    add_input(add("conjecture", _cmd_conjecture,
                  help="conjectural simplex classification (circumcenter vs hull)"))

    p = add("estimate-c", _cmd_estimate_c,
            help="certified minimal spread of congruent copies in the r-ball")
    add_input(p)
    p.add_argument("--radius", type=_finite, required=True)
    p.add_argument("--restarts", type=int, default=64,
                   help="cap on warm-started solve passes")
    p.add_argument("--oracle-samples", type=_count, default=0,
                   help="cross-check sample count (0 disables)")

    p = add("oracle", _cmd_oracle, help="sampling lower-effort spread scan")
    add_input(p)
    p.add_argument("--radius", type=_finite, required=True)
    p.add_argument("--samples", type=_count, default=100000)

    p = add("color", _cmd_color, help="shell-colour the points of a configuration")
    add_input(p)
    p.add_argument("--shell", type=_finite, required=True, help="shell width")

    p = add("falsify", _cmd_falsify,
            help="Monte-Carlo hunt for monochromatic congruent copies")
    add_input(p)
    p.add_argument("--radius", type=_finite, required=True)
    p.add_argument("--shell", type=_finite, required=True)
    p.add_argument("--samples", type=_count, default=100000)

    p = add("find-copy", _cmd_find_copy,
            help="exact monochromatic-copy search in a coloured set")
    p.add_argument("--input", required=True, help="coloured configuration JSON")
    p.add_argument("--target", required=True, help="target configuration file")

    p = add("construct", _cmd_construct, help="emit a witness configuration")
    p.add_argument("shape", choices=("regular", "cor3", "obtuse"))
    p.add_argument("--dim", type=int, default=2, help="simplex dimension")
    p.add_argument("--delta", type=_finite, default=0.01,
                   help="circumradius perturbation (cor3)")
    p.add_argument("--alpha", type=_finite, default=150.0,
                   help="apex angle in degrees (obtuse)")
    p.add_argument("--side", type=_finite, default=1.0,
                   help="base length (obtuse)")

    return parser


def _echo_inputs(args) -> dict:
    skip = {"handler", "command"}
    return {k: v for k, v in vars(args).items() if k not in skip}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    start = time.perf_counter()
    try:
        outputs, artifact, artifact_fmt = args.handler(args)
        if args.out is not None:
            if artifact is not None:
                _write_artifact(artifact, args.out, artifact_fmt or "json")
            else:
                with open(args.out, "w", encoding="utf-8") as handle:
                    json.dump(outputs, handle, indent=2)
                    handle.write("\n")
    except GeometryError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        print(f"error: {type(exc).__name__}: {exc}")
        return 1
    except OSError as exc:
        print(json.dumps({"error": "IOError", "message": str(exc)}), file=sys.stderr)
        print(f"error: IOError: {exc}")
        return 1

    report = {
        "command": args.command,
        "version": __version__,
        "inputs": _echo_inputs(args),
        "outputs": outputs,
        "seed": getattr(args, "seed", None),
        "timing_s": round(time.perf_counter() - start, 6),
    }
    print(json.dumps(report, indent=2))
    return 0


def _write_artifact(artifact: dict, path: str, fmt: str) -> None:
    if fmt == "csv" and "points" in artifact:
        from .formats import configuration_from_dict
        config = configuration_from_dict(artifact)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(configuration_to_csv(config))
        return
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
        handle.write("\n")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
