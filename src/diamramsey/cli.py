"""Command-line surface: every operation with reproducible seeds and JSON I/O.

Each run prints one JSON report to stdout (command, echoed inputs, outputs,
seed, timing, version).  All randomness flows from --seed, defaulting to 0,
never wall-clock, so reruns reproduce the numeric outputs.  Every subcommand
takes --seed and --out, and otherwise only the flags its handler reads:
--tol on circumsphere, obstruct, conjecture, estimate-c and find-copy, and
--format on all but triangle; any other flag is a usage error.  Domain
errors, unreadable files and requests too large for memory exit 1 with
machine-readable JSON on stderr and a one-line summary on stdout; usage
errors, among them a float flag that is nan or infinite, a negative --tol,
--seed, --samples or --oracle-samples and a --restarts below 1, exit 2.
The library modules are read as module objects when a handler runs, so a
call runs only the modules its subcommand uses.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import (__version__, coloring, constructions, errors, formats, geometry, obstruction,
               spheres, spread)


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


def _positive(text: str) -> int:
    """argparse type for --restarts: an integer, one or more."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is below 1")
    return value


def _load(args):
    return formats.load_configuration(args.input, args.format)


def _tol(args) -> float:
    return geometry.DEFAULT_TOL if args.tol is None else args.tol


def diameter(config) -> float:
    """geometry.diameter, which the diameter and jung reports call through this name."""
    return geometry.diameter(config)


def _cmd_diameter(args):
    config = _load(args)
    return {"diameter": diameter(config), "n_points": len(config),
            "dim": config.dim}, None


def _cmd_meb(args):
    config = _load(args)
    return geometry._as_json(spheres.min_enclosing_ball(config, seed=args.seed)), None


def _cmd_circumsphere(args):
    config = _load(args)
    return geometry._as_json(spheres.circumsphere(config, tol=_tol(args))), None


def _cmd_jung(args):
    config = _load(args)
    m, diam = geometry.affine_dimension(config), diameter(config)
    return {
        "jung_bound": spheres._jung_radius(m, diam),
        "affine_dimension": m,
        "diameter": diam,
    }, None


def _cmd_obstruct(args):
    config = _load(args)
    verdict = obstruction.obstruction_verdict(config, tol=_tol(args))
    return verdict.to_dict(), None


def _cmd_triangle(args):
    verdict = obstruction.classify_triangle(args.alpha, args.side)
    return verdict.to_dict(), None


def _cmd_conjecture(args):
    config = _load(args)
    label = obstruction.conjecture_classification(config, tol=_tol(args))
    return {"label": label.value,
            "circumcenter_in_hull": label is obstruction.ConjectureLabel.DIAMETER_RAMSEY,
            "conjectural": True}, None


def _cmd_estimate_c(args):
    config = _load(args)
    problem = spread.SpreadProblem(target=config, radius=args.radius)
    estimate = spread.estimate_c(problem, restarts=args.restarts, seed=args.seed,
                                 tolerance=_tol(args), oracle_samples=args.oracle_samples)
    return estimate.to_dict(), None


def _cmd_oracle(args):
    config = _load(args)
    problem = spread.SpreadProblem(target=config, radius=args.radius)
    value = spread.sample_spread_oracle(problem, args.samples, seed=args.seed)
    return {"oracle_value": value, "n_samples": args.samples,
            "radius": args.radius}, None


def _cmd_color(args):
    config = _load(args)
    colored = coloring.color_configuration(config, args.shell)
    artifact = formats.colored_to_dict(colored)
    outputs = dict(artifact)
    outputs["shell_width"] = args.shell
    return outputs, artifact


def _cmd_falsify(args):
    config = _load(args)
    report = coloring.falsify_coloring(config, r=args.radius, c=args.shell,
                                       n_samples=args.samples, seed=args.seed)
    return report.to_dict(), None


def _cmd_find_copy(args):
    colored = formats.load_colored(args.input)
    target = formats.load_configuration(args.target, args.format)
    witness = coloring.find_monochromatic_copy(colored, target, tol=args.tol)
    return {
        "found": witness is not None,
        "indices": list(witness) if witness is not None else None,
    }, None


def _cmd_construct(args):
    if args.shape == "regular":
        config = constructions.regular_simplex(args.dim)
    elif args.shape == "cor3":
        config = constructions.almost_regular_simplex(args.dim, args.delta)
    else:
        config = constructions.obtuse_triangle(args.alpha, args.side)
    return {"configuration": formats.configuration_to_dict(config)}, config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamramsey",
        description="Circumradius obstructions to diameter-Ramsey sets.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several subcommands take, each declared here once.
    shared = {
        "--input": dict(required=True,
                        help="configuration file (find-copy: coloured configuration JSON)"),
        "--format": dict(choices=("json", "csv"), default="json",
                         help="configuration file format (default json)"),
        "--tol": dict(type=_tolerance, default=None, help="numeric tolerance override"),
        "--radius": dict(type=_finite, required=True, help="ball radius"),
        "--samples": dict(type=_count, default=100000, help="copies sampled"),
        "--shell": dict(type=_finite, required=True, help="shell width"),
    }

    def add(name, handler, flags, help):
        """A subcommand taking --seed, --out and the named shared flags."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--seed", type=_count, default=0,
                       help="seed for all randomness (default 0)")
        p.add_argument("--out", default=None,
                       help="also write the primary output to this path")
        for flag in flags.split():
            p.add_argument(flag, **shared[flag])
        return p

    add("diameter", _cmd_diameter, "--input --format", "largest pairwise distance")
    add("meb", _cmd_meb, "--input --format", "minimum enclosing ball")
    add("circumsphere", _cmd_circumsphere, "--input --format --tol",
        "smallest containing sphere")
    add("jung", _cmd_jung, "--input --format", "Jung covering-ball bound")
    add("obstruct", _cmd_obstruct, "--input --format --tol",
        "circumradius obstruction verdict")

    p = add("triangle", _cmd_triangle, "", "verdict for a triangle by largest angle")
    p.add_argument("--alpha", type=_finite, required=True, help="largest angle, degrees")
    p.add_argument("--side", type=_finite, default=1.0, help="side opposite alpha")

    add("conjecture", _cmd_conjecture, "--input --format --tol",
        "conjectural simplex classification (circumcenter vs hull)")

    p = add("estimate-c", _cmd_estimate_c, "--input --format --tol --radius",
            "certified minimal spread of congruent copies in the r-ball")
    p.add_argument("--restarts", type=_positive, default=64,
                   help="cap on warm-started solve passes")
    p.add_argument("--oracle-samples", type=_count, default=0,
                   help="cross-check sample count (0 disables)")

    add("oracle", _cmd_oracle, "--input --format --radius --samples",
        "sampled upper bound on c(A, r): least spread of random copies")
    add("color", _cmd_color, "--input --format --shell",
        "shell-colour the points of a configuration")
    add("falsify", _cmd_falsify, "--input --format --radius --shell --samples",
        "Monte-Carlo hunt for monochromatic congruent copies")

    p = add("find-copy", _cmd_find_copy, "--input --format --tol",
            "exact monochromatic-copy search in a coloured set")
    p.add_argument("--target", required=True, help="target configuration file")

    p = add("construct", _cmd_construct, "--format", "emit a witness configuration")
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


def _fail(name: str, exc: BaseException) -> int:
    """An error as JSON on stderr and one summary line on stdout; exit status 1."""
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
    print(f"error: {name}: {exc}")
    return 1


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    start = time.perf_counter()
    try:
        outputs, artifact = args.handler(args)
        if isinstance(artifact, geometry.Configuration) and args.out is not None:
            formats.save_configuration(artifact, args.out, args.format)
        elif args.out is not None:
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(outputs if artifact is None else artifact, handle, indent=2)
                handle.write("\n")
    except errors.GeometryError as exc:
        return _fail(type(exc).__name__, exc)
    except OSError as exc:
        return _fail("IOError", exc)
    except MemoryError as exc:
        return _fail("MemoryError", exc)

    report = {
        "command": args.command,
        "version": __version__,
        "inputs": _echo_inputs(args),
        "outputs": outputs,
        "seed": args.seed,
        "timing_s": round(time.perf_counter() - start, 6),
    }
    print(json.dumps(report, indent=2))
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
