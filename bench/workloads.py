"""The benchmark's four workloads: seeded inputs, op lists and output checks.

Each workload builds its inputs from the seed alone and exposes `ops()`, a
fixed list of operations.  An op is one public call into diamramsey, or one
`python -m diamramsey.cli` process in cli_session.  Ops look the package's
functions up at call time, so the tracer's wrappers see them.  `check(op,
result)` compares an op's output with an independent reference or with the
library's own in-process value, raises CheckFailed on a mismatch, and returns
the computed values that the benchmark prints next to the op's time.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import diamramsey as dr
import diamramsey.cli

from reference import chunked_diameter, max_distance_from, meb_lower_bound, spread_reference

SPREAD_REL_TOL = 1e-6
# A fresh process (a CLI call, a set-up probe) follows the speed kernel only
# in part: over two sets of ten cli_session runs, scaling by factor ** 0.5
# gave the steadiest times (IQR/median of wall_s, op_s_p50 and op_s_tail at
# most 0.071, against 0.136 with the full factor and 0.179 unscaled).
FRESH_PROCESS_EXPONENT = 0.5
# spread_reference of each case, to 16 digits: shell_sampling sets its shell
# widths from these, and recomputes the reference only to check its outputs.
C_SHELL = {
    "triangle150@0.95": 0.008250682714263102,
    "triangle150@0.85": 0.028639049541062778,
    "triangle150@0.75": 0.05700840940949137,
    "simplex3@0.707": 0.005111185495146442,
    "simplex3@0.6457": 0.06268882634675277,
    "simplex4@0.707": 0.006940838747785283,
    "simplex4@0.6633": 0.06176248179839916,
}


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    copies: int = 0  # sampled congruent copies, for copies_per_s


@dataclass
class SpreadCase:
    """A witness and a ball radius, with the reference c(A, r) computed once."""

    label: str
    target: dr.Configuration
    radius: float
    control_factor: float = 4.0
    _c_ref: float | None = field(default=None, repr=False)

    @property
    def c_ref(self) -> float:
        if self._c_ref is None:
            self._c_ref = spread_reference(self.target.points, self.radius)
        return self._c_ref


def spread_cases(smoke: bool) -> list[SpreadCase]:
    """A 150-degree triangle at three radii, and the almost-regular 3- and
    4-simplex just below their circumradius and halfway between
    enclosing-ball radius and circumradius.  The verdict runs first, as in the
    paper's pipeline; its circumradius sets the radii.  Seven cases, an odd
    count, so that the median op of a pass falls inside one case's cluster
    of latencies rather than between two."""
    triangle = dr.obtuse_triangle(150.0)
    cases = [SpreadCase(f"triangle150@{r}", triangle, r) for r in (0.95, 0.85, 0.75)]
    for d, near_factor in ((3, 16.0), (4, 64.0)):
        simplex = dr.almost_regular_simplex(d, 0.01)
        verdict = dr.obstruction_verdict(simplex)
        require(verdict.status == dr.Status.NOT_DIAMETER_RAMSEY,
                f"simplex{d} lost its obstruction verdict")
        meb = dr.min_enclosing_ball(simplex).radius
        mid = 0.5 * (meb + verdict.circumradius)
        cases.append(SpreadCase(f"simplex{d}@0.707", simplex, 0.707, near_factor))
        cases.append(SpreadCase(f"simplex{d}@{mid:.4f}", simplex, mid))
    if smoke:
        return [cases[2], cases[4]]
    return cases


def padded(points: np.ndarray, dim: int) -> np.ndarray:
    out = np.zeros((len(points), dim))
    out[:, :points.shape[1]] = points
    return out


class SpreadSolve:
    """estimate_c on the fixed witnesses; the solver dominates."""

    # Two restarts run both deterministic anchor starts (enclosing-ball
    # centre and circumcentre); with them every case meets its reference.
    RESTARTS = 2
    PASS_S = 6.0  # seconds per pass when the benchmark was defined
    SPEED_EXPONENT = 1.0  # in-process work follows the speed kernel

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.cases = spread_cases(smoke)

    def ops(self) -> list[Op]:
        return [Op(f"estimate_c {case.label}", self._solver(case),
                   lambda est, case=case: self._check(case, est))
                for case in self.cases]

    def _solver(self, case):
        def run():
            problem = dr.SpreadProblem(target=case.target, radius=case.radius)
            return dr.estimate_c(problem, restarts=self.RESTARTS, seed=self.seed)
        return run

    @staticmethod
    def _check(case: SpreadCase, est) -> dict:
        require(est.feasible and est.c_estimate is not None, "no feasible estimate")
        rel = abs(est.c_estimate - case.c_ref) / case.c_ref
        require(rel <= SPREAD_REL_TOL, f"c_estimate off the reference by {rel:.2e}")
        rot = np.asarray(est.best_motion.rotation)
        require(np.abs(rot.T @ rot - np.eye(len(rot))).max() <= 1e-9,
                "best_motion is not orthogonal")
        placed = padded(case.target.points, est.ambient_dim) @ rot.T \
            + np.asarray(est.best_motion.translation)
        norms = np.linalg.norm(placed, axis=1)
        require(norms.max() <= case.radius * (1.0 + 1e-12), "placement leaves the ball")
        require(abs(norms.max() - norms.min() - est.c_estimate) <= 1e-12 * case.radius,
                "placement spread differs from c_estimate")
        return {"c_estimate": est.c_estimate, "c_ref": case.c_ref, "rel_err": rel,
                "max_norm": float(norms.max()), "best_restart": est.best_restart}


class ShellSampling:
    """sample_spread_oracle and falsify_coloring on the same witnesses."""

    # Two full sampler chunks per call: short ops in four passes keep the
    # median and tail op steadier than longer ops in two.
    SAMPLES = 2 * 65536
    PASS_S = 6.0
    SPEED_EXPONENT = 1.0

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.cases = spread_cases(smoke)
        self.samples = 20000 if smoke else self.SAMPLES

    def ops(self) -> list[Op]:
        ops = []
        for case in self.cases:
            below = 0.99 * C_SHELL[case.label]
            control = case.control_factor * C_SHELL[case.label]
            ops.append(Op(f"oracle {case.label}", self._oracle(case),
                          lambda v, case=case: self._check_oracle(case, v),
                          copies=self.samples))
            ops.append(Op(f"falsify {case.label} w=0.99c", self._falsify(case, below),
                          lambda rep, case=case, w=below: self._check_falsify(case, w, rep, False),
                          copies=self.samples))
            ops.append(Op(f"falsify {case.label} w={case.control_factor:g}c",
                          self._falsify(case, control),
                          lambda rep, case=case, w=control: self._check_falsify(case, w, rep, True),
                          copies=self.samples))
        return ops

    def _oracle(self, case):
        def run():
            problem = dr.SpreadProblem(target=case.target, radius=case.radius)
            return dr.sample_spread_oracle(problem, self.samples, seed=self.seed)
        return run

    def _falsify(self, case, width):
        return lambda: dr.falsify_coloring(case.target, case.radius, width,
                                           self.samples, seed=self.seed)

    @staticmethod
    def _check_oracle(case, value) -> dict:
        require(value >= case.c_ref * (1.0 - SPREAD_REL_TOL),
                f"oracle {value} below the reference {case.c_ref}")
        return {"oracle_min": value, "c_ref": case.c_ref, "ratio": value / case.c_ref}

    def _check_falsify(self, case, width, report, control: bool) -> dict:
        rel = abs(C_SHELL[case.label] - case.c_ref) / case.c_ref
        require(rel <= SPREAD_REL_TOL, f"shell width set from a stale c(A, r), off by {rel:.2e}")
        require(not report.vacuous and report.n_samples == self.samples,
                "falsifier skipped samples")
        require(report.num_colors == math.floor(case.radius / width) + 1,
                "wrong colour count")
        if control:
            require(report.monochromatic_count > 0,
                    "no monochromatic copy at the control width")
        else:
            require(report.monochromatic_count == 0,
                    "monochromatic copy below the spread constant")
        return {"monochromatic": report.monochromatic_count, "k": report.num_colors,
                "shell_width": width, "min_spread": report.min_spread}


def random_rotation(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def moved_copy(rng, points: np.ndarray) -> np.ndarray:
    """Relabelled copy under a random rotation/reflection and translation."""
    perm = rng.permutation(len(points))
    dim = points.shape[1]
    return points[perm] @ random_rotation(rng, dim).T + rng.normal(size=dim)


def sorted_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    return np.sort(dist[np.triu_indices(len(points), k=1)])


def sphere_points(rng, n: int, dim: int, radius: float, cap_deg: float | None):
    """n points on a sphere, or on a cap of the given angular radius around +e_1."""
    x = rng.standard_normal((n, dim))
    x /= np.linalg.norm(x, axis=1)[:, None]
    if cap_deg is not None:
        # Keep the direction's tangent part, set the polar angle uniformly.
        angle = np.radians(cap_deg) * rng.random(n)
        tangent = x[:, 1:] / np.linalg.norm(x[:, 1:], axis=1)[:, None]
        x = np.hstack([np.cos(angle)[:, None], np.sin(angle)[:, None] * tangent])
    center = rng.normal(size=dim)
    return center + radius * x, center


class Primitives:
    """Large seeded clouds through the geometry and sphere primitives."""

    PASS_S = 3.0
    SPEED_EXPONENT = 1.0

    def __init__(self, seed: int, smoke: bool):
        self._diameters: dict[int, float] = {}
        rng = np.random.default_rng(seed)
        # Welzl's work depends on its point order, up to ~3x between orders
        # of one cloud; each MEB call takes the next seed of this stream, so
        # a run averages over many orders instead of repeating one.
        self._meb_seeds = np.random.default_rng([seed, 1])
        s = 0.1 if smoke else 1.0
        size = lambda n: max(int(n * s), 50)
        cloud = lambda n, d: dr.Configuration.from_points(rng.normal(size=(size(n), d)))
        self.diameter_clouds = [cloud(3000, 3), cloud(2000, 6)]
        self.meb_clouds = [cloud(50000, 2), cloud(20000, 3), cloud(10000, 4), cloud(5000, 6)]
        self.jung_clouds = [cloud(2500, 4)]
        # Full sphere: circumradius below diam/sqrt(2), verdict Unknown.
        # 30-degree cap: circumradius above it, verdict NotDiameterRamsey.
        self.spheres = []
        for n, d, cap in ((3000, 3, None), (2000, 5, 30.0)):
            radius = float(rng.uniform(0.5, 2.0))
            pts, center = sphere_points(rng, size(n), d, radius, cap)
            self.spheres.append((dr.Configuration.from_points(pts), center, radius))
        self.congruent_pairs = []
        witnesses = [dr.regular_simplex(11).points,
                     dr.almost_regular_simplex(5, float(rng.uniform(0.005, 0.05))).points,
                     dr.obtuse_triangle(float(rng.uniform(136.0, 170.0))).points,
                     rng.normal(size=(int(rng.integers(8, 13)), int(rng.integers(2, 7))))]
        as_config = dr.Configuration.from_points
        for points in witnesses[:2] if smoke else witnesses:
            copy = moved_copy(rng, points)
            self.congruent_pairs.append((as_config(points), as_config(copy), True))
            scale = float(sorted_distances(points)[-1])
            while True:  # perturb until some pairwise distance moves by > 1e-8
                bumped = copy.copy()
                bumped[rng.integers(len(copy))] += 1e-6 * scale * rng.standard_normal(copy.shape[1])
                if np.abs(sorted_distances(bumped) - sorted_distances(points)).max() > 1e-8 * scale:
                    break
            self.congruent_pairs.append((as_config(points), as_config(bumped), False))

    def ops(self) -> list[Op]:
        ops = []
        for cfg in self.diameter_clouds:
            ops.append(Op(f"diameter n={len(cfg)} d={cfg.dim}", lambda c=cfg: dr.diameter(c),
                          lambda v, c=cfg: self._check_diameter(c, v)))
        for cfg in self.meb_clouds:
            ops.append(Op(f"min_enclosing_ball n={len(cfg)} d={cfg.dim}",
                          lambda c=cfg: dr.min_enclosing_ball(c, seed=self._meb_seed()),
                          lambda ball, c=cfg: self._check_meb(c, ball)))
        for cfg, center, radius in self.spheres:
            tag = f"n={len(cfg)} d={cfg.dim}"
            ops.append(Op(f"circumsphere {tag}", lambda c=cfg: dr.circumsphere(c),
                          lambda s, c=center, r=radius: self._check_sphere(c, r, s)))
            ops.append(Op(f"obstruction_verdict {tag}", lambda c=cfg: dr.obstruction_verdict(c),
                          lambda v, c=cfg, r=radius: self._check_verdict(c, r, v)))
        for cfg in self.jung_clouds:
            ops.append(Op(f"jung_bound n={len(cfg)} d={cfg.dim}", lambda c=cfg: dr.jung_bound(c),
                          lambda v, c=cfg: self._check_jung(c, v)))
        for a, b, expected in self.congruent_pairs:
            kind = "moved" if expected else "near-miss"
            ops.append(Op(f"is_congruent {kind} n={len(a)} d={a.dim}",
                          lambda a=a, b=b: dr.is_congruent(a, b),
                          lambda v, e=expected: self._check_congruent(e, v)))
        return ops

    def _meb_seed(self) -> int:
        return int(self._meb_seeds.integers(2**31))

    def _reference_diameter(self, cfg) -> float:
        if id(cfg) not in self._diameters:
            self._diameters[id(cfg)] = chunked_diameter(cfg.points)
        return self._diameters[id(cfg)]

    def _check_diameter(self, cfg, value) -> dict:
        want = self._reference_diameter(cfg)
        require(abs(value - want) <= 1e-12 * want, f"diameter {value} != {want}")
        return {"diameter": value}

    @staticmethod
    def _check_meb(cfg, ball) -> dict:
        reach = max_distance_from(cfg.points, ball.center)
        require(reach <= ball.radius + 1e-9, "enclosing ball misses a point")
        lower = meb_lower_bound(cfg.points, ball.center, ball.radius)
        require(ball.radius - lower <= 1e-9 * ball.radius,
                f"enclosing ball not minimal: radius {ball.radius}, lower bound {lower}")
        return {"meb_radius": ball.radius, "lower_bound": lower}

    @staticmethod
    def _check_sphere(center, radius, sphere) -> dict:
        require(abs(sphere.radius - radius) <= 1e-9 * radius, "circumradius off")
        require(np.abs(sphere.center - center).max() <= 1e-9 * radius, "circumcenter off")
        return {"circumradius": sphere.radius, "residual": sphere.residual}

    def _check_verdict(self, cfg, radius, verdict) -> dict:
        diam = self._reference_diameter(cfg)
        margin = radius - diam / math.sqrt(2.0)
        want = dr.Status.NOT_DIAMETER_RAMSEY if margin > 1e-9 else dr.Status.UNKNOWN
        require(verdict.status == want, f"verdict {verdict.status.value}, want {want.value}")
        require(abs(verdict.margin - margin) <= 1e-9 * radius, "verdict margin off")
        return {"status": verdict.status.value, "margin": verdict.margin}

    def _check_jung(self, cfg, value) -> dict:
        m = cfg.dim  # Gaussian clouds are full-dimensional
        want = math.sqrt(m / (2.0 * m + 2.0)) * self._reference_diameter(cfg)
        require(abs(value - want) <= 1e-12 * want, f"jung bound {value} != {want}")
        return {"jung_bound": value}

    @staticmethod
    def _check_congruent(expected, value) -> dict:
        require(value is expected, f"is_congruent returned {value}, want {expected}")
        return {"congruent": value}


def write_configuration(path: Path, points: np.ndarray, fmt: str) -> None:
    if fmt == "json":
        path.write_text(json.dumps({"dim": points.shape[1], "points": points.tolist()}))
    else:
        path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n"
                                for row in points))


class CliSession:
    """A scripted session of `python -m diamramsey.cli` processes."""

    SAMPLES = 20000
    PASS_S = 12.0
    SPEED_EXPONENT = FRESH_PROCESS_EXPONENT

    def __init__(self, seed: int, smoke: bool, root: Path, in_process: bool = False):
        rng = np.random.default_rng(seed)
        self.seed, self.root, self.in_process, self.smoke = seed, root, in_process, smoke
        self.child_rss_mb: list[float] = []
        self.work = root / "bench" / "out" / f"cli-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.alpha = float(rng.uniform(140.0, 160.0))
        self.delta = float(rng.uniform(0.005, 0.02))
        self.triangle = dr.obtuse_triangle(self.alpha)
        self.simplex = dr.almost_regular_simplex(3, self.delta)
        circ = 1.0 / (2.0 * math.sin(math.radians(self.alpha)))
        self.radius = 0.5 + float(rng.uniform(0.5, 0.9)) * (circ - 0.5)
        self.falsify_width = float(rng.uniform(0.005, 0.02))
        # Host for find-copy: the triangle on one origin sphere (so one
        # colour) plus nine random points, twelve in all.
        ring = padded(self.triangle.points - self._circumcenter(self.triangle.points), 3)
        self.host = np.vstack([ring @ random_rotation(rng, 3).T,
                               rng.normal(scale=0.8, size=(9, 3))])
        self.host_width = float(rng.uniform(0.1, 0.3))
        write_configuration(self.work / "triangle.json", self.triangle.points, "json")
        write_configuration(self.work / "simplex.csv", self.simplex.points, "csv")
        write_configuration(self.work / "host.json", self.host, "json")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._expected: dict = {}

    @staticmethod
    def _circumcenter(points: np.ndarray) -> np.ndarray:
        a, b, c = points
        rel = np.array([b - a, c - a])
        rhs = 0.5 * np.einsum("ij,ij->i", rel, rel)
        return a + np.linalg.solve(rel, rhs)

    def script(self) -> list[tuple[list[str], Callable[[], dict]]]:
        """(argv, expected outputs) per CLI call; expectations come from the library."""
        w = str(self.work)
        tri, simplex = f"{w}/triangle.json", f"{w}/simplex.csv"
        seed, r, n = str(self.seed), repr(self.radius), str(self.SAMPLES)
        tri_cfg, simplex_cfg = self.triangle, self.simplex
        host = dr.Configuration.from_points(self.host)
        problem = lambda: dr.SpreadProblem(target=tri_cfg, radius=self.radius)

        def sphere_dict(s):
            return {"center": s.center.tolist(), "radius": s.radius,
                    "residual": s.residual, "carrier": s.carrier.tolist()}

        def colored():
            c = dr.color_configuration(host, self.host_width)
            return {"dim": 3, "points": self.host.tolist(), "colors": list(c.colors),
                    "shell_width": self.host_width}

        def found():
            c = dr.color_configuration(host, self.host_width)
            hit = dr.find_monochromatic_copy(c, tri_cfg)
            return {"found": hit is not None, "indices": list(hit) if hit else None}

        script = [
            (["construct", "obtuse", "--alpha", repr(self.alpha), "--out", f"{w}/built.json"],
             lambda: {"configuration": {"dim": 2, "points": tri_cfg.points.tolist()}}),
            (["construct", "cor3", "--dim", "3", "--delta", repr(self.delta),
              "--format", "csv", "--out", f"{w}/built.csv"],
             lambda: {"configuration": {"dim": 3, "points": simplex_cfg.points.tolist()}}),
            (["obstruct", "--input", simplex, "--format", "csv"],
             lambda: dr.obstruction_verdict(simplex_cfg).to_dict()),
            (["color", "--input", f"{w}/host.json", "--shell", repr(self.host_width),
              "--out", f"{w}/colored.json"], colored),
            (["find-copy", "--input", f"{w}/colored.json", "--target", tri], found),
        ]
        if self.smoke:
            return script
        return script + [
            (["triangle", "--alpha", repr(self.alpha)],
             lambda: dr.classify_triangle(self.alpha).to_dict()),
            (["obstruct", "--input", tri], lambda: dr.obstruction_verdict(tri_cfg).to_dict()),
            (["conjecture", "--input", simplex, "--format", "csv"],
             lambda: {"label": dr.conjecture_classification(simplex_cfg).value,
                      "circumcenter_in_hull": dr.circumcenter_in_hull(simplex_cfg),
                      "conjectural": True}),
            (["jung", "--input", simplex, "--format", "csv"],
             lambda: {"jung_bound": dr.jung_bound(simplex_cfg),
                      "affine_dimension": dr.affine_dimension(simplex_cfg),
                      "diameter": dr.diameter(simplex_cfg)}),
            (["meb", "--input", tri, "--seed", seed],
             lambda: (lambda b: {"center": b.center.tolist(), "radius": b.radius})(
                 dr.min_enclosing_ball(tri_cfg, seed=self.seed))),
            (["circumsphere", "--input", simplex, "--format", "csv"],
             lambda: sphere_dict(dr.circumsphere(simplex_cfg))),
            (["diameter", "--input", tri],
             lambda: {"diameter": dr.diameter(tri_cfg), "n_points": 3, "dim": 2}),
            (["oracle", "--input", tri, "--radius", r, "--samples", n, "--seed", seed],
             lambda: {"oracle_value": dr.sample_spread_oracle(problem(), self.SAMPLES,
                                                              seed=self.seed),
                      "n_samples": self.SAMPLES, "radius": self.radius}),
            (["falsify", "--input", tri, "--radius", r, "--shell", repr(self.falsify_width),
              "--samples", n, "--seed", seed],
             lambda: dr.falsify_coloring(tri_cfg, self.radius, self.falsify_width,
                                         self.SAMPLES, seed=self.seed).to_dict()),
            (["estimate-c", "--input", tri, "--radius", r, "--restarts", "1", "--seed", seed],
             lambda: dr.estimate_c(problem(), restarts=1, seed=self.seed).to_dict()),
        ]

    def ops(self) -> list[Op]:
        ops = []
        for argv, expected in self.script():
            run = (lambda a=argv: self._run_in_process(a)) if self.in_process \
                else (lambda a=argv: self._run_child(a))
            label = " ".join(["cli", argv[0]] + argv[1:2] * (argv[0] == "construct")
                             + ["csv"] * ("csv" in argv))
            ops.append(Op(label, run, lambda res, a=argv, e=expected: self._check(a, e, res)))
        return ops

    def _run_child(self, argv):
        with open(self.work / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "diamramsey.cli", *argv],
                                    stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb.append(usage.ru_maxrss / 1024.0)
        return proc.returncode, out.decode()

    @staticmethod
    def _run_in_process(argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = diamramsey.cli.run(argv)
        return code, buffer.getvalue()

    def _check(self, argv, expected, result) -> dict:
        code, stdout = result
        require(code == 0, f"exit code {code}")
        report = json.loads(stdout)
        key = tuple(argv)
        if key not in self._expected:
            self._expected[key] = json.loads(json.dumps(expected()))
        require(report["command"] == argv[0], "wrong command echoed")
        require(report["outputs"] == self._expected[key],
                "CLI output differs from the in-process library value")
        if argv[0] == "construct":
            out_file = Path(argv[argv.index("--out") + 1])
            points = report["outputs"]["configuration"]["points"]
            text = out_file.read_text()
            got = json.loads(text)["points"] if out_file.suffix == ".json" else \
                [[float(x) for x in line.split(",")] for line in text.splitlines()]
            require(got == points, "constructed file differs from the report")
        if argv[0] == "find-copy":
            require(report["outputs"]["found"], "no monochromatic copy in the host")
        return report["outputs"]  # small: the witnesses have at most twelve points

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {
    "spread_solve": SpreadSolve,
    "shell_sampling": ShellSampling,
    "primitives": Primitives,
    "cli_session": CliSession,
}
