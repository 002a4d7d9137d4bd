"""Workloads of the helimag benchmark: seeded job streams, job execution and
output checks.

Every workload is an endless stream of jobs built from its seed in cycles.
A cycle holds a fixed mix of job kinds in a seeded order, so any stretch of
the stream has the same mix whatever the seed; the seed draws the order and
the free inputs (boundary pairs, wall counts and positions, field contents,
spacings, couplings).  ``Job.run`` is the timed call into helimag;
``Job.check`` verifies its output afterwards.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

# helimag functions are looked up on their modules at call time, so the
# traced wrappers bound there are the ones called
from helimag import cli, continuum, optimize, recovery
from helimag.continuum import MeshPotential
from helimag.lattice import Domain, ModelParams, SpinField

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

# tolerances fixed before the reference values were recorded
REF_REL_TOL = 1e-9  # recover ratios and descent final energies
IDENTITY_TOL = 1e-9  # |direct - decomposition| <= IDENTITY_TOL * (1 + |H|)
HELIX_TOL = 1e-10  # |H| on helical fields
LIMIT_REL_TOL = 1e-9  # classify limit energy against the analytic value

# recover: example meshes x schedule levels; laminate wall counts 1..8
RECOVER_KINDS = ("vertical_wall", "horizontal_wall", "diagonal_wall", "four_quadrant", "laminate")
LAMINATE_WALLS = tuple(range(1, 9))
RECOVER_SCHEDULE = {"full": (64, 3), "tiny": (16, 1)}  # (finest_n, levels)

# descent: 2-D planes (side -> iteration cap) and 1-D chains
# (epsilon -> iteration cap) along the acceptance-test epsilon schedule
PLANE_CAPS = {"full": {16: 80, 24: 50, 32: 30, 48: 15}, "tiny": {16: 80}}
CHAIN_CAPS = {"full": {0.2: 400, 0.1: 400, 0.05: 400, 0.02: 300},
              "tiny": {0.2: 400, 0.1: 400}}
# opposite-w boundary pairs for the planes: an axis wall in w
PLANE_PAIRS = (((1, 1), (-1, 1)), ((1, -1), (-1, -1)), ((-1, 1), (1, 1)), ((-1, -1), (1, -1)))
CHAIN_SIDES = ((1, -1), (-1, 1))

# evaluate: spin-field sides and mesh refinements
FIELD_SIDES = {"full": (32, 48, 64, 96, 128, 192, 256), "tiny": (16, 24)}
FIELD_KINDS = ("random", "helical", "smooth")
MESH_KINDS = ("vertical", "horizontal", "diagonal", "four_quadrant", "laminate")
MESH_REFINE = {"full": (8, 16, 32), "tiny": (4, 8)}
DELTA_RANGE = (0.05, 0.5)


class CheckFailed(Exception):
    """A job's output disagrees with its reference or an exact identity."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(1.0, abs(ref))


@dataclass
class Job:
    """One request: ``run()`` is timed, ``check(output)`` raises CheckFailed."""

    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    cycle_len: int  # jobs per cycle; the traced run's count set is one cycle
    jobs: Callable[[], Iterator[Job]]  # a fresh stream from job 0
    warmup: list[Job]
    mix: dict[str, float]  # share of each job kind in a cycle
    workdir: Path | None = None

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------- recover

def recover_key(kind: str, walls: int, n: int) -> str:
    return f"{kind}{walls if kind == 'laminate' else ''}@{n}"


def recover_levels(size: str) -> list[ModelParams]:
    finest_n, levels = RECOVER_SCHEDULE[size]
    return recovery.SweepSchedule.default(finest_n=finest_n, levels=levels).steps


def recover_row(kind: str, walls: int, params: ModelParams) -> dict:
    """One sweep row: recovery field energy against the limit energy."""
    m = continuum.build_example(kind, n=walls)
    h_lim = continuum.limit_energy(m)
    res = recovery.build_recovery(
        m, params, kernel=recovery.Kernel(), width=recovery.pick_width(m)
    )
    return {"ratio": res.report.total / h_lim, "overflow": res.overflow_count}


def _recover_job(kind: str, walls: int, params: ModelParams, ref: dict) -> Job:
    key = recover_key(kind, walls, round(1.0 / params.lam))
    expected = ref[key]

    def check(out):
        _require(out["overflow"] == 0, f"{key}: {out['overflow']} overflow bonds")
        _require(_close(out["ratio"], expected, REF_REL_TOL),
                 f"{key}: ratio {out['ratio']!r} != recorded {expected!r}")

    return Job(run=lambda: recover_row(kind, walls, params), check=check)


def recover_workload(seed: int, size: str, ref: dict) -> Workload:
    levels = recover_levels(size)
    cells = [(k, p) for k in RECOVER_KINDS for p in levels]

    def jobs():
        rng = random.Random(seed)
        walls: list[int] = []
        while True:
            for kind, params in rng.sample(cells, len(cells)):
                w = 3
                if kind == "laminate":
                    if not walls:
                        walls = rng.sample(LAMINATE_WALLS, len(LAMINATE_WALLS))
                    w = walls.pop()
                yield _recover_job(kind, w, params, ref["recover"])

    return Workload(
        cycle_len=len(cells), jobs=jobs,
        warmup=[_recover_job("diagonal_wall", 3, levels[0], ref["recover"])],
        mix={k: 1.0 / len(RECOVER_KINDS) for k in RECOVER_KINDS},
    )


# ---------------------------------------------------------------- descent

def plane_key(side: int, pair) -> str:
    (wl, zl), (wr, zr) = pair
    return f"plane{side}:{wl:+d}{zl:+d}/{wr:+d}{zr:+d}"


def chain_key(eps: float, sides) -> str:
    return f"chain{eps}:{sides[0]:+d}/{sides[1]:+d}"


def plane_problem(side: int, pair):
    lam = 1.0 / side
    p = ModelParams(lam=lam, delta=lam ** (2.0 / 3.0))
    bc = optimize.two_sided_bc(side, side, p, pair[0], pair[1])
    return optimize.linear_init(bc), Domain(width=side * lam, height=side * lam), p, bc


def chain_problem(eps: float, sides):
    # the epsilon schedule of the 1-D wall-constant acceptance test
    lam = (math.sqrt(2.0) * eps) ** 1.5
    p = ModelParams(lam=lam, delta=lam ** (2.0 / 3.0))
    n = max(12, int(round(1.0 / lam)))
    bc = optimize.chain_bc(n, p, sides[0], sides[1])
    init = optimize.profile_init(n, p, sides[0], sides[1])
    return init, Domain(width=n * lam, height=lam), p, bc


def descend(problem, cap: int):
    psi0, dom, p, bc = problem
    return optimize.minimize_H(psi0, dom, p, bc, optimize.MinimizeOptions(max_iter=cap))


def _descent_job(key: str, make, cap: int, ref: dict) -> Job:
    expected = ref[key]

    def check(res):
        es = [e for _, e, _, _ in res.log]
        _require(all(b <= a for a, b in zip(es, es[1:])), f"{key}: energy increased")
        _require(not res.stalled, f"{key}: line search stalled")
        _require(_close(res.report.total, expected, REF_REL_TOL),
                 f"{key}: final energy {res.report.total!r} != recorded {expected!r}")

    return Job(run=lambda: descend(make(), cap), check=check)


def descent_workload(seed: int, size: str, ref: dict) -> Workload:
    planes = PLANE_CAPS[size]
    chains = CHAIN_CAPS[size]
    slots = [("plane", s) for s in planes] + [("chain", e) for e in chains]
    ref = ref["descent"]

    def job(kind, param, pick):
        if kind == "plane":
            pair = PLANE_PAIRS[pick % len(PLANE_PAIRS)]
            return _descent_job(plane_key(param, pair),
                                lambda: plane_problem(param, pair), planes[param], ref)
        sides = CHAIN_SIDES[pick % len(CHAIN_SIDES)]
        return _descent_job(chain_key(param, sides),
                            lambda: chain_problem(param, sides), chains[param], ref)

    def jobs():
        rng = random.Random(seed)
        while True:
            for kind, param in rng.sample(slots, len(slots)):
                yield job(kind, param, rng.randrange(4))

    return Workload(
        cycle_len=len(slots), jobs=jobs,
        warmup=[job("chain", min(chains), 0)],
        mix={"plane": len(planes) / len(slots), "chain": len(chains) / len(slots)},
    )


# ---------------------------------------------------------------- evaluate

@dataclass
class FieldFile:
    path: Path
    kind: str
    side: int
    delta: float  # the coupling a helical field is a ground state for


@dataclass
class MeshFile:
    path: Path
    limit: float  # analytic (4/3)(|D1 w| + |D2 z|)


def spin_field(kind: str, side: int, lam: float, delta: float, rng) -> SpinField:
    """Random-angle, helical (a ground state at ``delta``) or smooth-wall
    spin field; smooth fields lift a smoothed wall potential and carry no
    vortex."""
    jj, ii = np.mgrid[0:side, 0:side].astype(float)
    if kind == "random":
        psi = rng.uniform(-math.pi, math.pi, (side, side))
    else:
        beta = math.acos(1.0 - delta)
        w, z = rng.choice((-1, 1)), rng.choice((-1, 1))
        if kind == "helical":
            psi = beta * (w * ii + z * jj)
        else:
            # w flips across a tanh wall of width ~side/8 along a random axis
            width = side / 8.0
            c = side * rng.uniform(0.3, 0.7)
            if rng.random() < 0.5:
                psi = beta * (w * width * np.log(np.cosh((ii - c) / width)) + z * jj)
            else:
                psi = beta * (w * ii + z * width * np.log(np.cosh((jj - c) / width)))
        psi = psi + rng.uniform(-math.pi, math.pi)
    return SpinField.from_angles(psi, lam)


def refined_mesh(kind: str, k: int, rng) -> tuple[MeshPotential, float]:
    """Example potential on a k x k grid split into 2k^2 triangles, with its
    walls on seeded grid lines; returns the mesh and its analytic limit
    energy."""
    g = np.arange(k + 1) / k
    lines = sorted(rng.sample(range(1, k), 2))
    c = g[lines[0]]
    if kind == "vertical":
        f, limit = (lambda x, y: y + abs(x - c)), 8.0 / 3.0
    elif kind == "horizontal":
        f, limit = (lambda x, y: x + abs(y - c)), 8.0 / 3.0
    elif kind == "four_quadrant":
        cy = g[lines[1]]
        f, limit = (lambda x, y: abs(x - c) + abs(y - cy)), 16.0 / 3.0
    elif kind == "diagonal":
        # wall x + y = s on the cell anti-diagonals, chord sqrt(2)*min(s, 2-s)
        s = rng.randrange(1, 2 * k) / k
        f = lambda x, y: abs(x + y - s)  # noqa: E731
        limit = (16.0 / 3.0) * min(s, 2.0 - s)
    else:
        walls = sorted(rng.sample(range(1, k), min(3, k - 1)))
        xs = g[walls]

        def f(x, y):
            # triangle wave in x: slope flips sign at every wall
            h, sign, prev = 0.0, 1.0, 0.0
            for xw in xs:
                if x <= xw:
                    break
                h += sign * (xw - prev)
                sign, prev = -sign, xw
            return y + h + sign * (x - prev)

        limit = len(xs) * 8.0 / 3.0
    verts = [(x, y) for y in g for x in g]
    tris = []
    for j in range(k):
        for i in range(k):
            v00 = j * (k + 1) + i
            tris += [(v00, v00 + 1, v00 + k + 1), (v00 + 1, v00 + k + 2, v00 + k + 1)]
    m = MeshPotential(
        vertices=np.array(verts), triangles=np.array(tris),
        heights=np.array([f(x, y) for x, y in verts]), domain=Domain(),
    )
    return m, limit


def vortex_count(psi: np.ndarray) -> int:
    """Plaquettes with nonzero winding of the wrapped bond angles."""
    wrap = lambda d: (d + math.pi) % (2.0 * math.pi) - math.pi  # noqa: E731
    th = wrap(psi[:, 1:] - psi[:, :-1])
    tv = wrap(psi[1:, :] - psi[:-1, :])
    circ = th[:-1, :] + tv[:, 1:] - th[1:, :] - tv[:, :-1]
    return int(np.count_nonzero(np.round(circ / (2.0 * math.pi))))


def _cli_job(command: str, config: dict, check, workdir: Path, seq: list[int]) -> Job:
    def run():
        seq[0] += 1
        out = workdir / f"job{seq[0]}"
        return out, cli.run(command, {**config, "out": str(out)})

    def checked(result):
        out, (status, doc) = result
        try:
            _require(status == 0, f"{command}: status {status}: {doc.get('error')}")
            check(out, doc)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Job(run=run, check=checked)


def _energy_check(ff: FieldFile):
    def check(out, doc):
        en = json.loads((out / "energy.json").read_text())
        h = en["direct"]["total"]
        dec = en["decomposition"]["total"]
        _require(doc["total"] == h, "energy: reported total differs from energy.json")
        _require(abs(h - dec) <= IDENTITY_TOL * (1.0 + abs(h)),
                 f"energy: direct {h!r} != decomposition {dec!r}")
        if ff.kind == "helical":
            _require(abs(h) <= HELIX_TOL, f"energy: helix has |H| = {abs(h)!r}")

    return check


def _transform_check(ff: FieldFile, expected: int):
    def check(out, doc):
        vort = json.loads((out / "vorticity.json").read_text())
        count = int(np.count_nonzero(vort["values"]))
        _require(doc["vortex_count"] == count == expected,
                 f"transform: vortex count {doc['vortex_count']}/{count} != {expected}")

    return check


def _classify_check(mf: MeshFile):
    def check(out, doc):
        _require(abs(doc["limit_energy"] - mf.limit) <= LIMIT_REL_TOL * mf.limit,
                 f"classify: limit {doc['limit_energy']!r} != analytic {mf.limit!r}")

    return check


def write_inputs(seed: int, size: str, workdir: Path):
    """Spin fields and meshes for the evaluate stream, written as JSON."""
    rng = np.random.default_rng(seed)
    prng = random.Random(seed)
    fields: list[tuple[FieldFile, int]] = []
    for kind in FIELD_KINDS:
        for side in FIELD_SIDES[size]:
            lam = (1.0 / side) * float(rng.uniform(0.8, 1.2))  # distinct spacings
            delta = float(rng.uniform(*DELTA_RANGE))
            u = spin_field(kind, side, lam, delta, rng)
            path = workdir / f"{kind}{side}.json"
            path.write_text(u.to_json())
            fields.append((FieldFile(path, kind, side, delta), vortex_count(u.angles)))
    meshes: list[MeshFile] = []
    for kind in MESH_KINDS:
        for k in MESH_REFINE[size]:
            m, limit = refined_mesh(kind, k, prng)
            path = workdir / f"mesh_{kind}{k}.json"
            path.write_text(m.to_json())
            meshes.append(MeshFile(path, limit))
    return fields, meshes


def evaluate_workload(seed: int, size: str, ref: dict, outroot: Path) -> Workload:
    outroot.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="evaluate-", dir=outroot))
    fields, meshes = write_inputs(seed, size, workdir)
    seq = [0]

    def job(slot, rng):
        command, item = slot
        if command == "classify":
            return _cli_job("classify", {"mesh": str(item.path)},
                            _classify_check(item), workdir, seq)
        ff, vortices = item
        # helices are ground states only at their own coupling
        delta = ff.delta if ff.kind == "helical" else rng.uniform(*DELTA_RANGE)
        config = {"in": str(ff.path), "delta": delta}
        if command == "energy":
            return _cli_job("energy", config, _energy_check(ff), workdir, seq)
        return _cli_job("transform", config, _transform_check(ff, vortices), workdir, seq)

    slots = ([("energy", f) for f in fields] + [("transform", f) for f in fields]
             + [("classify", m) for m in meshes])

    def jobs():
        rng = random.Random(seed)
        while True:
            for slot in rng.sample(slots, len(slots)):
                yield job(slot, rng)

    n = len(slots)
    smallest = min(fields, key=lambda f: f[0].side)
    warm_rng = random.Random(seed)
    return Workload(
        cycle_len=n, jobs=jobs,
        warmup=[job(("energy", smallest), warm_rng), job(("transform", smallest), warm_rng),
                job(("classify", meshes[0]), warm_rng)],
        mix={"energy": len(fields) / n, "transform": len(fields) / n,
             "classify": len(meshes) / n},
        workdir=workdir,
    )


def make_workload(name: str, seed: int, size: str, ref: dict, outroot: Path) -> Workload:
    if name == "recover":
        return recover_workload(seed, size, ref)
    if name == "descent":
        return descent_workload(seed, size, ref)
    if name == "evaluate":
        return evaluate_workload(seed, size, ref, outroot)
    raise ValueError(f"unknown workload {name!r}")
