"""Command-line front end wiring the pipeline.

Exit codes: 0 success, 1 validation failure (usage errors, arguments,
schemas, invalid meshes, lattices too large to allocate, artefact files
that cannot be written, and any other ValueError a layer raises on its
input), 2 numerical failure (bond-angle overflow, line-search stall, failed
sweep rows).  All structured IO is JSON, tables are CSV, images are SVG.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .chirality import transform, vorticity
from .continuum import CLASSES, MeshPotential, build_example, classify, limit_energy, \
    mesh_to_svg, total_variations
from .energy import energy_H, mm_decomposition, prefactor, rho, spin_vectors
from .lattice import Domain, ModelParams, SpinField
from .optimize import MinimizeOptions, chain_bc, log_to_csv, minimize_H, profile_init
from .recovery import SweepSchedule, build_recovery, gamma_sweep, profile_transition_energy

_PAIRS = {"++": (1, 1), "+-": (1, -1), "-+": (-1, 1), "--": (-1, -1)}


class ValidationError(Exception):
    pass


class NumericalError(Exception):
    pass


def _outdir(config: dict) -> Path:
    try:
        out = Path(config.get("out", "."))
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, TypeError) as exc:
        raise ValidationError(f"cannot use output directory: {exc}") from exc
    return out


def _write(path: Path, artefact) -> str:
    """Write one artefact file and return its path as a string: text as
    it is, a grid by its write_json.  An OSError (the name is a directory,
    no permission, a full disk) becomes a ValidationError naming the file."""
    try:
        if isinstance(artefact, str):
            path.write_text(artefact)
        else:
            artefact.write_json(path)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return str(path)


def _finite_prefactor(p: ModelParams) -> ModelParams:
    """p if its plane and chain energy prefactors are finite; otherwise
    raises ValidationError."""
    try:  # lam * delta ** 1.5 can underflow to 0
        finite = all(math.isfinite(prefactor(p, p.lam, one_d)) for one_d in (False, True))
    except ZeroDivisionError:
        finite = False
    if not finite:
        raise ValidationError("bad model parameters: the energy prefactor is not finite")
    return p


@contextlib.contextmanager
def _warnings_if_accepted():
    """Hold back the warnings raised in the block and issue them only when
    it completes, so that rejected input reports its error alone."""
    with warnings.catch_warnings(record=True) as held:
        warnings.simplefilter("always")
        yield
    for w in held:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)


def _params(config: dict) -> ModelParams:
    """Model parameters whose energy prefactors are finite; anything else
    raises ValidationError.  ModelParams' regime warning is issued only for
    parameters that pass."""
    with _warnings_if_accepted():
        try:
            p = ModelParams(lam=float(config["lambda"]), delta=float(config["delta"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise ValidationError(f"bad model parameters: {exc}") from exc
        return _finite_prefactor(p)


def _int(config: dict, key: str, default: int) -> int:
    """Integer config value; a bool, a non-integral number or a string that
    is not an integer raises ValidationError."""
    value = config.get(key, default)
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key} must be an integer, got {value!r}") from exc


def _pair(config: dict, key: str, default: str) -> str:
    """One of the four sign pairs "++", "+-", "-+", "--"; anything else
    raises ValidationError."""
    value = config.get(key, default)
    if not isinstance(value, str) or value not in _PAIRS:
        raise ValidationError(f"{key} must be one of {sorted(_PAIRS)}")
    return value


def _load_mesh(config: dict) -> MeshPotential:
    if "mesh" in config and config["mesh"]:
        try:
            return MeshPotential.from_json(Path(config["mesh"]).read_bytes())
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"cannot load mesh: {exc}") from exc
    kind = config.get("kind")
    if not kind:
        raise ValidationError("either a mesh file or a built-in kind is required")
    return build_example(kind, n=_int(config, "n_walls", 3))


def _cmd_groundstate(config: dict) -> dict:
    pair = _pair(config, "pair", "++")
    p = _params(config)
    n = _int(config, "n", 64)
    if n < 2:
        raise ValidationError("n must be at least 2")
    out = _outdir(config)
    wsgn, zsgn = _PAIRS[pair]
    jj, ii = np.mgrid[0:n, 0:n]
    psi = p.helix_angle * (wsgn * ii + zsgn * jj)
    u = SpinField.from_angles(psi, p.lam)
    return {"written": _write(out / "groundstate.json", u), "pair": pair}


def _read_spin(config: dict) -> SpinField:
    try:
        return SpinField.from_json(Path(config["in"]).read_bytes())
    except (KeyError, OSError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot load spin field: {exc}") from exc


def _cmd_energy(config: dict) -> dict:
    u = _read_spin(config)
    p = _params({**config, "lambda": u.spacing})
    out = _outdir(config)
    dom = Domain(width=u.nx * u.spacing, height=u.ny * u.spacing)
    if u.nx < 2 or u.ny < 2:
        raise ValidationError(
            f"energy needs a spin field of at least 2x2 sites; {config['in']} holds "
            f"{u.ny}x{u.nx} (rows x columns)"
        )
    cs = spin_vectors(u.angles)  # shared by both energies
    rep = energy_H(u, dom, p, cs=cs)
    dec = mm_decomposition(u, dom, p, cs=cs)
    doc = {"direct": rep.to_dict(), "decomposition": dec.to_dict()}
    written = _write(out / "energy.json", json.dumps(doc))
    if config.get("format") == "csv":
        from .energy import CSV_HEADER

        _write(out / "energy.csv", CSV_HEADER + "\n" + dec.csv_row(p) + "\n")
    return {"written": written, "total": rep.total}


def _cmd_transform(config: dict) -> dict:
    u = _read_spin(config)
    p = _params({**config, "lambda": u.spacing})
    out = _outdir(config)
    theta, pair = transform(u, p)
    try:
        vort = vorticity(theta)
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    return {
        "written": [_write(out / "chirality.json", pair), _write(out / "vorticity.json", vort)],
        "vortex_count": int(np.count_nonzero(vort.values)),
    }


def _cmd_classify(config: dict) -> dict:
    m = _load_mesh(config)
    out = _outdir(config)
    segs = m.jumps
    tvs = total_variations(m)
    names = ("p", "q", "nu", "plus", "minus", "length", "class")
    cols = (segs.p, segs.q, segs.nu, segs.plus, segs.minus, segs.length,
            np.array(CLASSES)[classify(segs.plus, segs.minus, segs.nu)])
    doc = {
        "segments": [dict(zip(names, row)) for row in zip(*(c.tolist() for c in cols))],
        "total_variations": {
            "D1w": tvs[0], "D2w": tvs[1], "D1z": tvs[2], "D2z": tvs[3]
        },
        "limit_energy": limit_energy(m),
    }
    written = _write(out / "classify.json", json.dumps(doc))
    if config.get("format") == "svg":
        _write(out / "mesh.svg", mesh_to_svg(m))
    return {"written": written, "limit_energy": doc["limit_energy"]}


def _cmd_recover(config: dict) -> dict:
    m = _load_mesh(config)
    p = _params(config)
    out = _outdir(config)
    res = build_recovery(m, p)
    _, pair = transform(res.spin, p)
    _write(out / "recovery_spin.json", res.spin)
    _write(out / "recovery_chirality.json", pair)
    _write(out / "recovery_energy.json", res.report.to_json())
    if res.overflow_count > 0:
        raise NumericalError(
            f"bond-angle overflow on {res.overflow_count} bonds "
            f"(epsilon too large for this mesh)"
        )
    return {"H_n": res.report.total, "overflow_count": res.overflow_count,
            "segments": len(m.jumps), "quadrature_points": res.quadrature_points}


def _schedule(config: dict) -> SweepSchedule:
    """The default schedule or the [[lambda, delta], ...] steps of a JSON
    file; every step's energy prefactors must be finite.  The steps' regime
    warnings are issued only when the whole schedule passes."""
    spec = config.get("schedule", "default")
    with _warnings_if_accepted():
        try:
            if spec == "default":
                sched = SweepSchedule.default(
                    finest_n=_int(config, "finest_n", 256), levels=_int(config, "levels", 4)
                )
            else:
                steps = json.loads(Path(spec).read_text())
                sched = SweepSchedule(
                    steps=[ModelParams(lam=float(a), delta=float(b)) for a, b in steps]
                )
        except (OSError, ValueError, TypeError) as exc:
            raise ValidationError(f"bad schedule: {exc}") from exc
        for p in sched.steps:
            _finite_prefactor(p)
    return sched


def _cmd_sweep(config: dict) -> dict:
    m = _load_mesh(config)
    sched = _schedule(config)
    out = _outdir(config)
    table = gamma_sweep(m, sched)
    path = out / "sweep.csv"
    _write(path, table.to_csv())
    failed = next((r for r in table.rows if r.failed), None)
    if failed is not None:
        raise NumericalError(
            f"sweep row lambda={failed.params.lam!r} failed: {failed.error}; see {path}"
        )
    points = sum(r.quadrature_points for r in table.rows)
    return {"written": str(path), "final_ratio": table.rows[-1].ratio,
            "segments": table.segments, "quadrature_points": points}


def _cmd_minimize(config: dict) -> dict:
    p = _params(config)
    n = _int(config, "n", 64)
    left, right = _PAIRS[_pair(config, "bc", "+-")]
    bc = chain_bc(n, p, left, right)
    psi0 = profile_init(n, p, left, right)
    opts = MinimizeOptions(max_iter=_int(config, "max_iter", 5000))
    out = _outdir(config)
    res = minimize_H(psi0, Domain(width=n * p.lam, height=p.lam), p, bc, opts)
    _write(out / "minimize_psi.json", SpinField.from_angles(res.psi, p.lam))
    _write(out / "minimize_log.csv", log_to_csv(res.log))
    _write(out / "minimize_report.json", res.report.to_json())
    if res.stalled:
        raise NumericalError("line search stalled; best iterate written")
    return {
        "energy": res.report.total,
        "converged": res.converged,
        "reason": res.reason,
        "objective_evals": res.objective_evals,
        "rows_evaluated": res.rows_evaluated,
    }


def _cmd_profile1d(config: dict) -> dict:
    out = _outdir(config)
    total, pot, grad = profile_transition_energy()
    doc = {"total": total, "potential": pot, "gradient": grad, "target": 8.0 / 3.0}
    _write(out / "profile1d.json", json.dumps(doc))
    if abs(total - 8.0 / 3.0) > 1e-6:
        raise NumericalError(f"transition energy {total} off 8/3 by more than 1e-6")
    return doc


def _cmd_selftest(config: dict) -> dict:
    rng = np.random.default_rng(0)
    counts = {}
    # exact decomposition identity on random fields
    fails = 0
    for _ in range(20):
        nx = int(rng.integers(6, 14))
        p = ModelParams(lam=float(rng.uniform(0.01, 0.1)), delta=float(rng.uniform(0.05, 0.9)))
        u = SpinField.from_angles(rng.uniform(-math.pi, math.pi, (nx, nx)), p.lam)
        dom = Domain(width=nx * p.lam, height=nx * p.lam)
        a = energy_H(u, dom, p).total
        b = mm_decomposition(u, dom, p).total
        if abs(a - b) > 1e-9 * (1.0 + abs(a)):
            fails += 1
    counts["decomposition_identity"] = (20, fails)
    # rho agreement
    t1 = rng.uniform(-math.pi, math.pi, 20000)
    t2 = rng.uniform(-math.pi, math.pi, 20000)
    keep = np.abs(np.cos((t1 + t2) / 4.0)) > 1e-6
    d = np.abs(
        rho(t1[keep], t2[keep], "definition") - rho(t1[keep], t2[keep], "closed_form")
    )
    counts["rho_agreement"] = (int(keep.sum()), int((d > 1e-9).sum()))
    # ground states at zero energy
    fails = 0
    for pair in _PAIRS.values():
        p = ModelParams(lam=1.0 / 32, delta=0.1)
        jj, ii = np.mgrid[0:32, 0:32]
        psi = p.helix_angle * (pair[0] * ii + pair[1] * jj)
        u = SpinField.from_angles(psi, p.lam)
        if energy_H(u, Domain(), p).total > 1e-10:
            fails += 1
    counts["ground_states"] = (4, fails)
    # rigidity enumeration
    traces = [(a, b) for a in (1, -1) for b in (1, -1)]
    r2 = 1.0 / math.sqrt(2.0)
    normals = [(1, 0), (-1, 0), (0, 1), (0, -1), (r2, r2), (-r2, -r2), (r2, -r2), (-r2, r2)]
    triples = [(a, b, nu) for a in traces for b in traces if a != b for nu in normals]
    plus, minus, nus = (np.array(c, dtype=float) for c in zip(*triples))
    adm = int(np.count_nonzero(classify(plus, minus, nus)))
    counts["admissible_triples"] = (adm, 0 if adm == 24 else 1)
    total_fail = sum(f for _, f in counts.values())
    if total_fail:
        raise NumericalError(f"selftest failures: {counts}")
    return {name: {"checked": n, "failed": f} for name, (n, f) in counts.items()}


_DISPATCH = {
    "groundstate": _cmd_groundstate,
    "energy": _cmd_energy,
    "transform": _cmd_transform,
    "classify": _cmd_classify,
    "recover": _cmd_recover,
    "sweep": _cmd_sweep,
    "minimize": _cmd_minimize,
    "profile1d": _cmd_profile1d,
    "selftest": _cmd_selftest,
}


def run(command: str, config: dict) -> tuple[int, dict]:
    """Execute one command with a config dict; returns (exit status, result)."""
    if command not in _DISPATCH:
        return 1, {"error": f"unknown command {command!r}"}
    try:
        return 0, _DISPATCH[command](config)
    # every layer rejects a bad input with ValueError; ValidationError is no
    # subclass, so the handlers that prefix a layer's message never catch it
    except (ValidationError, ValueError) as exc:
        return 1, {"error": str(exc)}
    except NumericalError as exc:
        return 2, {"error": str(exc)}
    except MemoryError as exc:  # a lattice too large to allocate
        return 1, {"error": f"out of memory: {exc}"}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a validation failure (status 1) instead of
    exiting with argparse's status 2."""

    def error(self, message):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="helimag", description=__doc__)
    ap.add_argument("command", choices=_DISPATCH)
    ap.add_argument("--config", help="JSON config file; flags override its keys")
    ap.add_argument("--out", help="output directory (default .)")
    ap.add_argument("--format", choices=("csv", "svg"),
                    help="also write energy.csv (energy) or mesh.svg (classify)")
    ap.add_argument("--json-errors", action="store_true",
                    help="emit machine-readable error JSON on stderr")
    ap.add_argument("--pair")
    ap.add_argument("--bc")
    ap.add_argument("--delta", type=float)
    ap.add_argument("--lambda", dest="lambda", type=float)
    ap.add_argument("--n", type=int)
    ap.add_argument("--n-walls", type=int, dest="n_walls")
    ap.add_argument("--in", dest="in")
    ap.add_argument("--mesh")
    ap.add_argument("--kind")
    ap.add_argument("--schedule")
    ap.add_argument("--finest-n", type=int, dest="finest_n")
    ap.add_argument("--levels", type=int)
    ap.add_argument("--max-iter", type=int, dest="max_iter")
    return ap


def _read_config(path: str) -> dict:
    """The JSON object of a --config file; anything else raises ValidationError."""
    try:
        config = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ValidationError("cannot read config: its JSON must be an object")
    return config


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    json_errors = "--json-errors" in argv  # a usage error leaves no parsed flags
    try:
        args = _build_parser().parse_args(argv)
        json_errors = args.json_errors
        config = _read_config(args.config) if args.config else {}
    except ValidationError as exc:
        status, result = 1, {"error": str(exc)}
    else:
        # each flag's dest is its config key
        config.update(
            (key, val) for key, val in vars(args).items()
            if val is not None and key not in ("command", "config", "json_errors")
        )
        status, result = run(args.command, config)
    if status == 0:
        print(json.dumps(result))
    else:
        if json_errors:
            print(json.dumps({"status": status, **result}), file=sys.stderr)
        else:
            print(f"error: {result.get('error')}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
