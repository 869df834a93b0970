"""Batch command-line driver.

Commands: check-domain, make-tests, simulate, verify-bar, weak-check,
solve, report.  One JSON config schema serves every command; command-line
flags override config fields.  Artifacts are CSV/JSON with a '#' header line
carrying the config hash and seed, numbers at 17 significant digits.

Exit codes: 0 all verdicts pass; 1 a verdict failed; 2 usage/config error;
3 numeric failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from fractions import Fraction

import numpy as np

from . import domain as dom
from . import errors
from ._csv import write_csv
from .gallery import (closed_form_density, halfline_density, make_example,
                      uniform_density)
from .operators import verify_bar, weak_residual
from .simulate import boundary_occupation, simulate_path
from .solver import (default_family, density_grid_measure, interior_grid,
                     polar_grid, solve_stationary)
from .testfunctions import assemble_cover_family

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _num(s):
    if isinstance(s, (int, float)):
        return float(s)
    return float(Fraction(s))


def _num_list(s):
    if isinstance(s, (list, tuple)):
        return [float(v) for v in s]
    return [_num(tok) for tok in str(s).split(",")]


def _first(s):
    return _num_list(s)[0]


# preset -> {config key: (make_example parameter, parser)}; a key the config
# leaves out keeps the gallery's default, and a key that only other presets
# read is a usage error
_PRESET_PARAMS = {
    "halfline": {"b": ("b", _first), "sigma": ("sigma", _first)},
    "orthant": {"J": ("J", int), "b": ("b", _num_list)},
    "gps": {"J": ("J", int), "alpha": ("alphabar", _num_list), "b": ("b", _num_list)},
    "wedge": {k: (k, _num) for k in ("zeta", "theta1", "theta2")},
    "disk": {"radius": ("radius", _num), "b": ("b", _num_list)},
    "cusp": {k: (k, _num) for k in ("beta", "theta1", "theta2")},
}


def _config_hash(cfg: dict) -> str:
    canon = json.dumps({k: v for k, v in cfg.items()
                        if k not in ("output", "report_output", "inputs")},
                       sort_keys=True, default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _header(cfg: dict) -> str:
    return f"config={_config_hash(cfg)} seed={cfg.get('seed', 0)}"


def _write_json(path, payload, cfg):
    out = {"_meta": _header(cfg), **payload}
    with open(path, "w") as fh:
        json.dump(out, fh, sort_keys=True, indent=1, default=float)
    return path


def _build_system(cfg):
    if cfg.get("system_file"):
        from .coefficients import CoefficientField
        from .gallery import ExampleSystem

        with open(cfg["system_file"]) as fh:
            raw = json.load(fh)
        domain = dom.domain_from_json(raw)
        if domain.constant_reflection:
            _reject_ill_posed_reflection(domain)
        J = domain.dimension
        b = np.asarray(_num_list(cfg["b"]) if "b" in cfg else np.zeros(J))
        sig = np.eye(J) * (_num_list(cfg["sigma"])[0] if "sigma" in cfg else 1.0)
        coef = CoefficientField.constant(b, sig)
        return ExampleSystem("file", {"path": cfg["system_file"]}, domain, coef)
    name = cfg.get("preset")
    if not name:
        raise errors.RefdiffError("a --preset or --system-file is required")
    table = _PRESET_PARAMS.get(name, {})
    unread = sorted({key for other in _PRESET_PARAMS.values() for key in other
                     if key in cfg} - set(table))
    if table and unread:            # an unknown preset is make_example's error
        raise errors.BadParameters(
            f"preset {name!r} does not read {', '.join(map(repr, unread))}")
    params = {param: parse(cfg[key]) for key, (param, parse) in table.items()
              if key in cfg}
    return make_example(name, **params)


def _at_singular_point(domain, rep) -> bool:
    """Whether a stratum's representative is a declared singular point."""
    return any(np.linalg.norm(np.asarray(rep) - sp.x) < 1e-6
               for sp in domain.singular_points)


def _reject_ill_posed_reflection(domain):
    """IllPosedParameters unless, on every stratum of a constant-reflection
    polyhedron other than a declared singular point, N Gamma^T restricted to
    the stratum's faces is a P-matrix (every principal minor positive)."""
    normals, _, gammas = domain.face_arrays
    M = normals @ gammas.T
    for faces, rep in domain.strata.items():
        if _at_singular_point(domain, rep):
            continue
        for k in range(1, len(faces) + 1):
            for sub in itertools.combinations(faces, k):
                minor = float(np.linalg.det(M[np.ix_(sub, sub)]))
                if minor <= 0.0:
                    raise errors.IllPosedParameters(
                        f"reflection is ill-posed on faces {list(faces)}: N Gamma^T "
                        f"there is not a P-matrix (principal minor {minor:.3g} "
                        f"on faces {list(sub)})")


def _grid(cfg, base, J):
    """Grid points per axis: the config's, else base**(2/J) capped at base,
    so a J-dimensional default grid has about as many points as the 2D one."""
    return int(cfg.get("grid", min(base, round(base ** (2 / J)))))


def _density_from_config(system, cfg):
    kind = cfg.get("density", "closed-form")
    if kind in ("closed-form", "auto"):
        return closed_form_density(system)
    if kind == "exp":
        theta = _num(cfg.get("theta", 1.0))
        if system.domain.dimension != 1:
            raise errors.RefdiffError("exp density is one-dimensional")
        return halfline_density(theta)
    if kind == "uniform":
        return uniform_density(_num(cfg.get("level", 1.0)), system.domain.dimension)
    raise errors.RefdiffError(f"unknown density {kind!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_check_domain(cfg):
    system = _build_system(cfg)
    report = dom.check_completely_s(system.domain)
    sing = []
    for sp in system.domain.singular_points:
        rep = dom.check_singular_certificate(
            system.domain, sp, coefficients=system.coefficients,
            samples=int(cfg.get("samples", 2000)), seed=int(cfg.get("seed", 0)))
        sing.append({"x": list(map(float, sp.x)), "passed": rep.passed,
                     "margins": {
                         "angle": rep.angle_margin,
                         "reflection": rep.reflection_margin,
                         "ellipticity": rep.ellipticity_margin,
                         "sandwich_left": rep.sandwich_left_margin,
                         "sandwich_right": rep.sandwich_right_margin}})
    failing = [list(r.indices) for r in report.failing()]
    # verdict: failures allowed only at strata through declared singular points
    ok = (all(_at_singular_point(system.domain, r.representative)
              for r in report.failing())
          and all(s["passed"] for s in sing))
    payload = {
        "preset": system.name,
        "params": system.params,
        "strata": [{"faces": list(r.indices), "passed": bool(r.passed),
                    "margin": float(r.margin)} for r in report.strata],
        "boundary_fully_certified": report.boundary_is_certified,
        "failing_strata": failing,
        "singular_certificates": sing,
        "passed": bool(ok),
    }
    out = cfg.get("output", "check-domain.json")
    _write_json(out, payload, cfg)
    print(f"wrote {out}; verdict {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_make_tests(cfg):
    system = _build_system(cfg)
    fam = assemble_cover_family(system.domain, system.coefficients,
                                N=_num(cfg.get("N", 1.0)),
                                eps=_num(cfg.get("eps", 0.25)),
                                seed=int(cfg.get("seed", 0)))
    out = cfg.get("output", "family.json")
    _write_json(out, fam.manifest(), cfg)
    print(f"wrote {out}: {len(fam.bumps)} bumps, {len(fam.centers)} centers, "
          f"C={fam.C:.6g}")
    return EXIT_OK


def cmd_simulate(cfg):
    system = _build_system(cfg)
    x0 = _num_list(cfg.get("x0", list(np.zeros(system.domain.dimension))))
    traj = simulate_path(system.domain, system.coefficients, x0,
                         T=_num(cfg.get("T", 10.0)),
                         dt=_num(cfg.get("dt", 1e-3)),
                         seed=int(cfg.get("seed", 0)))
    out = cfg.get("output", "trajectory.csv")
    traj.to_csv(out, _header(cfg), stride=max(1, int(cfg.get("stride", 1))))
    fb, fv = boundary_occupation(system.domain, traj,
                                 shell=_num(cfg.get("shell", 0.01)),
                                 burn_in=_num(cfg.get("burn_in", 0.1)))
    print(f"wrote {out}: {traj.n_steps} steps, boundary fraction {fb:.4f}, "
          f"singular fraction {fv:.4f}, events {len(traj.events)}")
    if not traj.events:
        return EXIT_OK
    first = traj.events[0]
    print(f"numeric failure: step {first['step']} failed every projection "
          f"retry, from the point {first['point'].tolist()} "
          f"({len(traj.events)} failed steps)", file=sys.stderr)
    return EXIT_NUMERIC


def cmd_verify_bar(cfg):
    system = _build_system(cfg)
    p = _density_from_config(system, cfg)
    report = verify_bar(system.coefficients, system.domain, p,
                        interior_samples=int(cfg.get("samples", 400)),
                        seed=int(cfg.get("seed", 0)))
    out = cfg.get("output", "bar.json")
    _write_json(out, report.to_json(), cfg)
    print(f"wrote {out}; interior={report.interior_residual:.3e} "
          f"passed={report.passed}")
    return EXIT_OK if report.passed else EXIT_VERDICT


def cmd_weak_check(cfg):
    system = _build_system(cfg)
    p = _density_from_config(system, cfg)
    lo, hi = system.domain.bbox
    n_grid = _grid(cfg, 256, system.domain.dimension)
    measure = density_grid_measure(system.domain, p, n_grid)
    fam = default_family(system.domain, system.coefficients,
                         n_interior=int(cfg.get("n_interior", 16)),
                         n_steps=int(cfg.get("n_steps", 24)),
                         min_feature=float(np.max(hi - lo)) / n_grid * 2,
                         seed=int(cfg.get("seed", 0)))
    rows = []
    ok = True
    for k, f in enumerate(fam):
        if not f.claims_negated_in_class:
            continue
        wr = weak_residual(system.coefficients, f, measure, function_id=f"f{k}")
        rows.append((f"f{k}", float(wr.value), float(wr.error)))
        if wr.violates:
            ok = False
    out = cfg.get("output", "weak.csv")
    write_csv(out, ["function", "value", "error"], rows, _header(cfg))
    print(f"wrote {out}: {len(rows)} residuals, verdict {'pass' if ok else 'fail'}")
    return EXIT_OK if ok else EXIT_VERDICT


def cmd_solve(cfg):
    system = _build_system(cfg)
    J = system.domain.dimension
    n_grid = _grid(cfg, 64, J)
    if system.name == "disk":
        grid = polar_grid(int(cfg.get("grid", 48)),
                          int(cfg.get("angular", 72)),
                          radius=system.params.get("radius", 1.0))
    else:
        box = None
        if "box" in cfg:
            hi_box = _num_list(cfg["box"])
            if len(hi_box) not in (1, J):
                raise errors.BadParameters(
                    f"box needs 1 or J = {J} upper bounds, got {len(hi_box)}")
            box = (np.zeros(J), np.asarray(hi_box) * np.ones(J))
        grid = interior_grid(system.domain, n_grid, box=box)
    lo, hi = grid.min(axis=0), grid.max(axis=0)
    fam = default_family(system.domain, system.coefficients,
                         n_interior=int(cfg.get("n_interior", 16)),
                         n_steps=int(cfg.get("n_steps", 24)),
                         box=(lo, hi),
                         min_feature=2 * float(np.max(hi - lo)) / n_grid,
                         seed=int(cfg.get("seed", 0)))
    res = solve_stationary(system.domain, system.coefficients,
                           grid_points=grid, family=fam,
                           tolerance=_num(cfg.get("tolerance", 2e-5)),
                           seed=int(cfg.get("seed", 0)))
    out = cfg.get("output", "measure.csv")
    res.measure.to_csv(out, header_meta=_header(cfg))
    rep_out = cfg.get("report_output", "solve.json")
    _write_json(rep_out, {"objective": res.objective,
                          "iterations": res.iterations,
                          "feasible": res.feasible,
                          "family_size": len(fam)}, cfg)
    print(f"wrote {out}, {rep_out}; objective {res.objective:.3e} "
          f"feasible={res.feasible}")
    return EXIT_OK if res.feasible else EXIT_VERDICT


def cmd_report(cfg):
    parts = cfg.get("inputs", [])
    lines = []
    ok = True
    for path in parts:
        with open(path) as fh:
            payload = json.load(fh)
        verdict = payload.get("passed", payload.get("feasible"))
        if verdict is False:
            ok = False
        lines.append(f"{path}: verdict={verdict}")
    text = "\n".join(lines) if lines else "no inputs"
    out = cfg.get("output")
    if out:
        with open(out, "w") as fh:
            fh.write(f"# {_header(cfg)}\n{text}\n")
    print(text)
    return EXIT_OK if ok else EXIT_VERDICT


COMMANDS = {
    "check-domain": cmd_check_domain,
    "make-tests": cmd_make_tests,
    "simulate": cmd_simulate,
    "verify-bar": cmd_verify_bar,
    "weak-check": cmd_weak_check,
    "solve": cmd_solve,
    "report": cmd_report,
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="refdiff",
        description="Reflected-diffusion geometry checks, simulation, "
                    "stationarity verification, and solving.")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", help="JSON config file; flags override fields")
    ap.add_argument("--preset")
    ap.add_argument("--system-file", dest="system_file",
                    help="domain geometry JSON (coefficients from --b/--sigma)")
    ap.add_argument("--J", type=int)
    ap.add_argument("--alpha")
    ap.add_argument("--zeta")
    ap.add_argument("--theta1")
    ap.add_argument("--theta2")
    ap.add_argument("--beta")
    ap.add_argument("--radius")
    ap.add_argument("--b")
    ap.add_argument("--sigma")
    ap.add_argument("--density")
    ap.add_argument("--theta")
    ap.add_argument("--x0")
    ap.add_argument("--T")
    ap.add_argument("--dt")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--grid", type=int)
    ap.add_argument("--angular", type=int)
    ap.add_argument("--n-interior", dest="n_interior", type=int)
    ap.add_argument("--n-steps", dest="n_steps", type=int)
    ap.add_argument("--N")
    ap.add_argument("--eps")
    ap.add_argument("--samples", type=int)
    ap.add_argument("--tolerance")
    ap.add_argument("--burn-in", dest="burn_in")
    ap.add_argument("--stride", type=int)
    ap.add_argument("--box")
    ap.add_argument("--output")
    ap.add_argument("--report-output", dest="report_output")
    ap.add_argument("--inputs", nargs="*")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        ns = ap.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE
    cfg = {}
    if ns.config:
        try:
            with open(ns.config) as fh:
                cfg.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    for key, val in vars(ns).items():
        if key in ("command", "config") or val is None:
            continue
        cfg[key] = val
    cfg.setdefault("seed", 0)
    try:
        return COMMANDS[ns.command](cfg)
    except errors.NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except errors.RefdiffError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, KeyError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
