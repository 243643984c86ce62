"""Command-line front end: evaluation, verification sweeps, machine output.

Every run prints a single JSON object (or CSV rows for sweeps under
``--format csv``) with floats rendered to 17 significant digits, so repeat
runs with identical inputs are byte-identical.  Exit codes: 0 converged,
1 usage or input error, 2 result emitted but not converged.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from dataclasses import dataclass, field

from . import identities, orr_sommerfeld, series_integrals, transforms
from .errors import NotConverged, PfqintError
from .special_functions import PFqParams, TruncationPolicy, pfq

__all__ = ["OutputRecord", "main", "run"]

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_NOT_CONVERGED = 2


@dataclass
class OutputRecord:
    command: str
    inputs: dict
    value_re: float = 0.0
    value_im: float = 0.0
    error_estimate: float = 0.0
    terms_used: int = 0
    converged: bool = True
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "value_re": float(self.value_re),
            "value_im": float(self.value_im),
            "error_estimate": float(self.error_estimate),
            "terms_used": int(self.terms_used),
            "converged": bool(self.converged),
            "warnings": list(self.warnings),
        }


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _json(value) -> str:
    # Hand-rolled so floats always print with 17 significant digits.
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return '"%s"' % repr(value)
        return _fmt_float(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        out = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(value, dict):
        inner = ",".join(f"{_json(str(k))}:{_json(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _fmt_float(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _complex_flag(parser: argparse.ArgumentParser, name: str, default=0.0,
                  help_re: str = ""):
    dest = name.replace("-", "_")
    parser.add_argument(
        f"--{name}", f"--{name}-re", dest=dest, type=float, default=default,
        help=help_re or f"real part of {name}",
    )
    parser.add_argument(
        f"--{name}-im", dest=dest + "_im", type=float, default=0.0,
        help=f"imaginary part of {name}",
    )


def _get_complex(args, name: str) -> complex:
    dest = name.replace("-", "_")
    return complex(getattr(args, dest), getattr(args, dest + "_im"))


def _params_list(raw: str | None, raw_im: str | None) -> tuple[complex, ...]:
    if not raw:
        return ()
    res = [float(tok) for tok in raw.split(",") if tok.strip() != ""]
    ims = (
        [float(tok) for tok in raw_im.split(",") if tok.strip() != ""]
        if raw_im
        else [0.0] * len(res)
    )
    if len(ims) != len(res):
        raise ValueError("real/imag parameter lists differ in length")
    return tuple(complex(a, b) for a, b in zip(res, ims))


def _policy_from(args) -> TruncationPolicy:
    return TruncationPolicy(rel_tol=args.tol, max_terms=args.max_terms)


def _spec_from(args) -> series_integrals.IntegrandSpec:
    return series_integrals.IntegrandSpec(
        kernel=args.kernel,
        alpha=_get_complex(args, "alpha"),
        beta=_get_complex(args, "beta"),
        eta=_get_complex(args, "eta"),
        lam=_get_complex(args, "lambda"),
        gamma=_get_complex(args, "gamma"),
        pfq=PFqParams(
            _params_list(args.p_params, args.p_params_im),
            _params_list(args.q_params, args.q_params_im),
        ),
    )


def _add_common(parser):
    parser.add_argument("--tol", type=float, default=1e-14,
                        help="relative truncation tolerance")
    parser.add_argument("--max-terms", type=int, default=10_000)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def _add_spec_flags(parser):
    parser.add_argument("--kernel", choices=series_integrals.KERNELS,
                        default="exp")
    _complex_flag(parser, "alpha", 0.0)
    _complex_flag(parser, "beta", 1.0)
    _complex_flag(parser, "eta", 1.0)
    _complex_flag(parser, "lambda", 0.0)
    _complex_flag(parser, "gamma", 1.0)
    parser.add_argument("--p-params", default="",
                        help="comma-separated upper parameters (real parts)")
    parser.add_argument("--p-params-im", default="")
    parser.add_argument("--q-params", default="",
                        help="comma-separated lower parameters (real parts)")
    parser.add_argument("--q-params-im", default="")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfqint",
        description="Hypergeometric series, series antiderivatives, and "
        "their verified transforms",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pfq", help="evaluate pFq(a; b; z)")
    _add_common(p)
    p.add_argument("--p-params", default="")
    p.add_argument("--p-params-im", default="")
    p.add_argument("--q-params", default="")
    p.add_argument("--q-params-im", default="")
    _complex_flag(p, "z", 0.0)

    for name in ("antideriv", "definite"):
        p = sub.add_parser(
            name,
            help="series antiderivative at x" if name == "antideriv"
            else "definite integral over [a, b]",
        )
        _add_common(p)
        _add_spec_flags(p)
        if name == "antideriv":
            p.add_argument("--x", type=float, required=True)
        else:
            p.add_argument("--a", type=float, required=True)
            p.add_argument("--b", type=float, required=True)

    p = sub.add_parser("identity-check", help="residual of a series identity")
    _add_common(p)
    _add_spec_flags(p)
    p.add_argument("--id", dest="identity_id", required=True,
                   choices=identities.IDENTITY_IDS)
    p.add_argument("--x", type=float, default=0.5)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--j", type=int, default=0)

    p = sub.add_parser("fourier", help="Gaussian-moment Fourier transform")
    _add_common(p)
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--k", type=float, required=True)

    p = sub.add_parser("laplace", help="Gaussian-moment Laplace transform")
    _add_common(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--theta", type=float, default=1.0)
    _complex_flag(p, "u", 10.0)
    p.add_argument("--erf", action="store_true",
                   help="transform of the unnormalized error function instead")

    p = sub.add_parser("airy", help="Airy Ai by its series pair")
    _add_common(p)
    _complex_flag(p, "z", 0.0)

    p = sub.add_parser("os-solve", help="stability mode shape phi(y)")
    _add_common(p)
    defaults = orr_sommerfeld.DEFAULT_OS_PARAMS
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--k", type=float, default=defaults.k)
    p.add_argument("--r", type=float, default=defaults.r)
    p.add_argument("--re", dest="reynolds", type=float, default=defaults.reynolds)
    _complex_flag(p, "omega", defaults.omega.real)
    p.set_defaults(omega_im=defaults.omega.imag)
    p.add_argument("--method", choices=("quadrature", "series", "both"),
                   default="quadrature")
    p.add_argument("--quad-tol", type=float, default=1e-10)

    p = sub.add_parser("sweep", help="run a subcommand over a parameter grid")
    p.add_argument("base", help="subcommand to sweep")
    p.add_argument("--param", required=True, help="flag name to sweep, e.g. k")
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help="number of intervals; emits steps+1 rows")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def _series_record(command, inputs, ev) -> OutputRecord:
    return OutputRecord(
        command=command,
        inputs=inputs,
        value_re=ev.value.real,
        value_im=ev.value.imag,
        error_estimate=ev.error_estimate,
        terms_used=ev.terms_used,
        converged=ev.converged,
    )


def _run_pfq(args) -> OutputRecord:
    params = PFqParams(
        _params_list(args.p_params, args.p_params_im),
        _params_list(args.q_params, args.q_params_im),
    )
    z = _get_complex(args, "z")
    inputs = {
        "p_params": args.p_params, "q_params": args.q_params,
        "z_re": z.real, "z_im": z.imag,
    }
    try:
        ev = pfq(params, z, _policy_from(args))
    except NotConverged as exc:
        rec = _series_record("pfq", inputs, exc.result)
        rec.warnings.append(str(exc))
        return rec
    return _series_record("pfq", inputs, ev)


def _spec_inputs(args) -> dict:
    return {
        "kernel": args.kernel,
        "alpha": args.alpha, "beta": args.beta, "eta": args.eta,
        "lambda": getattr(args, "lambda"), "gamma": args.gamma,
        "p_params": args.p_params, "q_params": args.q_params,
    }


def _antideriv_record(command, inputs, value) -> OutputRecord:
    ev = value.inner_diagnostics
    return OutputRecord(
        command=command,
        inputs=inputs,
        value_re=value.value.real,
        value_im=value.value.imag,
        error_estimate=value.error_estimate,
        terms_used=value.outer_terms_used if ev is None
        else value.outer_terms_used + ev.terms_used,
        converged=value.converged,
        warnings=list(value.warnings),
    )


def _run_antideriv(args) -> OutputRecord:
    spec = _spec_from(args)
    inputs = _spec_inputs(args)
    inputs["x"] = args.x
    try:
        value = series_integrals.antiderivative(spec, args.x, _policy_from(args))
    except NotConverged as exc:
        rec = _antideriv_record("antideriv", inputs, exc.result)
        rec.warnings.append(str(exc))
        return rec
    return _antideriv_record("antideriv", inputs, value)


def _run_definite(args) -> OutputRecord:
    spec = _spec_from(args)
    inputs = _spec_inputs(args)
    inputs["a"] = args.a
    inputs["b"] = args.b
    try:
        value = series_integrals.definite_integral(spec, args.a, args.b,
                                                   _policy_from(args))
    except NotConverged as exc:
        rec = _antideriv_record("definite", inputs, exc.result)
        rec.warnings.append(str(exc))
        return rec
    return _antideriv_record("definite", inputs, value)


def _run_identity(args) -> OutputRecord:
    spec = _spec_from(args)
    inputs = _spec_inputs(args)
    inputs.update({"id": args.identity_id, "x": args.x, "n": args.n, "j": args.j})
    case = identities.IdentityCase(
        identity_id=args.identity_id, spec=spec, x=args.x, n=args.n, j=args.j
    )
    residual = identities.theorem_residual(case, _policy_from(args))
    return OutputRecord(
        command="identity-check", inputs=inputs,
        value_re=residual, value_im=0.0, error_estimate=0.0,
        terms_used=0, converged=True,
    )


def _run_fourier(args) -> OutputRecord:
    inputs = {"alpha": args.alpha, "theta": args.theta, "k": args.k}
    value = transforms.fourier_moment_gaussian(
        args.alpha, args.theta, args.k, _policy_from(args)
    )
    return OutputRecord(
        command="fourier", inputs=inputs,
        value_re=value.real, value_im=value.imag,
        error_estimate=0.0, terms_used=0, converged=True,
    )


def _run_laplace(args) -> OutputRecord:
    u = _get_complex(args, "u")
    inputs = {"alpha": args.alpha, "theta": args.theta,
              "u_re": u.real, "u_im": u.imag, "erf": bool(args.erf)}
    if args.erf:
        ev = transforms.laplace_erf(u)
    else:
        ev = transforms.laplace_moment_gaussian(args.alpha, args.theta, u)
    return _series_record("laplace", inputs, ev)


def _run_airy(args) -> OutputRecord:
    z = _get_complex(args, "z")
    inputs = {"z_re": z.real, "z_im": z.imag}
    ev = orr_sommerfeld.airy_ai(z, _policy_from(args))
    return _series_record("airy", inputs, ev)


def _run_os(args) -> OutputRecord:
    params = orr_sommerfeld.OSParams(
        k=args.k, r=args.r, reynolds=args.reynolds,
        omega=_get_complex(args, "omega"),
    )
    inputs = {
        "y": args.y, "k": args.k, "r": args.r, "re": args.reynolds,
        "omega_re": params.omega.real, "omega_im": params.omega.imag,
        "method": args.method,
    }
    warnings: list[str] = []
    if args.method in ("quadrature", "both"):
        sol = orr_sommerfeld.phi_quadrature(args.y, params, args.quad_tol)
        warnings.extend(sol.warnings)
        if args.method == "both":
            ser = orr_sommerfeld.phi_series(args.y, params, _policy_from(args))
            warnings.extend(ser.warnings)
            warnings.append(
                "series-vs-quadrature discrepancy: "
                f"{abs(ser.phi - sol.phi):.6g}"
                if cmath.isfinite(ser.phi)
                else "series-vs-quadrature discrepancy: non-finite series value"
            )
    else:
        sol = orr_sommerfeld.phi_series(args.y, params, _policy_from(args))
        warnings.extend(sol.warnings)
    finite = cmath.isfinite(sol.phi)
    return OutputRecord(
        command="os-solve", inputs=inputs,
        value_re=sol.phi.real if finite else 0.0,
        value_im=sol.phi.imag if finite else 0.0,
        error_estimate=sol.error_estimate if finite else float("inf"),
        terms_used=0,
        converged=finite and not any("not converged" in w for w in warnings),
        warnings=warnings,
    )


_HANDLERS = {
    "pfq": _run_pfq,
    "antideriv": _run_antideriv,
    "definite": _run_definite,
    "identity-check": _run_identity,
    "fourier": _run_fourier,
    "laplace": _run_laplace,
    "airy": _run_airy,
    "os-solve": _run_os,
}

_SWEEP_COLUMNS = (
    "index", "param", "value", "value_re", "value_im",
    "error_estimate", "terms_used", "converged", "warnings",
)


def _run_sweep(args, extras, out) -> int:
    if args.base not in _HANDLERS:
        raise ValueError(f"cannot sweep unknown subcommand {args.base!r}")
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    parser = _build_parser()
    rows = []
    exit_code = _EXIT_OK
    for i in range(args.steps + 1):
        value = args.start + (args.stop - args.start) * i / args.steps
        # One item, so that argparse reads a negative value such as -1e-05 as the value.
        argv = [args.base] + list(extras) + [f"--{args.param}={value!r}"]
        sub_args = parser.parse_args(argv)
        record = _HANDLERS[args.base](sub_args)
        record.inputs["sweep_index"] = i
        record.inputs["sweep_value"] = value
        if not record.converged:
            exit_code = _EXIT_NOT_CONVERGED
        rows.append((i, value, record))
    if args.format == "csv":
        out.write(",".join(_SWEEP_COLUMNS) + "\n")
        for i, value, rec in rows:
            cells = [
                str(i), args.param, _fmt_float(value),
                _fmt_float(rec.value_re), _fmt_float(rec.value_im),
                _fmt_float(rec.error_estimate), str(rec.terms_used),
                "true" if rec.converged else "false",
                _csv_cell(";".join(rec.warnings)),
            ]
            out.write(",".join(cells) + "\n")
    else:
        payload = {
            "command": "sweep",
            "inputs": {"base": args.base, "param": args.param,
                       "start": float(args.start), "stop": float(args.stop),
                       "steps": int(args.steps)},
            "rows": [rec.as_dict() for _, _, rec in rows],
        }
        out.write(_json(payload) + "\n")
    return exit_code


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    """Parse argv, execute, and write the serialized record; returns exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        if argv is None:
            argv = sys.argv[1:]
        if argv and argv[0] == "sweep":
            args, extras = parser.parse_known_args(argv)
            return _run_sweep(args, extras, out)
        args = parser.parse_args(argv)
        record = _HANDLERS[args.subcommand](args)
    except SystemExit as exc:
        return _EXIT_USAGE if exc.code not in (0, None) else 0
    except (PfqintError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return _EXIT_USAGE
    if args.format == "csv":
        d = record.as_dict()
        flat = {k: v for k, v in d.items() if k != "inputs"}
        out.write(",".join(flat.keys()) + "\n")
        out.write(",".join(_csv_cell(v) for v in flat.values()) + "\n")
    else:
        out.write(_json(record.as_dict()) + "\n")
    return _EXIT_OK if record.converged else _EXIT_NOT_CONVERGED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
