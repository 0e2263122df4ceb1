"""Command-line surface: estimate | denoise | bench | tvscale | select | bounds.

Every subcommand is a pure function of its input files, flags and --seed;
repeated invocations emit byte-identical output.  bench, tvscale and bounds
print a report's table (a header plus rows): --format csv and --format json
carry the same rows, and every float cell prints as a Python float (so a
noise level given as 1 prints as 1.0 in both).  Each subcommand returns its
text and :func:`main` alone writes it, to --out or stdout, and maps errors to
exit codes: 0 success; 3 configuration error (a ValueError, KeyError,
TypeError or DomainError: a bad flag or spec value); 2 input error (any other
DriftwaveError, or any OSError: a file that cannot be opened, read or written).
Every text input is read as UTF-8; a leading byte-order mark is dropped.
The environment variable DRIFTWAVE_LOG sets the log level, nothing else.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import logging
import os
import sys

import numpy as np

from .bench import (NoiseSpec, SignalSpec, bound_profile, decode_text, generate_signal,
                    make_method, run_online_eval, table_text)
from .denoise import DenoiseConfig, _require_count, denoise_signal, estimate_latest
from .errors import DomainError, DriftwaveError, NonFiniteValue, ParseError
from .selection import ingest_panel, select
from .tvstudy import TVStudySpec, run_tv_study

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONFIG = 3

# A bad flag or spec value; every other library error is a problem with the input.
_CONFIG_ERRORS = (ValueError, KeyError, TypeError, DomainError)
_INPUT_ERRORS = (DriftwaveError, OSError)


def _read_text(path: str) -> str:
    """The text of a file, or of stdin for '-', read by :func:`decode_text`."""
    if path == "-":
        return decode_text(sys.stdin.buffer.read())
    with open(path, "rb") as fh:
        return decode_text(fh.read())


def _read_series(path: str) -> np.ndarray:
    """One observation per line, or "t,value" rows; oldest first; '-' = stdin."""
    values = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cell = line.split(",")[-1]
        if lineno == 1:
            try:
                float(cell)
            except ValueError:
                continue  # header row
        try:
            values.append(float(cell))
        except ValueError:
            raise ParseError(lineno, f"bad value {cell!r}") from None
        if not np.isfinite(values[-1]):
            raise NonFiniteValue(f"value {cell!r} is not finite", line=lineno)
    if not values:
        raise ParseError(1, "no observations found")
    return np.array(values)


def _parse_sigma(text: str):
    if text.lower() == "mad":
        return "mad"
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"--sigma must be a number or 'mad', got {text!r}") from None


def _denoise_config(args) -> DenoiseConfig:
    return DenoiseConfig(
        family=args.family,
        sigma=_parse_sigma(args.sigma),
        delta=args.delta,
        lambda_override=args.lambda_override,
        boundary=args.boundary,
    )


def _load_spec(path: str) -> dict:
    try:
        spec = json.loads(_read_text(path))
    except (ParseError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: spec must be a JSON object")
    return spec


def _require_seed(args):
    if args.seed is None:
        raise ValueError("--seed is required for stochastic subcommands")


def _signal_from_spec(spec: dict) -> SignalSpec:
    try:
        return SignalSpec(**spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad signal spec: {exc}") from exc


def _noise_from_spec(spec: dict) -> NoiseSpec:
    try:
        return NoiseSpec(**spec)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad noise spec: {exc}") from exc


def cmd_estimate(args) -> str:
    cfg = _denoise_config(args)
    y = _read_series(args.series)
    est = estimate_latest(y, cfg)
    return json.dumps(dataclasses.asdict(est), indent=2) + "\n"


def cmd_denoise(args) -> str:
    cfg = _denoise_config(args)
    y = _read_series(args.series)
    values = denoise_signal(y, cfg)
    t_start = len(y) - len(values) + 1
    if args.format == "json":
        payload = {"t": list(range(t_start, len(y) + 1)), "values": [float(v) for v in values]}
        return json.dumps(payload, indent=2) + "\n"
    rows = [(t_start + i, float(v)) for i, v in enumerate(values)]
    return table_text(("t", "value"), rows, "csv")


def cmd_bench(args) -> str:
    _require_seed(args)
    spec = _load_spec(args.spec)
    if "trials" in spec:  # checked even where --trials overrides it
        _require_count("trials", spec["trials"])
    report = run_online_eval(**{
        **spec,
        "signal": _signal_from_spec(spec.get("signal", {})),
        "noise": _noise_from_spec(spec.get("noise", {})),
        "methods": [make_method(m) for m in spec.get("methods", [])],
        "trials": args.trials if args.trials is not None else spec.get("trials", 5),
    }, base_seed=args.seed)
    return report.to_text(args.format)


def cmd_tvscale(args) -> str:
    _require_seed(args)
    fit = run_tv_study(TVStudySpec(**_load_spec(args.spec)), base_seed=args.seed)
    return fit.to_text(args.format)


def cmd_select(args) -> str:
    cfg = _denoise_config(args)
    panel = ingest_panel(io.StringIO(_read_text(args.panel)))
    result = select(panel, cfg, clamp=args.clamp)
    return result.to_json() + "\n"


def cmd_bounds(args) -> str:
    spec = _load_spec(args.spec)
    signal = _signal_from_spec(spec.pop("signal", {}))
    noise = _noise_from_spec(spec.get("noise", {}))
    if signal.stochastic:
        _require_seed(args)
    theta = generate_signal(signal, args.seed if args.seed is not None else 0)
    return bound_profile(theta, **{**spec, "noise": noise}).to_text(args.format)


def _add_denoise_flags(p: argparse.ArgumentParser):
    p.add_argument("--family", default="haar", help="wavelet family: haar, db2..db8")
    p.add_argument("--sigma", default="mad", help="noise scale, or 'mad' to estimate")
    p.add_argument("--delta", type=float, default=0.1, help="failure probability in (0,1)")
    p.add_argument("--lambda", dest="lambda_override", type=float, default=None,
                   help="explicit soft threshold, bypassing the default")
    p.add_argument("--boundary", default="reflect", choices=["reflect", "periodic"])


def _add_io_flags(p: argparse.ArgumentParser, formats=("csv", "json"), default="csv"):
    p.add_argument("--format", choices=list(formats), default=default)
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="driftwave", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", help="estimate the latest value of a noisy series")
    p.add_argument("series", help="observation file, oldest first ('-' for stdin)")
    _add_denoise_flags(p)
    _add_io_flags(p, formats=("json",), default="json")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("denoise", help="denoise the most recent dyadic window")
    p.add_argument("series", help="observation file, oldest first ('-' for stdin)")
    _add_denoise_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=cmd_denoise)

    p = sub.add_parser("bench", help="run the synthetic online-evaluation benchmark")
    p.add_argument("spec", help="JSON benchmark spec (see README)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None, help="override the spec's trial count")
    _add_io_flags(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("tvscale", help="risk-scaling study over bounded-variation truths")
    p.add_argument("spec", help="JSON study spec (see README)")
    p.add_argument("--seed", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(fn=cmd_tvscale)

    p = sub.add_parser("select", help="pick the model with the smallest denoised latest loss")
    p.add_argument("panel", help="loss panel CSV: header 't,<id1>,<id2>,...' ('-' for stdin)")
    _add_denoise_flags(p)
    p.add_argument("--clamp", action="store_true", help="clamp estimates to each series' observed range")
    _add_io_flags(p, formats=("json",), default="json")
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("bounds", help="average sparsity bound per family and noise level")
    p.add_argument("spec", help="JSON bounds spec (see README)")
    p.add_argument("--seed", type=int, default=None)
    _add_io_flags(p)
    p.set_defaults(fn=cmd_bounds)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("DRIFTWAVE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.fn(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except _CONFIG_ERRORS as exc:
        print(f"driftwave: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _INPUT_ERRORS as exc:
        print(f"driftwave: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
