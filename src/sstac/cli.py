"""Command-line front end: ``sstac run|sweep|diag``.

Exit codes: 0 success, 2 configuration/input failure, 3 runtime algorithm
error.  Errors are printed as one machine-parsable line on stderr:
``sstac: error: <class>: <message>``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, SstacError
from .harness import ExperimentConfig, diag_command, run_command, sweep_command
from .trace import read_text


def _fail(code: str, message: str, exit_code: int) -> int:
    print(f"sstac: error: {code}: {message}", file=sys.stderr)
    return exit_code


def _load_config(path: str) -> ExperimentConfig:
    text = read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON at byte {exc.pos}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal longer than the interpreter converts
        raise ConfigError(f"malformed JSON: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = ExperimentConfig.from_dict({**config.to_dict(), "seeds": [args.seed]})
    for d in run_command(config, out_dir=args.out):
        print(d)
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    try:
        values = [int(v) for v in args.values.split(",") if v]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated integers: {exc}") from exc
    summary, _ = sweep_command(config, args.param, values, out_dir=args.out)
    print(summary)
    return 0


def _cmd_diag(args) -> int:
    checks, series_path = diag_command(args.trace)
    for check in checks:
        print(f"PASS {check.name}" if check.ok else f"FAIL {check.name}: {check.detail}")
    print(series_path)
    return 0 if all(c.ok for c in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sstac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run per configured seed")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override the config's seed list")
    p_run.add_argument("--out", default=None, help="override the output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and write summary.csv")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True)
    p_sweep.add_argument("--values", required=True, help="comma-separated integers")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_diag = sub.add_parser("diag", help="check stored-trace identities and emit plot data")
    p_diag.add_argument("--trace", required=True)
    p_diag.set_defaults(func=_cmd_diag)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(exc.code, str(exc), 2)
    except SstacError as exc:
        return _fail(exc.code, str(exc), 3)
