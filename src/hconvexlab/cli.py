"""Command-line driver.

Subcommands: certify, jcoeff, jensen, refine, falsify, replay, sweep.
Parameters come from a JSON config file (--config) with command-line flags
taking precedence over config keys; unknown config keys are errors.  Every
report embeds the tool version, the fully resolved config, the seed, and
the tolerances in play, which is sufficient to reproduce it byte for byte
(the wall-time field aside).

Exit codes: 0 result nonnegative / certified, 2 violation or confirmed
witness, 1 usage or domain error.  Worker count for campaigns comes from
the HCONVEXLAB_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .convexity import DEFAULT_GRID, VIOLATION_TOLERANCE, certify, jcoeff
from .errors import ConfigError, HConvexLabError
from .falsify import (
    CANDIDATE_THRESHOLD, CONFIRM_THRESHOLD, RULES, Campaign, chain_reports,
    instance_template, lambda_profile, replay_witness, run_campaign,
)
from .funclib import TRIPLES, Interval, ScalarFunction
from .opcalc import JENSEN_MODES, SymmetricMatrix, UnitVector, jensen_verify
from .refined import CHAINS
from .reporting import CHAIN_CSV_FIELDS, canonical_json, csv_text, envelope

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed, context: str, required=()) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}; "
                          f"allowed: {sorted(allowed)}")
    for key in required:
        if obj.get(key) is None:  # null counts as missing
            raise ConfigError(f"{context}: missing key {key!r}")


def parse_number(value, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{context}: expected a number, got {value!r}") \
            from None


def parse_integer(value, context: str) -> int:
    """An int, kept exact (seeds reach 2**64), or a number with an integral
    value such as 256.0."""
    if isinstance(value, int):
        return int(value)
    number = parse_number(value, context)
    if not number.is_integer():
        raise ConfigError(f"{context}: expected an integer, got {value!r}")
    return int(number)


def parse_numbers(value, context: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{context}: expected a list of numbers, "
                          f"got {value!r}")
    return [parse_number(t, context) for t in value]


def parse_text(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context}: expected a string, got {value!r}")
    return value


def parse_vector(value, context: str) -> UnitVector:
    """A list of numbers as a UnitVector (normalized if it is not one)."""
    try:
        return UnitVector(parse_numbers(value, context))
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse_witness(value, context: str) -> dict:
    """A serialized witness: its inputs as parse_instance reads them and a
    margin_kind of refined|outer; other keys pass through."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected an object, got {value!r}")
    if value.get("inputs") is None:
        raise ConfigError(f"{context}: missing key 'inputs'")
    if value.get("margin_kind", "refined") not in ("refined", "outer"):
        raise ConfigError(f"{context}.margin_kind: expected refined|outer, "
                          f"got {value['margin_kind']!r}")
    return dict(value, inputs=parse_instance(value["inputs"],
                                             f"{context}.inputs"))


def parse_instance(value, context: str) -> dict:
    """A serialized campaign instance: a known target and the keys of
    falsify.instance_template, each of the type it is drawn in ("entries"
    may stand in place of "diag")."""
    if not isinstance(value, dict):
        raise ConfigError(f"{context}: expected an object, got {value!r}")
    target = parse_text(value.get("target"), f"{context}.target")
    if target not in RULES:
        raise ConfigError(f"{context}.target: unknown target {target!r}")
    like, required = instance_template(target)
    _require_keys(value, like, context, required=[
        k for k in required if k != "diag" or "entries" not in value])
    return {k: _parse_like(t, like[k], f"{context}.{k}")
            for k, t in value.items()}


def _parse_like(value, like, context: str):
    """value as the type of ``like``: text, an integer, a number, a grid
    (two integers), a list of numbers or a list of such lists."""
    if isinstance(like, str):
        return parse_text(value, context)
    if isinstance(like, int):
        return parse_integer(value, context)
    if isinstance(like, float):
        return parse_number(value, context)
    if not isinstance(value, list) or (isinstance(like[0], int)
                                       and len(value) != len(like)):
        raise ConfigError(f"{context}: expected a list like {like!r}, "
                          f"got {value!r}")
    if isinstance(like[0], int):
        return [parse_integer(t, context) for t in value]
    if isinstance(like[0], list):
        return [parse_numbers(t, context) for t in value]
    return parse_numbers(value, context)


def parse_function(obj, context: str = "function") -> ScalarFunction:
    """{"family": name, "params": {...}, "domain": {...}?}"""
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object, got {obj!r}")
    _require_keys(obj, ("family", "params", "domain"), context,
                  required=("family",))
    family = parse_text(obj["family"], f"{context}.family")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{context}.params: expected an object, "
                          f"got {params!r}")
    params = {k: parse_number(t, f"{context}.params.{k}")
              for k, t in params.items()}
    domain = parse_interval(obj["domain"], f"{context}.domain") \
        if obj.get("domain") else None
    try:
        return ScalarFunction(family, params, domain)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse_interval(obj, context: str = "interval") -> Interval:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context}: expected an object, got {obj!r}")
    _require_keys(obj, ("lo", "hi", "lo_open", "hi_open"), context)
    try:
        return Interval(float(obj["lo"]), float(obj["hi"]),
                        bool(obj.get("lo_open", False)),
                        bool(obj.get("hi_open", False)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def parse_matrix(obj, context: str = "matrix") -> SymmetricMatrix:
    """Dense row-major list of rows, or {"diagonal": [...]} shorthand."""
    try:
        if isinstance(obj, dict):
            _require_keys(obj, ("diagonal", "entries"), context)
            if "diagonal" in obj:
                return SymmetricMatrix.diagonal(obj["diagonal"])
            _require_keys(obj, ("entries",), context, required=("entries",))
            return SymmetricMatrix(obj["entries"])
        return SymmetricMatrix(obj)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    import json
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _merged(args, cfg: dict, flag_keys) -> dict:
    """CLI flags override config keys."""
    out = dict(cfg)
    for key in flag_keys:
        val = getattr(args, key, None)
        if val is not None:
            out[key] = val
    return out


def _emit(args, command, config, result, t0, seed=None, tolerances=None,
          csv_rows=None):
    report = envelope(command, config, result, time.perf_counter() - t0,
                      seed=seed, tolerances=tolerances)
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        text = csv_text(csv_rows, CHAIN_CSV_FIELDS)
    else:
        text = canonical_json(report) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return report


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_certify(args) -> int:
    t0 = time.perf_counter()
    cfg = _merged(args, _load_config(args), ("v", "grid"))
    _require_keys(cfg, ("f", "g", "h", "v", "grid", "ambient"), "certify",
                  required=("f", "g", "h", "v"))
    f = parse_function(cfg["f"], "f")
    g = parse_function(cfg["g"], "g")
    h = parse_function(cfg["h"], "h")
    v = parse_number(cfg["v"], "certify.v")
    grid = cfg.get("grid", list(DEFAULT_GRID))
    if not (isinstance(grid, list) and len(grid) == 2):
        raise ConfigError(f"certify.grid: expected [n_u, n_lambda], "
                          f"got {grid!r}")
    grid = tuple(parse_integer(n, "certify.grid") for n in grid)
    ambient = parse_interval(cfg["ambient"], "ambient") \
        if cfg.get("ambient") else None
    cert = certify(f, g, h, v, grid=grid, ambient=ambient)
    resolved = {"f": f.to_json(), "g": g.to_json(), "h": h.to_json(),
                "v": v, "grid": list(grid),
                "ambient": ambient.to_json() if ambient else None}
    _emit(args, "certify", resolved, cert.to_json(), t0,
          tolerances={"violation_tolerance": VIOLATION_TOLERANCE})
    return EXIT_VIOLATION if cert.verdict == "Violated" else EXIT_OK


def cmd_jcoeff(args) -> int:
    t0 = time.perf_counter()
    cfg = _merged(args, _load_config(args), ("samples",))
    _require_keys(cfg, ("h", "interval", "samples"), "jcoeff",
                  required=("h", "interval"))
    h = parse_function(cfg["h"], "h")
    K = parse_interval(cfg["interval"], "interval")
    samples = parse_integer(cfg.get("samples", 4096), "jcoeff.samples")
    coeff = jcoeff(h, K, samples)
    resolved = {"h": h.to_json(), "interval": K.to_json(),
                "samples": samples}
    _emit(args, "jcoeff", resolved, coeff.to_json(), t0)
    return EXIT_OK


def cmd_jensen(args) -> int:
    t0 = time.perf_counter()
    cfg = _merged(args, _load_config(args), ())
    _require_keys(cfg, ("f", "h", "matrix", "x", "mode", "lam"), "jensen",
                  required=("f", "matrix", "x", "mode"))
    if cfg["mode"] not in JENSEN_MODES:
        raise ConfigError(f"jensen: mode must be one of {JENSEN_MODES}")
    f = parse_function(cfg["f"], "f")
    h = parse_function(cfg["h"], "h") if cfg.get("h") else None
    A = parse_matrix(cfg["matrix"])
    x = parse_vector(cfg["x"], "jensen.x")
    lam = None if cfg.get("lam") is None \
        else parse_number(cfg["lam"], "jensen.lam")
    verdict = jensen_verify(f, h, A, x, cfg["mode"], lam=lam)
    resolved = {"f": f.to_json(), "h": h.to_json() if h else None,
                "matrix": {"entries": A.entries.tolist()},
                "x": x.components.tolist(), "mode": cfg["mode"], "lam": lam}
    _emit(args, "jensen", resolved, verdict.to_json(), t0)
    return EXIT_VIOLATION if verdict.margin < 0.0 else EXIT_OK


def cmd_refine(args) -> int:
    t0 = time.perf_counter()
    cfg = _merged(args, _load_config(args), ())
    keys = ("inequality", "alpha", "v", "p", "samples")
    _require_keys(cfg, keys, "refine",
                  required=("inequality", "alpha", "v", "samples"))
    targets = {r.chain: t for t, r in RULES.items() if r.chain}
    inequality = parse_text(cfg["inequality"], "refine.inequality")
    if inequality not in targets:
        raise ConfigError(f"refine: unknown inequality {inequality!r}")
    if TRIPLES[inequality].needs_p:
        _require_keys(cfg, keys, "refine", required=("p",))
    alpha = parse_number(cfg["alpha"], "refine.alpha")
    v = parse_number(cfg["v"], "refine.v")
    p = None if cfg.get("p") is None else parse_number(cfg["p"], "refine.p")
    rows = cfg["samples"]
    if isinstance(rows, dict):
        rows = [rows]
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise ConfigError(f"refine.samples: expected an object or a list of "
                          f"objects, got {rows!r}")
    allowed = ("a", "q", "b", "matrix", "x")
    insts = []
    for i, row in enumerate(rows):
        _require_keys(row, allowed, f"refine.samples[{i}]",
                      required=CHAINS[inequality].row_keys)
        insts.append({"target": targets[inequality], "alpha": alpha, "v": v,
                      "p": p})
        insts[-1].update((k, parse_matrix(val) if k == "matrix" else
                          parse_numbers(val, f"refine.samples[{i}].{k}"))
                         for k, val in row.items() if val is not None)
    reports = chain_reports(insts)
    result = [r.to_json() for r in reports]
    _emit(args, "refine", cfg, result, t0,
          csv_rows=[r.csv_row() for r in reports])
    worst = min(min(r.margins) for r in reports)
    feasible_violation = any(
        r.feasible and min(r.margins) < CANDIDATE_THRESHOLD for r in reports)
    return EXIT_VIOLATION if feasible_violation and worst < 0 else EXIT_OK


def cmd_falsify(args) -> int:
    t0 = time.perf_counter()
    cfg = _merged(args, _load_config(args),
                  ("target", "samples", "seed", "margin_kind"))
    _require_keys(cfg, ("target", "samples", "seed", "region", "margin_kind",
                        "witness_cap"), "falsify",
                  required=("target", "samples", "seed"))
    region = cfg.get("region", {})
    if not isinstance(region, dict):
        raise ConfigError(f"falsify.region: expected an object, "
                          f"got {region!r}")
    campaign = Campaign(parse_text(cfg["target"], "falsify.target"),
                        parse_integer(cfg["samples"], "falsify.samples"),
                        parse_integer(cfg["seed"], "falsify.seed"),
                        region=region,
                        margin_kind=parse_text(cfg.get("margin_kind",
                                                       "refined"),
                                               "falsify.margin_kind"),
                        witness_cap=parse_integer(cfg.get("witness_cap", 32),
                                                  "falsify.witness_cap"))
    report = run_campaign(campaign)
    csv_rows = None
    if RULES[campaign.target].chain and args.format == "csv":
        csv_rows = [r.csv_row() for r in chain_reports(
            [w["inputs"] for w in report["witnesses"]])]
    _emit(args, "falsify", campaign.to_json(), report, t0,
          seed=campaign.seed,
          tolerances={"candidate_threshold": CANDIDATE_THRESHOLD,
                      "confirm_threshold": CONFIRM_THRESHOLD},
          csv_rows=csv_rows)
    confirmed = report["witness_stats"]["confirmed"]
    return EXIT_VIOLATION if confirmed else EXIT_OK


def cmd_replay(args) -> int:
    t0 = time.perf_counter()
    cfg = _merged(args, _load_config(args), ("report", "index"))
    _require_keys(cfg, ("report", "index", "witness"), "replay")
    if cfg.get("witness"):
        original = parse_witness(cfg["witness"], "replay.witness")
    else:
        if "report" not in cfg:
            raise ConfigError("replay: need 'witness' or 'report' (+index)")
        import json
        with open(parse_text(cfg["report"], "replay.report"), "r",
                  encoding="utf-8") as fh:
            rep = json.load(fh)
        result = rep.get("result", rep) if isinstance(rep, dict) else None
        witnesses = result.get("witnesses", []) \
            if isinstance(result, dict) else None
        if not isinstance(witnesses, list):
            raise ConfigError("replay.report: expected a campaign report")
        idx = parse_integer(cfg.get("index", 0), "replay.index")
        hits = [w for w in witnesses
                if isinstance(w, dict) and w.get("index") == idx]
        if not hits and not 0 <= idx < len(witnesses):
            raise ConfigError(f"replay: no witness with index {idx}")
        original = parse_witness(hits[0] if hits else witnesses[idx],
                                 "replay.witness")
    replayed = replay_witness(original)
    matches = {
        "margin_double": replayed["margin_double"]
                         == original.get("margin_double"),
        "margin_confirmed": replayed.get("margin_confirmed")
                            == original.get("margin_confirmed"),
    }
    result = {"witness": replayed, "matches": matches}
    _emit(args, "replay", {"witness": original}, result, t0)
    if original.get("margin_double") is not None and not matches["margin_double"]:
        raise ConfigError("replay: margin_double failed to reproduce")
    return EXIT_VIOLATION if replayed["confirmed"] else EXIT_OK


def cmd_sweep(args) -> int:
    t0 = time.perf_counter()
    cfg = _merged(args, _load_config(args), ())
    _require_keys(cfg, ("f", "h", "matrix", "x", "grid"), "sweep",
                  required=("f", "h", "matrix", "x"))
    f = parse_function(cfg["f"], "f")
    h = parse_function(cfg["h"], "h")
    A = parse_matrix(cfg["matrix"])
    x = parse_vector(cfg["x"], "sweep.x")
    grid = parse_integer(cfg.get("grid", 257), "sweep.grid")
    profile = lambda_profile(f, h, A, x, grid=grid)
    resolved = {"f": f.to_json(), "h": h.to_json(),
                "matrix": {"entries": A.entries.tolist()},
                "x": x.components.tolist(), "grid": grid}
    _emit(args, "sweep", resolved, profile.to_json(), t0)
    return EXIT_VIOLATION if profile.min_margin < -VIOLATION_TOLERANCE \
        else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state
    between calls.  set_defaults binds each subcommand to the cmd_*
    function this module held at the first build, so replacing a cmd_*
    attribute afterwards does not reach main."""
    parser = argparse.ArgumentParser(
        prog="hconvexlab",
        description="Verification and falsification lab for conditional "
                    "h-convexity bounds, operator Jensen inequalities, and "
                    "spread-tempered inequality chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, flags=()):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="output format (csv only where rows exist)")
        if "seed" in flags:
            p.add_argument("--seed", type=int)
        if "samples" in flags:
            p.add_argument("--samples", type=int)

    p = sub.add_parser("certify", help="grid-certify the convexity gap")
    common(p)
    p.add_argument("--v", type=float, help="anchor point")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("jcoeff", help="Jensen coefficient inf h(t)/t over K")
    common(p, ("samples",))
    p.set_defaults(fn=cmd_jcoeff)

    p = sub.add_parser("jensen", help="one operator Jensen comparison")
    common(p)
    p.set_defaults(fn=cmd_jensen)

    p = sub.add_parser("refine", help="evaluate refined inequality chains")
    common(p)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("falsify", help="run a seeded sampling campaign")
    common(p, ("seed", "samples"))
    p.add_argument("--target")
    p.add_argument("--margin-kind", dest="margin_kind",
                   choices=("refined", "outer"))
    p.set_defaults(fn=cmd_falsify)

    p = sub.add_parser("replay", help="re-evaluate a serialized witness")
    common(p)
    p.add_argument("--report", help="campaign report JSON to read")
    p.add_argument("--index", type=int, help="witness sample index")
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("sweep", help="per-lambda margin profile over (0,1)")
    common(p)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except HConvexLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except ArithmeticError as exc:  # data that does not evaluate, e.g. 0/0
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
