"""Command-line interface: reproducible subcommands over the ring toolkit.

Every subcommand emits deterministic JSON or CSV (floats at 12 significant
digits, stable key/column order), so outputs can be kept as golden files.
When ``--out`` is given the results are written to that path and a
``<out>.manifest.json`` sidecar records the exact argument vector; ``replay``
re-runs a manifest and regenerates the results byte for byte.

Exit codes: 0 success; 2 usage/validation, including a Bessel-route beta
above 12000 (`amplitude.BESSEL_BETA_MAX`), a grid, ring or other array of
more than `ring.MAX_GRID_POINTS` points and a window too large to hold
(`OverflowError`); 3 an amplitude route failed its
accuracy check: the complex values of `amplitude --method all` disagree, or
the Bessel series tail did not converge (`BesselTruncationError`); 4
physics-assertion failure (a table row or blocking check out of tolerance).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
import time

import numpy as np

from .amplitude import (
    AmplitudeQuery,
    BesselTruncationError,
    SpectralKernel,
    amplitude_bessel,
    amplitude_oracle,
    amplitude_spectral,
    grid_count,
    require_grid_points,
    xi,
    xi_profile,  # noqa: F401  unused here, but benchmarks/spans.py patches it
)
from .blockage import BLOCKED_XI, verify_blockage
from .entangle import find_entangling_time
from .optimize import SearchSpec, multiparty_plan, optimize_transfers
from .ring import RingConfig, _mode_cosines
from .serialize import (
    _FLOAT,
    ARTIFACT_VERSION,
    csv_text,  # noqa: F401  unused here, but benchmarks/spans.py patches it
    dumps,
    load_manifest,
    read_json,
    write_csv,
    write_csv_chunks,
    write_manifest,
    write_text,
)

# unused here, but benchmarks/spans.py patches `spinring.cli.entanglement_curve`
# in its traced mode, so the name must stay a module attribute
from .entangle import entanglement_curve  # noqa: F401

__all__ = ["main", "console_entry", "PUBLISHED_WINDOWS", "EXIT_OK", "EXIT_USAGE",
           "EXIT_METHOD_DISAGREEMENT", "EXIT_PHYSICS"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_METHOD_DISAGREEMENT = 3
EXIT_PHYSICS = 4

METHOD_AGREEMENT_TOL = 1e-8

# Published optimum windows for the 5- and 7-site rings:
# (n, d, f, beta, xi); beta is quoted to 5 significant figures, xi to 4 decimals.
PUBLISHED_WINDOWS = (
    (5, 1, -0.25, 1214.3, 0.9998),
    (5, 2, -0.25, 162.51, 0.9999),
    (5, 3, 0.25, 162.51, 0.9999),
    (5, 4, 0.25, 1214.3, 0.9998),
    (7, 1, -0.25, 4365.0, 0.9997),
    (7, 2, 0.25, 1942.6, 0.9994),
    (7, 3, 0.25, 3500.4, 0.9996),
    (7, 4, -0.25, 3500.4, 0.9996),
    (7, 5, -0.25, 1942.6, 0.9994),
    (7, 6, 0.25, 4365.0, 0.9997),
)
TABLE1_XI_TOL = 2e-3
TABLE1_XI_SLACK = 1e-3
TABLE1_BETA_TOL = 0.5
_TWIST_STACK = 8192  # twists in one `SpectralKernel` in `sweep`; a row keeps its own bits


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _twist_candidates(text: str) -> tuple[float, ...] | None:
    return None if text == "grid" else _parse_floats(text)


def _config_number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"--config key {key!r} must be a number, got {value!r}")
    return float(value)


def _config_fields(path: str) -> dict:
    """SearchSpec fields from a JSON object, each key checked for its type."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"--config must hold a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in dataclasses.fields(SearchSpec)})
    if unknown:
        raise ValueError(f"unknown --config keys: {', '.join(unknown)}")
    fields = {}
    for key, value in doc.items():
        if key != "f_candidates":
            fields[key] = _config_number(key, value)
        elif isinstance(value, list):
            fields[key] = tuple(_config_number(key, f) for f in value)
        else:
            raise ValueError(f"--config key 'f_candidates' must be a list, got {value!r}")
    return fields


def _search_spec(args: argparse.Namespace) -> SearchSpec:
    """SearchSpec from an optional JSON config document, overridden by flags."""
    fields = _config_fields(args.config) if args.config else {}
    if args.beta_max is not None:
        fields["beta_max"] = args.beta_max
    if args.beta_step is not None:
        fields["beta_step"] = args.beta_step
    if args.twists is not None:
        cands = _twist_candidates(args.twists)
        if cands is not None:
            fields["f_candidates"] = cands
        else:
            fields.pop("f_candidates", None)
    return SearchSpec(**fields)


def _emit(args: argparse.Namespace, write, *content) -> None:
    """`write(path, *content)` to `--out` and then its manifest, or to stdout."""
    write(args.out, *content)
    if args.out is not None:
        _manifest(args)


def _manifest(args: argparse.Namespace) -> None:
    """The manifest of the `--out` file, timed from `main`'s start."""
    params = {k: v for k, v in vars(args).items() if k not in ("func", "command") and not k.startswith("_")}
    write_manifest(args.command, params, args._argv, args.out, args._started)


def _amplitude_record(args: argparse.Namespace, method: str) -> dict:
    cfg = RingConfig(args.n, j=args.j, b=args.b, f=args.f)
    query = AmplitudeQuery(cfg, r=(args.d % args.n) + 1, s=1, beta=args.beta)
    fn = {
        "spectral": amplitude_spectral,
        "bessel": amplitude_bessel,
        "oracle": amplitude_oracle,
    }[method]
    res = fn(query)
    return {
        "n": args.n,
        "d": args.d % args.n,
        "f": args.f,
        "beta": args.beta,
        "xi": res.xi,
        "value_re": res.value.real,
        "value_im": res.value.imag,
        "method": res.method,
    }


def _spread(values: list) -> float:
    """The largest |a - b| over pairs of values: nan if one is nan, which max would skip."""
    return float(np.max([abs(a - b) for a in values for b in values]))


def cmd_amplitude(args: argparse.Namespace) -> int:
    if args.method != "all":
        _emit(args, write_text, dumps(_amplitude_record(args, args.method)))
        return EXIT_OK
    records = [_amplitude_record(args, m) for m in ("spectral", "bessel", "oracle")]
    xis = [r["xi"] for r in records]
    values = [complex(r["value_re"], r["value_im"]) for r in records]
    value_deviation = _spread(values)
    doc = {
        "n": args.n,
        "d": args.d % args.n,
        "f": args.f,
        "beta": args.beta,
        "records": records,
        "max_xi_deviation": _spread(xis),
        "max_value_deviation": value_deviation,
    }
    _emit(args, write_text, dumps(doc))
    return EXIT_OK if value_deviation <= METHOD_AGREEMENT_TOL else EXIT_METHOD_DISAGREEMENT


def cmd_table1(args: argparse.Namespace) -> int:
    spec = _search_spec(args)
    rows = []
    all_pass = True
    for n in (5, 7):
        targets = [row for row in PUBLISHED_WINDOWS if row[0] == n]
        records = optimize_transfers(n, [row[1] for row in targets], spec)
        for _, d, f_pub, beta_pub, xi_pub in targets:
            xi_at_pub = xi(RingConfig(n, f=f_pub), d, beta_pub)
            rec = records[d]
            matches = [
                p for p in rec.near_optima if abs(p.beta - beta_pub) <= TABLE1_BETA_TOL
            ]
            match = max(matches, key=lambda p: p.xi) if matches else None
            passed = (
                abs(xi_at_pub - xi_pub) <= TABLE1_XI_TOL
                and match is not None
                and match.xi >= xi_pub - TABLE1_XI_SLACK
            )
            all_pass &= passed
            # the text a CSV float cell holds, or empty cells when nothing matched
            found = [_FLOAT % v for v in (match.f, match.beta, match.xi)] if match else ["", "", ""]
            rows.append(
                (n, d, f_pub, beta_pub, xi_pub, xi_at_pub, rec.f, rec.beta, rec.xi, *found, passed)
            )
    header = (
        "n", "d", "f_published", "beta_published", "xi_published", "xi_at_published",
        "f_best", "beta_best", "xi_best", "f_match", "beta_match", "xi_match",
        "passed",
    )
    _emit(args, write_csv, header, list(zip(*rows)))
    return EXIT_OK if all_pass else EXIT_PHYSICS


def cmd_blockage(args: argparse.Namespace) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    if not (np.isfinite(args.beta_max) and args.beta_max >= 0.0):
        raise ValueError(f"--beta-max must be finite and non-negative, got {args.beta_max!r}")
    require_grid_points(args.samples)
    rng = np.random.default_rng(args.seed)
    reports = []
    all_pass = True
    for quarter in args.nn:
        samples = rng.uniform(0.0, args.beta_max, args.samples)
        rep = verify_blockage(quarter, samples)
        passed = rep.analytic_zero and rep.max_xi_over_samples <= BLOCKED_XI
        all_pass &= passed
        reports.append({"quarter_rings": quarter, **dataclasses.asdict(rep), "passed": passed})
    doc = {
        "beta_max": args.beta_max,
        "samples": args.samples,
        "seed": args.seed,
        "threshold": BLOCKED_XI,
        "reports": reports,
    }
    _emit(args, write_text, dumps(doc))
    return EXIT_OK if all_pass else EXIT_PHYSICS


def cmd_entangle(args: argparse.Namespace) -> int:
    # with --out, the scan streams its curve's blocks to the CSV as it makes them
    header = ("beta", "entropy_ebits", "branch_overlap")
    write = None if args.out is None else functools.partial(write_csv_chunks, args.out, header)
    scan = find_entangling_time(
        args.beta_max, step=args.step, n=args.n, start_site=args.start_site, write=write
    )
    summary = {
        "n": args.n,
        "start_site": args.start_site,
        "beta_max": args.beta_max,
        "step": args.step,
        "best": dataclasses.asdict(scan.best),
        "reference_point": {
            **dataclasses.asdict(scan.reference),
            "claimed_entropy_ebits": 1.0,
            "entropy_shortfall": 1.0 - scan.reference.entropy_ebits,
            "note": (
                "reading at the quoted operating point 8.5*pi; the computed "
                "entanglement falls short of the claimed maximal value by "
                "entropy_shortfall ebits"
            ),
        },
    }
    if args.out is not None:  # once the whole command has run, as `_emit` writes it
        _manifest(args)
    write_text(None, dumps(summary))
    return EXIT_OK


def cmd_multiparty(args: argparse.Namespace) -> int:
    spec = _search_spec(args)
    plan = multiparty_plan(args.n, args.sites, spec)
    doc = {
        "n": args.n,
        "sites": list(args.sites),
        "beta_max": spec.beta_max,
        "beta_step": spec.beta_step,
        "fidelity_map": "F(xi) = 1/2 + xi/3 + xi^2/6 (adopted monotone map)",
        "pairs": [
            {
                "site_a": p.site_a,
                "site_b": p.site_b,
                "d": p.record.d,
                "f": p.record.f,
                "beta": p.record.beta,
                "xi": p.record.xi,
                "fidelity": p.record.fidelity,
                "near_optima": [dataclasses.asdict(q) for q in p.record.near_optima[:8]],
            }
            for p in plan
        ],
    }
    _emit(args, write_text, dumps(doc))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    RingConfig(args.n)  # validates n early
    for flag, step in (("--f-step", args.f_step), ("--beta-step", args.beta_step)):
        if not 0.0 < step < math.inf:
            raise ValueError(f"{flag} must be positive and finite, got {step!r}")
    if not (args.f_min <= args.f_max and args.beta_min <= args.beta_max):
        raise ValueError("empty window: need --f-min <= --f-max and --beta-min <= --beta-max")
    twist_count = grid_count(args.f_max - args.f_min, args.f_step)
    count = grid_count(args.beta_max - args.beta_min, args.beta_step)
    require_grid_points(twist_count * count)
    require_grid_points(min(twist_count, _TWIST_STACK) * args.n, "a stack of twist rates")
    twists = [args.f_min + k * args.f_step for k in range(twist_count)]
    b0, h = args.beta_min, args.beta_step
    betas = b0 + h * np.arange(count)
    stacks = [
        SpectralKernel([_mode_cosines(args.n, f) for f in twists[k : k + _TWIST_STACK]], (args.d,))
        .xi_grid(b0, h, count) for k in range(0, twist_count, _TWIST_STACK)
    ]
    profiles = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    # one row per (twist, time); write_csv lays out the broadcast twists and times once each
    f_column = np.broadcast_to(np.array(twists)[:, None], profiles.shape)
    columns = (f_column, np.broadcast_to(betas, profiles.shape), profiles)
    _emit(args, write_csv, ("f", "beta", "xi"), columns)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    if manifest.artifact_version != ARTIFACT_VERSION:
        print(
            f"manifest was written by version {manifest.artifact_version}, "
            f"this is {ARTIFACT_VERSION}; results may differ",
            file=sys.stderr,
        )
    return main(manifest.argv)


@functools.cache  # one parser a process: every `main` call reuses it, `replay`'s too
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinring",
        description="Quantum communication on a twisted-boundary spin ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--beta-max", type=float, default=None)
    search.add_argument("--beta-step", type=float, default=None)
    search.add_argument(
        "--twists",
        default=None,
        help='"grid" for the default 1/400 twist grid, or comma list like "-0.25,0.25"',
    )
    search.add_argument("--config", default=None, help="JSON file with search-spec fields")

    p = sub.add_parser("amplitude", help="one transition amplitude / xi evaluation")
    p.add_argument("--n", type=int, required=True, help="ring size")
    p.add_argument("--d", type=int, required=True, help="site displacement r - s")
    p.add_argument("--f", type=float, default=0.0, help="boundary twist")
    p.add_argument("--beta", type=float, required=True, help="scaled time 4*J*t")
    p.add_argument(
        "--method",
        choices=("spectral", "bessel", "oracle", "all"),
        default="spectral",
    )
    p.add_argument("--j", type=float, default=1.0, help="exchange coupling")
    p.add_argument("--b", type=float, default=0.0, help="magnetic field")
    p.add_argument("--out", default=None, help="write JSON here (plus manifest)")
    p.set_defaults(func=cmd_amplitude)

    p = sub.add_parser(
        "table1", parents=[search], help="reproduce the published 5/7-site optimum table"
    )
    p.add_argument("--out", default=None, help="write CSV here (plus manifest)")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("blockage", help="verify half-flux diametric blocking")
    p.add_argument("--nn", type=_parse_ints, default=(1, 2, 3, 4),
                   help="comma list of quarter-ring counts C (ring size 4C)")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--beta-max", type=float, default=5000.0)
    p.add_argument("--seed", type=int, default=20260809)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_blockage)

    p = sub.add_parser("entangle", help="flux-ring entangling-time scan")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--beta-max", type=float, default=50.0)
    p.add_argument("--step", type=float, default=0.005)
    p.add_argument("--start-site", type=int, default=1)
    p.add_argument("--out", default=None, help="write the (beta, entropy, overlap) CSV here")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser(
        "multiparty", parents=[search], help="pairwise transfer plan for party sites"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sites", type=_parse_ints, required=True, help='comma list, e.g. "1,4,7"')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_multiparty)

    p = sub.add_parser("sweep", help="dense (f, beta, xi) grid as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--f-min", type=float, default=-0.5)
    p.add_argument("--f-max", type=float, default=0.5)
    p.add_argument("--f-step", type=float, default=0.05)
    p.add_argument("--beta-min", type=float, default=0.0)
    p.add_argument("--beta-max", type=float, default=50.0)
    p.add_argument("--beta-step", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="re-run a manifest and regenerate its results")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    args._argv, args._started = argv, time.perf_counter()
    try:
        return args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BesselTruncationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_METHOD_DISAGREEMENT


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
