"""The benchmark workloads: CLI jobs made from a seed, and their output checks.

A job is a fixed sequence of `riesz` subcommands.  It is built from parts
(map, probe, resolvent, fields); each part turns the benchmark seed into
config files (the seed also goes to every command as `--seed`) and checks
its own outputs.  The seeded perturbations keep the amount of work fixed:
the same grids, the same number of transforms and the same number of CSV
rows for every seed.

There are two workloads of two parts each, not one per part, so that each
run measures its jobs over the longest time the benchmark's time budget
allows: on a shared host, a part timed alone over a shorter run spread by
more than its bound from run to run.  The split keeps the two mechanisms
apart: `map-probe` runs the probe layer (many small transforms in `map`,
few large ones in `probe`) and leaves the Neumann series and the field
dumps idle; `resolvent-fields` runs those and leaves the probe layer idle.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NORM_SPECS = (
    "lp(p=1)",
    "lp(p=2)",
    "weighted(p=2,a=0.5)",
    "herz(alpha=0.5,p=2,q=1)",
    "besov(alpha=0,p=2,q=2,levels=3)",
    "triebel(alpha=0,p=2,q=2,levels=3)",
    "ap(a=0.5,p=2)",
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `riesz <subcommand> --config <out>.toml --out <out>`."""

    subcommand: str
    out: str
    config: str
    flags: tuple = ()


@dataclass(frozen=True)
class Part:
    make: object
    check: object


@dataclass(frozen=True)
class Workload:
    """A job made of parts: their commands in order, and all their checks."""

    name: str
    parts: tuple

    def make(self, seed):
        return [command for part in self.parts for command in part.make(seed)]

    def check(self, job_dir):
        return [problem for part in self.parts for problem in part.check(job_dir)]


def _toml_list(values):
    return "[" + ", ".join(json.dumps(v) if isinstance(v, str) else repr(v)
                           for v in values) + "]"


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# map: resolvent-norm lower-bound maps at p = 2 and p = 1

MAP_STEPS = 15
LOWER_BOUND_RTOL = 1e-12


def make_map(seed):
    # Shifting the real range by less than 0.05 keeps the same 7 pole points
    # on [0, 1] and the same probe families, so every seed does equal work.
    shift = 0.05 * random.Random(seed).random()
    commands = []
    for p in (2, 1):
        config = (f"re = {_toml_list([-0.5 + shift, 1.5 + shift, MAP_STEPS])}\n"
                  f"im = [-1.0, 1.0, {MAP_STEPS}]\n"
                  f"p = {float(p)!r}\n")
        commands.append(Command("spectrum-map", f"map_p{p}", config))
    return commands


def _dist_to_unit_interval(re, im):
    return math.hypot(re - min(max(re, 0.0), 1.0), im)


def check_map(job_dir):
    problems = []
    for p in (2, 1):
        rows = read_csv(job_dir / f"map_p{p}" / "spectrum-map.csv")
        if len(rows) != MAP_STEPS * MAP_STEPS:
            problems.append(f"map p={p}: {len(rows)} rows, expected {MAP_STEPS**2}")
        for row in rows:
            if row["pole"] == "true":
                continue
            re, im = float(row["re_z"]), float(row["im_z"])
            oracle, lower = float(row["oracle_p2"]), float(row["lower_bound"])
            exact = 1.0 / _dist_to_unit_interval(re, im)
            if not _rel_close(oracle, exact, 1e-8):
                problems.append(f"map p={p} z={re}{im:+}j: oracle_p2 {oracle} != 1/dist {exact}")
            # At Re z <= 0 a probe sits where b = 0 and the bound equals the
            # supremum exactly, so rounding may put it a few ulps above.
            if p == 2 and not lower <= oracle * (1 + LOWER_BOUND_RTOL):
                problems.append(f"map p=2 z={re}{im:+}j: lower_bound {lower} > oracle {oracle}")
    return problems


# ---------------------------------------------------------------------------
# resolvent: both decomposition directions, kernel decay, Mikhlin screen

def make_resolvent(seed):
    return [
        Command("resolvent-verify", "resolvent_verify",
                "direction = \"both\"\ngrid_dim = 2\ngrid_size = 256\ngrid_half_width = 40.0\n"),
        Command("kernel-decay", "kernel_decay", "assert_ratio_bound = true\n"),
        Command("mikhlin", "mikhlin",
                "symbol = \"resolvent(z=2+0j,delta=1)\"\ngrid_dim = 2\nkmax = 2\n"
                "refinements = 2\nassert_not_flagged = true\n"),
    ]


def check_resolvent(job_dir):
    problems = []
    for out, check in (("kernel_decay", "seminorm_ratios"), ("mikhlin", "not_flagged")):
        manifest = json.loads((job_dir / out / "manifest.json").read_text())
        if check not in {c["name"] for c in manifest["checks"]}:
            problems.append(f"{out}: check {check} did not run")
    rows = read_csv(job_dir / "resolvent_verify" / "resolvent-verify.csv")
    if {row["direction"] for row in rows} != {"forward", "reverse"}:
        problems.append("resolvent-verify: missing a direction")
    return problems


# ---------------------------------------------------------------------------
# probe: defect-ratio sweeps on 1024^2 grids

PROBE_LAMBDAS = (0.5, 1.0)
PROBE_NS = (4, 5, 6, 8)
PROBE_PS = (1.0, 2.0, 4.0)


def make_probe(seed):
    # rho in [0.5, 0.55) keeps the probe grid at 1024^2 and every N above the
    # localizer's minimum scale.
    rho = 0.5 + 0.05 * random.Random(seed).random()
    config = (f"grid_dim = 2\nlambdas = {_toml_list(PROBE_LAMBDAS)}\n"
              f"ns = {_toml_list(PROBE_NS)}\nps = {_toml_list(PROBE_PS)}\nrho = {rho!r}\n")
    return [Command("probe", "probe", config)]


def check_probe(job_dir):
    rows = read_csv(job_dir / "probe" / "probe.csv")
    problems = []
    expected = len(PROBE_LAMBDAS) * len(PROBE_NS) * len(PROBE_PS)
    if len(rows) != expected:
        problems.append(f"probe: {len(rows)} rows, expected {expected}")
    for row in rows:
        if not float(row["slope"]) <= -0.9:
            problems.append(f"probe lambda={row['lambda']} p={row['p']}: slope {row['slope']} > -0.9")
    return problems


# ---------------------------------------------------------------------------
# fields: apply with a field dump, then the norm suite on the dumped output

def make_fields(seed):
    apply_config = ("symbol = \"bochner(delta=1)\"\nfield = \"random(band=2)\"\n"
                    "grid_dim = 2\ngrid_size = 512\ngrid_half_width = 40.0\n")
    norms_config = (f"field = \"apply/fields/output\"\nnorms = {_toml_list(NORM_SPECS)}\n")
    return [
        Command("apply", "apply", apply_config, ("--dump-field",)),
        Command("norms", "norms", norms_config),
    ]


def check_fields(job_dir):
    problems = []
    applied = {row["quantity"]: row for row in read_csv(job_dir / "apply" / "apply.csv")}
    # norms.csv leaves specs with commas unquoted, so read the JSON record.
    norms = json.loads((job_dir / "norms" / "norms.json").read_text())
    if set(norms) != set(NORM_SPECS):
        problems.append(f"norms: got specs {sorted(norms)}")
        return problems
    out_l2 = float(applied["output"]["l2"])
    if not _rel_close(norms["lp(p=2)"], out_l2, 1e-12):
        problems.append(f"fields: dumped lp(p=2) {norms['lp(p=2)']} != apply l2 {out_l2}")
    besov = norms["besov(alpha=0,p=2,q=2,levels=3)"]
    triebel = norms["triebel(alpha=0,p=2,q=2,levels=3)"]
    if not _rel_close(besov, triebel, 1e-10):
        problems.append(f"fields: besov {besov} != triebel {triebel} at p=q=2")
    return problems


MAP = Part(make_map, check_map)
PROBE = Part(make_probe, check_probe)
RESOLVENT = Part(make_resolvent, check_resolvent)
FIELDS = Part(make_fields, check_fields)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("map-probe", (MAP, PROBE)),
        Workload("resolvent-fields", (RESOLVENT, FIELDS)),
    )
}


def check_job(workload, job_dir, commands):
    """Every problem found in a finished job's outputs; empty when all hold."""
    job_dir = Path(job_dir)
    problems = []
    for command in commands:
        manifest_path = job_dir / command.out / "manifest.json"
        if not manifest_path.exists():
            return [f"{command.out}: no manifest written"]
        failed = [c["name"] for c in json.loads(manifest_path.read_text())["checks"]
                  if not c["passed"]]
        if failed:
            problems.append(f"{command.out}: in-config assertions failed: {failed}")
    try:
        problems.extend(workload.check(job_dir))
    except (OSError, KeyError, ValueError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems
