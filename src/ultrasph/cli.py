"""Batch driver: config parsing, verification suites, machine-readable reports.

Config files are flat key = value text grouped in [sections]; unknown
sections or keys are hard errors, because a silently ignored typo in a
mathematical parameter is the worst failure mode available here.

Exit codes: 0 all pass; 2 any FAIL; 3 any SKIP without FAIL (a budget
overrun is a SKIP); 4 config error (an oversized ring is one).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .matgroup import BudgetExceededError
from .ring import characters, check_ring, make_ring_level
from .verify import (
    Recorder,
    arch_suite,
    check_decompose_bytes,
    check_zonal_bytes,
    decompose_suite,
    double_coset_suite,
    pseries_suite,
    verify_all,
    zonal_suite,
)

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_SKIP = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "ring": {"branch": str, "p": int, "f": int, "poly": "intlist"},
    "run": {
        "n": int,
        "level": int,
        "samples": int,
        "seed": int,
        "budget": int,
        "out": str,
    },
    "pseries": {"chars": str, "sum_max": int, "level": int},
    "arch": {
        "real_degree": int,
        "real_nmax": int,
        "complex_degree": int,
        "complex_nmax": int,
    },
}


@dataclass
class RunConfig:
    branch: str = "padic"
    p: int = 2
    f: int = 1
    poly: list | None = None
    n: int = 2
    level: int = 2
    samples: int = 200
    seed: int = 0
    budget: int = 200000
    out: str | None = None
    chars: str | None = None
    sum_max: int | None = None
    pseries_level: int | None = None
    real_degree: int = 6
    real_nmax: int = 4
    complex_degree: int = 5
    complex_nmax: int = 3

    def ring(self):
        return make_ring_level(self.branch, self.p, self.f, self.level, self.poly)

    def validate(self):
        if self.samples <= 0 or self.budget <= 0:
            raise ConfigError("samples and budget must be positive")
        if self.level < 1:
            raise ConfigError("level must be >= 1")
        if self.pseries_level is not None and self.pseries_level < 1:
            raise ConfigError("pseries level must be >= 1")
        if self.sum_max is not None and self.sum_max < 0:
            raise ConfigError("pseries sum_max must be >= 0")
        if self.n < 2:
            raise ConfigError("n must be >= 2")
        if min(self.real_degree, self.complex_degree) < 0:
            raise ConfigError("arch degrees must be >= 0")
        if min(self.real_nmax, self.complex_nmax) < 2:
            raise ConfigError("arch nmax must be >= 2")


def parse_config_text(text):
    """Sections of key = value lines; '#' starts a comment."""
    out = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            out.setdefault(section, {})
            continue
        if "=" not in line or section is None:
            raise ConfigError(f"line {lineno}: expected 'key = value' inside a section")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        kind = _SCHEMA[section][key]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be an integer")
        elif kind == "intlist":
            try:
                value = [int(v) for v in value.split(",") if v.strip() != ""]
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} must be comma-separated integers")
        out[section][key] = value
    return out


def load_config(path, overrides=None):
    cfg = RunConfig()
    if path is not None:
        with open(path) as fh:
            data = parse_config_text(fh.read())
        ring = data.get("ring", {})
        cfg.branch = ring.get("branch", cfg.branch)
        cfg.p = ring.get("p", cfg.p)
        cfg.f = ring.get("f", cfg.f)
        cfg.poly = ring.get("poly", cfg.poly)
        run = data.get("run", {})
        for k in ("n", "level", "samples", "seed", "budget", "out"):
            if k in run:
                setattr(cfg, k, run[k])
        ps = data.get("pseries", {})
        cfg.chars = ps.get("chars", cfg.chars)
        cfg.sum_max = ps.get("sum_max", cfg.sum_max)
        cfg.pseries_level = ps.get("level", cfg.pseries_level)
        ar = data.get("arch", {})
        cfg.real_degree = ar.get("real_degree", cfg.real_degree)
        cfg.real_nmax = ar.get("real_nmax", cfg.real_nmax)
        cfg.complex_degree = ar.get("complex_degree", cfg.complex_degree)
        cfg.complex_nmax = ar.get("complex_nmax", cfg.complex_nmax)
    for k, v in (overrides or {}).items():
        if v is not None:
            setattr(cfg, k, v)
    cfg.validate()
    return cfg


def select_characters(ring, selector, n):
    """Character selectors 'conductor[:index]' per slot, comma separated."""
    chs = characters(ring)
    by_c = {}
    for ch in chs:
        by_c.setdefault(ch.c, []).append(ch)
    out = []
    for part in selector.split(","):
        part = part.strip()
        if ":" in part:
            c_str, i_str = part.split(":")
            c, i = int(c_str), int(i_str)
        else:
            c, i = int(part), 0
        if c not in by_c or i >= len(by_c[c]):
            raise ConfigError(f"no character with conductor {c} and index {i}")
        out.append(by_c[c][i])
    if len(out) != n:
        raise ConfigError(f"need {n} characters, got {len(out)}")
    return out


def emit_report(records, out_path=None, seed=None):
    lines = []
    for r in records:
        d = r.as_dict()
        if seed is not None:
            d["seed"] = seed
        lines.append(json.dumps(d, sort_keys=True))
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    # human summary
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for r in records:
        counts[r.status] += 1
    width = max((len(r.check_id) for r in records), default=10)
    summary = [
        "",
        f"{'check':<{width}}  status  observed",
        "-" * (width + 30),
    ]
    for r in records:
        if r.status != "PASS":
            summary.append(f"{r.check_id:<{width}}  {r.status:<6}  {r.observed}")
    summary.append(
        f"total {len(records)}: {counts['PASS']} pass, {counts['FAIL']} fail, {counts['SKIP']} skipped"
    )
    print("\n".join(summary), file=sys.stderr)
    if counts["FAIL"]:
        return EXIT_FAIL
    if counts["SKIP"]:
        return EXIT_SKIP
    return EXIT_PASS


def cmd_decompose(cfg, rec):
    # priced from (q, n, level) before the ring's tables are built
    q = check_ring(cfg.branch, cfg.p, cfg.f, cfg.level)
    try:
        check_decompose_bytes(q, cfg.n, cfg.level)
        decompose_suite(
            cfg.ring(), cfg.n, rec=rec, rng=np.random.default_rng(cfg.seed),
            include_commutants=True,
        )
    except BudgetExceededError as e:
        rec.skip("decompose/budget", "suite within its budgets", {}, str(e))


def cmd_zonal(cfg, rec):
    q = check_ring(cfg.branch, cfg.p, cfg.f, cfg.level)
    try:
        check_zonal_bytes(q, cfg.n, cfg.level)
        zonal_suite(cfg.ring(), cfg.n, rec=rec, samples=cfg.samples, seed=cfg.seed)
    except BudgetExceededError as e:
        rec.skip("zonal/budget", "suite within its budgets", {}, str(e))


def cmd_double_cosets(cfg, rec):
    ring = cfg.ring()
    try:
        double_coset_suite(ring, cfg.n, rec=rec, budget=cfg.budget)
    except BudgetExceededError as e:
        rec.skip("double-cosets/budget", "suite within its budgets", {}, str(e))


def cmd_principal_series(cfg, rec):
    if cfg.chars is not None:
        level = cfg.pseries_level if cfg.pseries_level is not None else cfg.level
        ring = make_ring_level(cfg.branch, cfg.p, cfg.f, level, cfg.poly)
        chars = select_characters(ring, cfg.chars, cfg.n)
        from .pseries import PSeriesModel
        from .verify import _check_sample_bytes, pseries_model_checks

        try:
            _check_sample_bytes(cfg.n, cfg.samples)
        except BudgetExceededError as e:
            rec.skip("pseries/budget", "sampled stacks within their budget", {}, str(e))
            return
        try:
            model = PSeriesModel(chars, n=cfg.n, rng=np.random.default_rng(cfg.seed))
        except BudgetExceededError as e:
            rec.skip("pseries/model", "model build", {}, str(e))
            return
        pseries_model_checks(model, rec, samples=cfg.samples, rng=np.random.default_rng(cfg.seed))
    else:
        sum_max = cfg.sum_max if cfg.sum_max is not None else 3
        pseries_suite(
            cfg.branch, cfg.p, cfg.f, cfg.n, sum_max, rec=rec,
            samples=cfg.samples, seed=cfg.seed, poly=cfg.poly,
            level_override=cfg.pseries_level,
        )


def cmd_arch(cfg, rec):
    try:
        arch_suite(
            rec=rec,
            real_bounds=(cfg.real_degree, cfg.real_nmax),
            complex_bounds=(cfg.complex_degree, cfg.complex_nmax),
        )
    except BudgetExceededError as e:
        rec.skip("arch/budget", "suite within its budgets", {}, str(e))


def cmd_verify_all(cfg, rec):
    verify_all(samples=cfg.samples, seed=cfg.seed, budget=cfg.budget, rec=rec)


COMMANDS = {
    "decompose": cmd_decompose,
    "zonal": cmd_zonal,
    "double-cosets": cmd_double_cosets,
    "principal-series": cmd_principal_series,
    "arch-verify": cmd_arch,
    "verify-all": cmd_verify_all,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ultrasph",
        description="Verify harmonic analysis on spheres over finite quotient rings.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="path to a config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--out", default=None, help="JSONL report path (default stdout)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            args.config,
            overrides={
                "seed": args.seed,
                "samples": args.samples,
                "budget": args.budget,
                "out": args.out,
            },
        )
    except (ConfigError, OSError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    rec = Recorder()
    try:
        COMMANDS[args.command](cfg, rec)
    except (ConfigError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return emit_report(rec.sorted_records(), out_path=cfg.out, seed=cfg.seed)


if __name__ == "__main__":
    sys.exit(main())
