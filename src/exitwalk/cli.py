"""Command-line front end: seeded experiments with machine-readable CSV output.

Commands
--------
sample        fixed-N exit simulations, one CSV row per replication
sweep         cost profile over N in {N_min, ..., N0}, one row per N
bandit        epsilon-greedy tuned run; trace CSV plus per-arm summary CSV
validate      oracle-vs-empirical comparison table, nonzero exit on failure

All randomness derives from --seed through named substreams, so identical
configuration and seed produce byte-identical CSV.  sample, sweep and validate
run their replications across all cores through parallel.run_replications,
whose output does not depend on the core count.  Wall-clock columns are
written as 0.0 unless timing is enabled (--timing, or a wall-clock reward),
because measured times would break that determinism contract.  A timed
replication's wall time is the mean over its lane block, so sweep --timing
writes the mean wall time with nan interval bounds.  Exit codes: 0 ok, 2
config error, 3 validation failure, 4 runtime cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import bandit as bandit_mod
from . import oracle
from .errors import ConfigurationError, ExitwalkError, RunawayError
from .model import DiffusionModel, brownian, build_model
from .parallel import run_replications
from .rng import substream

SCHEMA_PREFIX = "# schema exitwalk"

_VALIDATION_CASES = {
    # case: (model builder, params, a, b, x, T, N)
    "zero": ("bm", {}, 0.0, 1.0, 0.3, 0.5, 4),
    "sin": ("sin", {}, 0.0, 7.0, 3.0, 1.0, 7),
    "ou1": ("ou", {"lambda": 1.0}, 0.0, 7.0, 3.0, 1.0, 14),
    "ou2": ("ou", {"lambda": 2.0}, -2.0, 2.0, 0.5, 0.5, 5),
    "cir": ("cir", {"k": 3.0, "theta": 7.0, "sigma": 1.0}, 1.0, 6.0, 3.0, 0.5, 16),
}


@dataclass
class ExperimentConfig:
    command: str = "sample"
    model: str = "sin"
    params: dict = field(default_factory=dict)
    a: float = 0.0
    b: float = 7.0
    x: float = 3.0
    T: float = 1.0
    N: int = 7
    N0: int = 21
    N_min: int = 2
    epsilon: float = 0.1
    M: int = 1000
    seed: int = 1
    reward: str = "work"
    schedule: str = "fixed"
    out: str | None = None
    timing: bool = False
    cases: tuple = tuple(_VALIDATION_CASES)

    def validate(self) -> None:
        if not (self.a < self.x < self.b):
            raise ConfigurationError(f"need a < x < b, got a={self.a}, x={self.x}, b={self.b}")
        if not self.T > 0.0:
            raise ConfigurationError(f"need T > 0 (or 'inf'), got {self.T}")
        if self.M < 1:
            raise ConfigurationError(f"need M >= 1, got {self.M}")
        if self.command == "validate" and self.M < 2:
            raise ConfigurationError(f"validate needs M >= 2 for a standard error, got {self.M}")
        if self.N < 2:
            raise ConfigurationError(f"need N >= 2, got {self.N}")
        if self.command == "sweep" and not (2 <= self.N_min <= self.N0 <= 64):
            raise ConfigurationError(f"sweep needs 2 <= N_min <= N0 <= 64, got {self.N_min}..{self.N0}")
        if self.command == "bandit" and self.N0 < 3:
            raise ConfigurationError(f"bandit needs N0 >= 3, got {self.N0}")
        if not 0.0 < self.epsilon <= 1.0:
            raise ConfigurationError(f"need epsilon in (0, 1], got {self.epsilon}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be a 64-bit nonnegative integer, got {self.seed}")
        if self.reward not in ("work", "wall"):
            raise ConfigurationError(f"reward must be 'work' or 'wall', got {self.reward!r}")
        if self.schedule not in bandit_mod.SCHEDULES:
            raise ConfigurationError(f"schedule must be one of {bandit_mod.SCHEDULES}")
        if not self.cases:
            raise ConfigurationError("need at least one validation case")
        unknown = set(self.cases) - set(_VALIDATION_CASES)
        if unknown:
            raise ConfigurationError(f"unknown validation cases {sorted(unknown)}")


def parse_params(text: str) -> dict:
    """Parse 'k=3,theta=7,sigma=1' into a float map."""
    out: dict[str, float] = {}
    text = text.strip()
    if not text:
        return out
    for chunk in text.split(","):
        if "=" not in chunk:
            raise ConfigurationError(f"bad parameter chunk {chunk!r}; expected name=value")
        key, val = chunk.split("=", 1)
        try:
            out[key.strip()] = float(val)
        except ValueError as exc:
            raise ConfigurationError(f"bad parameter value in {chunk!r}") from exc
    return out


def _parse_T(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigurationError(f"bad T value {text!r}") from exc


def load_config_file(path: str) -> dict:
    """Flat key = value file; '#' starts a comment."""
    raw: dict[str, str] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, val = line.split("=", 1)
        raw[key.strip()] = val.strip()
    return raw


_CONFIG_PARSERS = {
    "model": str,
    "params": parse_params,
    "a": float,
    "b": float,
    "x": float,
    "T": _parse_T,
    "N": int,
    "N0": int,
    "N_min": int,
    "epsilon": float,
    "M": int,
    "seed": int,
    "reward": str,
    "schedule": str,
    "out": str,
    "timing": lambda s: s.lower() in ("1", "true", "yes", "on"),
    "cases": lambda s: tuple(c.strip() for c in s.split(",") if c.strip()),
}


def _merge_config(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    known = {}
    for key, val in values.items():
        if key not in _CONFIG_PARSERS:
            raise ConfigurationError(f"unknown config key {key!r}")
        try:
            known[key] = _CONFIG_PARSERS[key](val) if isinstance(val, str) else val
        except ConfigurationError:
            raise
        except ValueError as exc:
            raise ConfigurationError(f"bad value {val!r} for config key {key!r}") from exc
    return replace(cfg, **known)


def _build_model(cfg: ExperimentConfig) -> DiffusionModel:
    return build_model(cfg.model, dict(cfg.params))


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


class _Writer:
    """CSV to a file or stdout; its ``with`` block closes the file or flushes stdout however it ends."""

    def __init__(self, out: str | None):
        self._fh = open(out, "w", encoding="utf-8") if out else sys.stdout
        self._close = out is not None

    def line(self, *cells) -> None:
        self._fh.write(",".join(_fmt(c) for c in cells) + "\n")

    def raw(self, text: str) -> None:
        self._fh.write(text + "\n")

    def __enter__(self) -> _Writer:
        return self

    def __exit__(self, *exc) -> None:
        if self._close:
            self._fh.close()
        else:
            self._fh.flush()


def _model_header(writer: _Writer, cfg: ExperimentConfig, model: DiffusionModel) -> None:
    params = ",".join(f"{k}={v!r}" for k, v in model.params)
    writer.raw(f"# model {model.name} params [{params}] seed {cfg.seed}")


def _wall_ms(cfg: ExperimentConfig, out: dict) -> np.ndarray:
    """Per-replication wall time in ms, or zeros to keep the CSV byte-deterministic."""
    return out["wall_time"] * 1e3 if cfg.timing else np.zeros(len(out["wall_time"]))


def cmd_sample(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    out = run_replications(model, cfg.x, cfg.a, cfg.b, cfg.T, cfg.N, cfg.M, cfg.seed, tag="sample")
    with _Writer(cfg.out) as writer:
        writer.raw(f"{SCHEMA_PREFIX}.sample v1")
        _model_header(writer, cfg, model)
        writer.line(
            "seed", "exit_time", "exit_location", "steps", "restarts",
            "exit_bm_calls", "cond_bm_calls", "wall_ms", "N", "T",
        )
        columns = [
            out[key].tolist()
            for key in ("time", "location", "steps", "restarts", "exit_bm_calls", "cond_bm_calls")
        ]
        columns.append(_wall_ms(cfg, out).tolist())
        for i, row in enumerate(zip(*columns)):
            writer.line(i, *row, cfg.N, cfg.T)
    times = out["time"]
    mean = float(times.mean())
    half = 1.96 * float(times.std(ddof=1)) / math.sqrt(cfg.M) if cfg.M > 1 else 0.0
    freq = int((out["location"] == cfg.b).sum()) / cfg.M
    fhalf = 1.96 * math.sqrt(max(freq * (1 - freq), 0.0) / cfg.M)
    print(
        f"sample: M={cfg.M} mean_exit_time={mean:.6g} ci95=[{mean - half:.6g},{mean + half:.6g}] "
        f"exit_at_b={freq:.6g} ci95=[{freq - fhalf:.6g},{freq + fhalf:.6g}]",
        file=sys.stderr,
    )
    return 0


def cmd_sweep(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    with _Writer(cfg.out) as writer:
        writer.raw(f"{SCHEMA_PREFIX}.sweep v1")
        _model_header(writer, cfg, model)
        writer.line(
            "N", "mean_work", "work_ci_lo", "work_ci_hi", "mean_wall_ms", "wall_ci_lo",
            "wall_ci_hi", "mean_steps", "steps_ci_lo", "steps_ci_hi",
        )
        for n_slices in range(cfg.N_min, cfg.N0 + 1):
            out = run_replications(
                model, cfg.x, cfg.a, cfg.b, cfg.T, n_slices, cfg.M, cfg.seed, tag=f"sweep/N{n_slices}"
            )
            row = [n_slices]
            for arr in (out["work"], _wall_ms(cfg, out), out["steps"]):
                m = float(arr.mean())
                half = 1.96 * float(arr.std(ddof=1)) / math.sqrt(cfg.M) if cfg.M > 1 else 0.0
                row += [m, m - half, m + half]
            if cfg.timing:
                # a block's walks share its mean wall time, so their spread says nothing
                row[5:7] = [math.nan, math.nan]
            writer.line(*row)
    return 0


def cmd_bandit(cfg: ExperimentConfig) -> int:
    model = _build_model(cfg)
    rng = substream(cfg.seed, "bandit")
    _records, trace = bandit_mod.bandit_diff_exit(
        rng, model, cfg.x, cfg.a, cfg.b, cfg.T, cfg.N0, cfg.epsilon, cfg.M,
        reward=cfg.reward, schedule=cfg.schedule,
    )
    with _Writer(cfg.out) as writer:
        writer.raw(f"{SCHEMA_PREFIX}.bandit-trace v1")
        _model_header(writer, cfg, model)
        writer.line("iter", "N", "reward", "running_mean", "epsilon_effective")
        for it, arm, r, running, eps in trace.rows:
            writer.line(it, arm, r, running, eps)

    arms_out = None
    if cfg.out is not None:
        p = Path(cfg.out)
        arms_out = str(p.with_name(p.stem + ".arms.csv"))
    with _Writer(arms_out) as awriter:
        awriter.raw(f"{SCHEMA_PREFIX}.bandit-arms v1")
        awriter.line("N", "pulls", "mean_cost")
        for arm, pulls, mean_cost in trace.arm_summary():
            awriter.line(arm, pulls, mean_cost)
    final_running = trace.rows[-1][3]
    print(
        f"bandit: M={cfg.M} N0={cfg.N0} epsilon={cfg.epsilon} reward={cfg.reward} "
        f"final_running_mean={final_running:.6g} greedy_arm={trace.state.greedy_arm()}",
        file=sys.stderr,
    )
    return 0


def run_validation(model, x, a, b, T, N, n, seed, tag, case="case") -> list[dict]:
    """Empirical diff_exit moments vs quadrature oracles; one dict per check.

    The replications come from run_replications, so they depend on (seed,
    tag, n) and never on the process count.
    """
    out = run_replications(model, x, a, b, T, N, n, seed, tag=tag)
    times = out["time"]
    p_oracle = oracle.exit_probability(model, x, a, b)
    t_oracle = oracle.mean_exit_time(model, x, a, b)
    freq = int((out["location"] == b).sum()) / n
    p_se = math.sqrt(max(p_oracle * (1.0 - p_oracle), 1e-300) / n)
    t_se = float(times.std(ddof=1)) / math.sqrt(n)
    rows = [
        {
            "case": case,
            "quantity": "exit_at_b",
            "n": n,
            "observed": freq,
            "expected": p_oracle,
            "tol": 3.0 * p_se,
            "score": (freq - p_oracle) / p_se if p_se > 0 else 0.0,
            "status": "pass" if abs(freq - p_oracle) <= 3.0 * p_se else "fail",
        },
        {
            "case": case,
            "quantity": "mean_exit_time",
            "n": n,
            "observed": float(times.mean()),
            "expected": t_oracle,
            "tol": 3.0 * t_se,
            "score": (float(times.mean()) - t_oracle) / t_se if t_se > 0 else 0.0,
            "status": "pass" if abs(float(times.mean()) - t_oracle) <= 3.0 * t_se else "fail",
        },
    ]
    return rows


def _case_model(name: str) -> DiffusionModel:
    builder, params, *_ = _VALIDATION_CASES[name]
    if builder == "bm":
        return brownian()
    return build_model(builder, dict(params))


def cmd_validate(cfg: ExperimentConfig) -> int:
    with _Writer(cfg.out) as writer:
        writer.raw(f"{SCHEMA_PREFIX}.validate v1")
        writer.line("case", "quantity", "n", "observed", "expected", "tol", "score", "status")
        failed = 0
        for case in cfg.cases:
            _, _, a, b, x, T, N = _VALIDATION_CASES[case]
            model = _case_model(case)
            for row in run_validation(model, x, a, b, T, N, cfg.M, cfg.seed, f"validate/{case}", case=case):
                failed += row["status"] != "pass"
                writer.line(
                    row["case"], row["quantity"], row["n"], row["observed"], row["expected"],
                    row["tol"], row["score"], row["status"],
                )
    if failed:
        print(f"validate: {failed} check(s) failed", file=sys.stderr)
        return 3
    print("validate: all checks passed", file=sys.stderr)
    return 0


_COMMANDS = {
    "sample": cmd_sample,
    "sweep": cmd_sweep,
    "bandit": cmd_bandit,
    "validate": cmd_validate,
}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--model", choices=["sin", "ou", "cir"])
    p.add_argument("--params", help="e.g. 'lambda=1' or 'k=3,theta=7,sigma=1'")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--x", type=float)
    p.add_argument("--T", help="positive real or 'inf'")
    p.add_argument("--M", type=int, help="sample size / iterations")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.add_argument("--timing", action="store_true", default=None,
                   help="record wall-clock columns (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="exitwalk", description="Exact diffusion exit-time simulation")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="fixed-N exit simulations")
    _add_common(p)
    p.add_argument("--N", type=int, help="slicing parameter (>= 2)")

    p = sub.add_parser("sweep", help="cost profile over N in {N_min..N0}")
    _add_common(p)
    p.add_argument("--N0", type=int, help="largest N in the sweep (<= 64)")
    p.add_argument("--N-min", dest="N_min", type=int, help="smallest N in the sweep (default 2)")

    p = sub.add_parser("bandit", help="epsilon-greedy tuned run")
    _add_common(p)
    p.add_argument("--N0", type=int, help="largest arm (arms are 2..N0)")
    p.add_argument("--epsilon", type=float)
    p.add_argument("--reward", choices=["wall", "work"])
    p.add_argument("--schedule", choices=list(bandit_mod.SCHEDULES))

    p = sub.add_parser("validate", help="oracle-vs-empirical comparison table")
    _add_common(p)
    p.add_argument("--cases", help="comma-separated subset of " + ",".join(_VALIDATION_CASES))

    return top


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig(command=args.command)
    if args.config:
        cfg = _merge_config(cfg, load_config_file(args.config))
    overrides = {}
    for key in _CONFIG_PARSERS:
        attr = key
        if not hasattr(args, attr):
            continue
        val = getattr(args, attr)
        if val is None:
            continue
        overrides[key] = val
    cfg = _merge_config(cfg, overrides)
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RunawayError as exc:
        print(f"runtime cap exceeded: {exc}", file=sys.stderr)
        return 4
    except ExitwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
