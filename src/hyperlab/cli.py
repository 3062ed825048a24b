"""Unified command-line entry point.

Verb-noun subcommands, one per workbench area. Every command writes a single
deterministic report (JSON by default, CSV on request) to stdout or to
--output; errors are structured JSON on stderr with exit status 1, usage
problems exit with status 2. Identical invocations with identical seeds
produce byte-identical reports.

Each command imports only the layer it runs, inside its handler: building
the parser loads no command module, `tm run` loads `turing`, `enum` loads
`pairing`, `aqc solve` loads `aqc` and `variates`, `limits` loads `limits`,
`tae` commands load `tae` and `variates`, and `zeno` commands load `zeno`,
with `turing` only where they drive a machine (`zeno halting`). No command
imports numpy: the seeded ones (aqc solve, tae ashby --simulate and tae
bogosort) draw from the standard library's random.Random(seed). No command
imports `dataclasses`, whose import pulls in `inspect`: the records are
plain classes. Only the commands that parse or print an exact fraction
(every `zeno` command and `enum decode`) load `fractions`, and with it
`decimal`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, HyperlabError, ParseError
from .reporting import Table, emit_report, report_pieces

if TYPE_CHECKING:
    from fractions import Fraction


def _natural_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a natural number, got {value}")
    return value


def _fraction_arg(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperlab",
        description="Desk-scale workbench for classical and hypercomputational machine models.",
    )
    # a seeded subcommand's own --seed, when given, replaces this one
    parser.add_argument("--seed", type=_natural_arg, default=0,
                        help="global RNG seed (default 0)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default="-", help="report destination file, - for stdout")
    groups = parser.add_subparsers(dest="group", required=True)

    tm = groups.add_parser("tm", help="Turing machine engine").add_subparsers(
        dest="command", required=True)
    tm_run = tm.add_parser("run", help="run a machine on an input string")
    tm_run.add_argument("machine", help="machine document (JSON)")
    tm_run.add_argument("--input", default="", help="initial tape content")
    tm_run.add_argument("--fuel", type=int, default=None)  # None: turing.DEFAULT_FUEL
    tm_run.add_argument("--trace", action="store_true", help="include a bounded trace")
    tm_run.set_defaults(handler=_cmd_tm_run)

    tae_g = groups.add_parser("tae", help="trial-and-error procedures").add_subparsers(
        dest="command", required=True)
    gold = tae_g.add_parser("goldbach", help="prime-pair answer stream over even numbers")
    gold.add_argument("--horizon", type=int, required=True)
    gold.set_defaults(handler=_cmd_goldbach)
    ashby = tae_g.add_parser("ashby", help="wheel-compounding strategies")
    ashby.add_argument("--wheels", type=int, required=True)
    ashby.add_argument("--p", type=float, required=True)
    ashby.add_argument("--strategy", type=int, choices=(1, 2, 3), required=True)
    ashby.add_argument("--simulate", action="store_true")
    ashby.add_argument("--trials", type=int, default=10**5)
    ashby.add_argument("--seed", type=_natural_arg, default=argparse.SUPPRESS)
    ashby.set_defaults(handler=_cmd_ashby)
    bogo = tae_g.add_parser("bogosort", help="shuffle a random sequence until sorted")
    bogo.add_argument("--len", type=_natural_arg, required=True, dest="length")
    bogo.add_argument("--memo", action="store_true")
    bogo.add_argument("--max-tries", type=int, default=10**6)
    bogo.add_argument("--seed", type=_natural_arg, default=argparse.SUPPRESS)
    bogo.set_defaults(handler=_cmd_bogosort)

    zeno_g = groups.add_parser("zeno", help="accelerated-machine time accounting").add_subparsers(
        dest="command", required=True)
    ztime = zeno_g.add_parser("time", help="elapsed time through step index n")
    ztime.add_argument("--n", type=int, required=True)
    ztime.set_defaults(handler=_cmd_zeno_time)
    zbudget = zeno_g.add_parser("budget", help="steps that fit a time budget")
    zbudget.add_argument("--seconds", type=_fraction_arg, required=True)
    zbudget.set_defaults(handler=_cmd_zeno_budget)
    zlamp = zeno_g.add_parser("lamp", help="toggling-lamp state at a time")
    zlamp.add_argument("--t", type=_fraction_arg, required=True)
    zlamp.set_defaults(handler=_cmd_zeno_lamp)
    zhalt = zeno_g.add_parser("halting", help="halting flag of a fuel-bounded run")
    zhalt.add_argument("machine", help="machine document (JSON)")
    zhalt.add_argument("--input", default="")
    zhalt.add_argument("--fuel", type=int, default=None)  # None: turing.DEFAULT_FUEL
    zhalt.set_defaults(handler=_cmd_zeno_halting)

    lim = groups.add_parser("limits", help="physical bounds on mechanical computation")
    lim.add_argument("--symbols", type=int, required=True)
    lim.add_argument("--power", type=float, default=None)
    lim.add_argument("--dt", type=float, default=None)
    lim.set_defaults(handler=_cmd_limits)

    enum_g = groups.add_parser("enum", help="finite-precision real enumeration").add_subparsers(
        dest="command", required=True)
    edec = enum_g.add_parser("decode", help="pair at a diagonal index")
    edec.add_argument("--index", type=int, required=True)
    edec.set_defaults(handler=_cmd_enum_decode)
    eenc = enum_g.add_parser("encode", help="diagonal index of a pair")
    eenc.add_argument("--a", type=int, required=True)
    eenc.add_argument("--b", type=int, required=True)
    eenc.set_defaults(handler=_cmd_enum_encode)
    elist = enum_g.add_parser("list", help="first n enumerated values")
    elist.add_argument("--count", type=int, required=True)
    elist.set_defaults(handler=_cmd_enum_list)

    aqc_g = groups.add_parser("aqc", help="adiabatic ground-state decision").add_subparsers(
        dest="command", required=True)
    solve = aqc_g.add_parser("solve", help="decide solvability up to a cutoff")
    solve.add_argument("polynomial", help="polynomial document (JSON)")
    solve.add_argument("--cutoff", type=int, required=True)
    solve.add_argument("--time", type=float, default=50.0)
    solve.add_argument("--dt", type=float, default=0.01)
    solve.add_argument("--shots", type=int, default=1000)
    solve.add_argument("--seed", type=_natural_arg, default=argparse.SUPPRESS)
    solve.add_argument("--oracle-only", action="store_true",
                       help="skip the evolution; report the exact scan only")
    solve.set_defaults(handler=_cmd_aqc_solve)

    return parser


# -- command handlers -----------------------------------------------------------


def load_json(path: str):
    """The JSON document at path. Text that is not UTF-8 JSON, or that the
    decoder cannot turn into values (an integer past the interpreter's digit
    limit, nesting past its recursion limit), is a :class:`ParseError`."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ParseError(str(exc)) from None
        except ValueError:  # an int past the digit limit; its own text names a call, not a flag
            raise ParseError(
                f"integer literal longer than {sys.get_int_max_str_digits()} digits") from None


def _cmd_tm_run(args) -> dict:
    from . import turing

    fuel = turing.DEFAULT_FUEL if args.fuel is None else args.fuel
    machine = turing.load_machine(load_json(args.machine))
    outcome = turing.run(machine, args.input, fuel=fuel, trace=args.trace)
    report = {
        "command": "tm run",
        "outcome": outcome.kind.value,
        "steps": outcome.config.steps,
        "final_state": outcome.config.state,
        "tape": outcome.config.tape_text(),
        "head": outcome.config.head,
        "oracle_consultations": outcome.oracle_consultations,
    }
    if outcome.trace is not None:
        report["trace"] = [
            {"state": c.state, "head": c.head, "steps": c.steps,
             "tape": c.tape_text()}
            for c in outcome.trace
        ]
    return report


def _cmd_goldbach(args) -> dict:
    from . import tae

    stream = tae.goldbach_stream(args.horizon)
    return {
        "command": "tae goldbach",
        "horizon": stream.horizon,
        "final_verdict": stream.final_verdict,
        "mind_changes": stream.mind_changes,
        "answers": len(stream),
        "last_examined": stream.last_examined,
    }


def _cmd_ashby(args) -> dict:
    from . import tae

    strategy = tae.WheelStrategy(args.strategy)
    exp = tae.WheelExperiment(args.wheels, args.p, strategy, seed=args.seed)
    if strategy is not tae.WheelStrategy.FREEZE_SUCCESSES:  # p**-N, N/p overflow before log2
        log2_expected = tae.ashby_expected_log2(exp)
        expected = tae.ashby_expected(exp) if log2_expected < 1020 else None
    else:  # one sum gives both; its SERIES_TERM_BUDGET terms of at most 1 stay below 2**1020
        expected = tae.ashby_expected(exp)
        log2_expected = math.log2(expected)
    report = {
        "command": "tae ashby",
        "wheels": args.wheels,
        "p": args.p,
        "strategy": int(strategy),
        "expected_seconds": expected,
        "expected_log2": log2_expected,
        "formula": {
            1: "p**-N rounds",
            2: "N/p single spins",
            3: "mean of max of N geometric(p) draws",
        }[int(strategy)],
        "quoted_reference": {
            "case1_log2_seconds": tae.QUOTED_CASE1_LOG2_SECONDS,
            "case2_seconds": tae.QUOTED_CASE2_SECONDS,
            "case3": tae.QUOTED_CASE3_NOTE,
            "asserted": False,
        },
    }
    if args.simulate:
        mean, stderr = tae.ashby_simulate(exp, args.trials)
        report["simulated_mean_seconds"] = mean
        report["simulated_standard_error"] = stderr
        report["trials"] = args.trials
        report["seed"] = args.seed
    return report


def _cmd_bogosort(args) -> dict:
    import random

    from . import tae

    rng = random.Random(args.seed)  # the shuffles continue the input's stream
    sequence = rng.sample(range(args.length), args.length)
    result = tae.bogosort(sequence, memoized=args.memo, seed=rng, max_tries=args.max_tries)
    return {
        "command": "tae bogosort",
        "length": args.length,
        "memoized": args.memo,
        "seed": args.seed,
        "input": sequence,
        "sorted": list(result.sequence),
        "tries": result.tries,
        "gave_up": result.gave_up,
    }


def _cmd_zeno_time(args) -> dict:
    from . import zeno

    seconds = zeno.zeno_time(args.n)
    return {
        "command": "zeno time",
        "n": args.n,
        "seconds": float(seconds),
        "seconds_exact": seconds,
        "limit_seconds": float(zeno.LIMIT),
        "formula": "sum_{i=0..n} 2**-i",
    }


def _float_view(value: Fraction, what: str) -> float:
    """The float a report prints beside an exact value, refused past the float range."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} is past the float range") from None


def _time_view(value: Fraction, what: str) -> float:
    """A zeno time's float view, refused also when a nonzero time rounds to 0."""
    view = _float_view(value, what)
    if view == 0 and value != 0:
        raise DomainError(f"{what} is nonzero but rounds to 0 as a float")
    return view


def _cmd_zeno_budget(args) -> dict:
    from . import zeno

    seconds = _time_view(args.seconds, "--seconds")
    got = zeno.steps_within_budget(args.seconds)
    decelerated = (zeno.decelerated_steps_within_budget(args.seconds)
                   if args.seconds >= 1 else None)
    return {
        "command": "zeno budget",
        "budget_seconds": seconds,
        "largest_step_index": "unbounded" if got is zeno.UNBOUNDED else got,
        "decelerated_step_index": decelerated,
        "note": (
            "decelerated_step_index counts the mirrored cascade whose step n "
            "ends at base * 2**n; budget ratios map to step gains as log2"),
    }


def _cmd_zeno_lamp(args) -> dict:
    from . import zeno

    t = _time_view(args.t, "--t")
    state = zeno.thomson_lamp(args.t)
    report = {
        "command": "zeno lamp",
        "t": t,
        "state": state.value,
    }
    if state is not zeno.LampState.UNDEFINED:
        report["toggles"] = zeno.lamp_toggle_count(args.t)
    return report


def _cmd_zeno_halting(args) -> dict:
    from . import turing, zeno

    fuel = turing.DEFAULT_FUEL if args.fuel is None else args.fuel
    machine = turing.load_machine(load_json(args.machine))
    result = zeno.atm_halting_flag(machine, args.input, fuel)
    return {
        "command": "zeno halting",
        "flag": result.flag,
        "steps": result.steps,
        "elapsed_seconds": float(result.elapsed),
        "elapsed_exact": result.elapsed,
        "outcome": result.outcome.kind.value,
        "fuel_bounded": result.fuel_bounded,
    }


def _cmd_limits(args) -> dict:
    from . import limits

    report = {"command": "limits"}
    report.update(limits.limits_report(args.symbols, power=args.power, dt=args.dt))
    report["formulas"] = {
        "max_frequency_from_power": "sqrt(2*pi*W/h)",
        "min_step_energy": "h/(2*pi*dt)",
        "min_symbol_volume": "(4/3)*pi*a**3*z",
        "min_symbol_distance": "2*a*z**(1/3)",
        "max_frequency_from_alphabet": "c/(2*a*z**(1/3))",
    }
    return report


def _cmd_enum_decode(args) -> dict:
    from . import pairing

    a, b = pairing.pair_decode(args.index)
    exact = pairing.real_value(a, b)
    entry = (args.index, a, b, _float_view(exact, "the value a * 10**-b"), exact,
             pairing.is_canonical_pair(a, b))
    return {"command": "enum decode"} | dict(zip(pairing.ENTRY_COLUMNS, entry))


def _cmd_enum_encode(args) -> dict:
    from . import pairing

    return {
        "command": "enum encode",
        "a": args.a,
        "b": args.b,
        "index": pairing.pair_index(args.a, args.b),
    }


def _cmd_enum_list(args) -> Table:
    from . import pairing

    return pairing.enumerate_reals(args.count)


def _cmd_aqc_solve(args) -> dict:
    from . import aqc

    poly = aqc.parse_polynomial(load_json(args.polynomial))
    if args.oracle_only:
        energy, winners = aqc.exact_ground_oracle(poly, args.cutoff)
        return {
            "command": "aqc solve --oracle-only",
            "cutoff": args.cutoff,
            "ground_energy": energy,
            "minimizers": [list(w) for w in winners],
            "solvable_up_to_cutoff": energy == 0,
        }
    report = aqc.decide(poly, args.cutoff, args.time, args.dt, args.shots, args.seed)
    return {"command": "aqc solve"} | report.to_json_dict()


# -- dispatch ---------------------------------------------------------------------


def dispatch(args: argparse.Namespace):
    """Run the handler the parser bound to the subcommand."""
    return args.handler(args)


def report_errors(work: Callable[[], object]) -> int:
    """Run ``work`` and return its exit status: 0, or 1 after writing the
    failure to stderr as JSON ``{"error", "message"}``. The commands and the
    experiment scripts report their failures through it alike."""
    try:
        work()
    except (HyperlabError, OSError) as exc:
        kind = exc.kind if isinstance(exc, HyperlabError) else "io-error"
        print(json.dumps({"error": kind, "message": str(exc)}), file=sys.stderr)
        return 1
    return 0


def _write_output(path: str, pieces: list[str]) -> None:
    """Write ``pieces`` to ``path``, all of them or, where a write fails, none.

    A regular file, or a new one, at the end of any symlinks is written as a
    temporary file beside it, which replaces it once complete, with the
    mode of the file it replaces or, for a new file, the usual one, and is
    removed otherwise. Anything else, a device such as ``os.devnull`` or a
    pipe behind ``/dev/stdout`` among them, is written in place; it is told
    apart on the path as given, since /proc's links to a pipe do not resolve.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        return
    target = os.path.realpath(path)
    temporary = os.path.join(os.path.dirname(target), f".{os.urandom(6).hex()}.tmp")
    try:
        fh = open(temporary, "x", encoding="utf-8", newline="")
    except OSError as exc:  # named by the path asked for, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if os.path.exists(target):
                os.chmod(temporary, os.stat(target).st_mode & 0o7777)
            fh.writelines(pieces)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def work() -> None:
        result = dispatch(args)
        if args.output == "-":
            emit_report(result, args.format, sys.stdout)
        else:
            _write_output(args.output, report_pieces(result, args.format))

    return report_errors(work)


if __name__ == "__main__":
    sys.exit(main())
