"""Unified command-line entry point:

    hyperlab [--format {json,csv}] [--output PATH] GROUP [COMMAND] ARGS...

Verb-noun commands, one per row of ``COMMANDS``. Every command writes a single
deterministic report (JSON by default, CSV on request) to stdout or to
--output; errors are structured JSON on stderr with exit status 1, and a bad
line prints its usage and exits with status 2. Identical invocations with
identical seeds produce byte-identical reports. The line reads as argparse
read it, less prefix abbreviations: global options only before the group, an
option as ``--opt value`` or ``--opt=value`` (the last of a repeat wins),
positionals between options, ``-h`` for the usage, a list as ``1,5,25``.

Each command imports only the layer it runs, inside its handler, and reading
the line loads none: `tm run` loads `turing`, `enum` `pairing`, `aqc`
`aqc` and `variates`, `limits` `limits`, `tae` `tae` and `variates`, `zeno`
`zeno` (and `turing` for `zeno halting`). `json` loads only to read a document,
print an error or escape a string. No command imports numpy, argparse or
`dataclasses`. An exact value reaches the report as the text of
``format_fraction``; only the `zeno` commands, whose layer computes in
``Fraction``, load `fractions`, and with it `decimal` and `numbers`.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import DomainError, HyperlabError, ParseError, shown
from .reporting import Table, emit_report, format_fraction, report_pieces

if TYPE_CHECKING:
    from fractions import Fraction


def _natural_arg(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"must be a natural number, got {value}")
    return value


def _fraction_arg(text: str) -> Fraction:
    import re
    from fractions import Fraction

    # Fraction builds 10**exponent in full: past len(text) + 400, where no nonzero
    # value is inside the float range whatever its digits, the exponent is clamped
    exp, bound = re.fullmatch(r"(?s)(.*[\d.][eE][-+]?)(\d[\d_]*)(\s*)", text), len(text) + 400
    try:
        return Fraction(exp[1] + str(bound) + exp[3] if exp and int(exp[2]) > bound else text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a number: {text!r}") from None


def _ints_arg(text: str) -> tuple[int, ...]:
    return tuple(map(int, text.split(",")))


def _floats_arg(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


# -- command handlers -----------------------------------------------------------


def load_json(path: str):
    """The JSON document at path. Text that is not UTF-8 JSON, or that the
    decoder cannot turn into values (an integer past the interpreter's digit
    limit, nesting past its recursion limit), is a :class:`ParseError`."""
    import json

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
    config = outcome.config
    # no machine consults an oracle; the golden corpus and the benchmark's checks read the field
    report = {"command": "tm run", "outcome": outcome.kind, "steps": config.steps,
              "final_state": config.state, "tape": config.tape_text(), "head": config.head,
              "oracle_consultations": 0}
    if machine.num_tapes > 1:
        report["tapes"] = [config.tape_text(t) for t in range(machine.num_tapes)]
    if outcome.trace is not None:
        report["trace"] = [{"state": c.state, "head": c.head, "steps": c.steps,
                            "tape": c.tape_text()} for c in outcome.trace]
    return report


def _cmd_goldbach(args) -> dict:
    from . import tae

    stream = tae.goldbach_stream(args.horizon)
    return {"command": "tae goldbach", "horizon": stream.horizon,
            "final_verdict": stream.final_verdict, "mind_changes": stream.mind_changes,
            "answers": len(stream), "last_examined": stream.last_examined}


def _cmd_ashby(args) -> dict:
    from . import tae

    exp = tae.WheelExperiment(args.wheels, args.p, args.strategy, seed=args.seed)
    expected, log2_expected = tae.ashby_expected(exp)
    report = {
        "command": "tae ashby", "wheels": args.wheels, "p": args.p, "strategy": args.strategy,
        "expected_seconds": expected, "expected_log2": log2_expected,
        "formula": {1: "p**-N rounds", 2: "N/p single spins",
                    3: "mean of max of N geometric(p) draws"}[args.strategy],
        "quoted_reference": {"case1_log2_seconds": tae.QUOTED_CASE1_LOG2_SECONDS,
                             "case2_seconds": tae.QUOTED_CASE2_SECONDS,
                             "case3": tae.QUOTED_CASE3_NOTE, "asserted": False}}
    if args.simulate:
        mean, stderr = tae.ashby_simulate(exp, args.trials)
        report |= {"simulated_mean_seconds": mean, "simulated_standard_error": stderr,
                   "trials": args.trials, "seed": args.seed}
    return report


def _cmd_wheels(args) -> Table:
    from . import tae

    return tae.wheel_table(args.p, args.wheels, args.trials, args.seed)


def _cmd_bogosort(args) -> dict:
    import random

    from . import tae

    tae.check_bogosort_length(args.length)
    rng = random.Random(args.seed)  # the shuffles continue the input's stream
    sequence = rng.sample(range(args.length), args.length)
    result = tae.bogosort(sequence, memoized=args.memo, seed=rng, max_tries=args.max_tries)
    return {"command": "tae bogosort", "length": args.length, "memoized": args.memo,
            "seed": args.seed, "input": sequence, "sorted": list(result.sequence),
            "tries": result.tries, "gave_up": result.gave_up}


def _cmd_zeno_time(args) -> dict:
    from . import zeno

    seconds = zeno.zeno_time(args.n)
    return {"command": "zeno time", "n": args.n, "seconds": float(seconds),
            "seconds_exact": format_fraction(*seconds.as_integer_ratio()),
            "limit_seconds": float(zeno.LIMIT), "formula": "sum_{i=0..n} 2**-i"}


def _time_view(value: Fraction, what: str) -> float:
    """A zeno time's float view, refused past the float range and when a nonzero
    time rounds to 0."""
    try:
        view = float(value)
    except OverflowError:
        raise DomainError(f"{what} is past the float range") from None
    if view == 0 and value != 0:
        raise DomainError(f"{what} is nonzero but rounds to 0 as a float")
    return view


def _cmd_zeno_budget(args) -> dict:
    from . import zeno

    seconds = _time_view(args.seconds, "--seconds")
    got = zeno.steps_within_budget(args.seconds)
    return {"command": "zeno budget", "budget_seconds": seconds,
            "largest_step_index": "unbounded" if got is zeno.UNBOUNDED else got,
            "decelerated_step_index": zeno.decelerated_steps_within_budget(args.seconds),
            "note": "decelerated_step_index counts the mirrored cascade whose step n "
                    "ends at base * 2**n; budget ratios map to step gains as log2"}


def _cmd_zeno_lamp(args) -> dict:
    from . import zeno

    t = _time_view(args.t, "--t")
    state, toggles = zeno.thomson_lamp(args.t)
    report = {"command": "zeno lamp", "t": t, "state": state}
    if toggles is not None:
        report["toggles"] = toggles
    return report


def _cmd_zeno_halting(args) -> dict:
    from . import turing, zeno

    fuel = turing.DEFAULT_FUEL if args.fuel is None else args.fuel
    machine = turing.load_machine(load_json(args.machine))
    result = zeno.atm_halting_flag(machine, args.input, fuel)
    return {"command": "zeno halting", "flag": result.flag, "steps": result.steps,
            "elapsed_seconds": float(result.elapsed),
            "elapsed_exact": format_fraction(*result.elapsed.as_integer_ratio()),
            "outcome": result.outcome.kind, "fuel_bounded": result.fuel_bounded}


def _cmd_limits(args) -> dict:
    from . import limits

    report = limits.limits_report(args.symbols, power=args.power, dt=args.dt)
    return {"command": "limits", **report, "formulas": {
        "max_frequency_from_power": "sqrt(2*pi*W/h)", "min_step_energy": "h/(2*pi*dt)",
        "min_symbol_volume": "(4/3)*pi*a**3*z", "min_symbol_distance": "2*a*z**(1/3)",
        "max_frequency_from_alphabet": "c/(2*a*z**(1/3))"}}


def _cmd_enum_decode(args) -> dict:
    from . import pairing

    entry = pairing.decode_entry(args.index)
    return {"command": "enum decode"} | dict(zip(pairing.ENTRY_COLUMNS, entry))


def _cmd_enum_encode(args) -> dict:
    from . import pairing

    return {"command": "enum encode", "a": args.a, "b": args.b,
            "index": pairing.pair_index(args.a, args.b)}


def _cmd_enum_list(args) -> Table:
    from . import pairing

    return pairing.enumerate_reals(args.count)


def _cmd_aqc_solve(args) -> dict:
    from . import aqc

    poly = aqc.parse_polynomial(load_json(args.polynomial))
    if args.oracle_only:
        energy, winners = aqc.exact_ground_oracle(poly, args.cutoff)
        return {"command": "aqc solve --oracle-only", "cutoff": args.cutoff,
                "ground_energy": energy, "minimizers": [list(w) for w in winners],
                "solvable_up_to_cutoff": energy == 0}
    report = aqc.decide(poly, args.cutoff, args.time, args.dt, args.shots, args.seed)
    return {"command": "aqc solve"} | report._asdict()


def _cmd_aqc_sweep(args) -> dict:
    from . import aqc

    poly = aqc.parse_polynomial(load_json(args.polynomial))
    return {"command": "aqc sweep"} | aqc.overlap_sweep(poly, args.cutoff, args.times, args.dt)


# -- the command table ----------------------------------------------------------

REQUIRED = object()  # the default of an argument that every command line gives
_HELP = ("--help", None, False)

# An argument is (name, convert, default or REQUIRED): positional where the
# name has no leading -, a flag where convert is None, one of the tuple's
# values where convert is a tuple (the text converted by their type first).
GLOBAL_OPTIONS = (("--format", ("json", "csv"), "json"), ("--output", str, "-"))

# (group, command) -> (handler, help line, arguments); `limits` has no command.
# A --fuel of None is turing.DEFAULT_FUEL.
COMMANDS = {
    ("tm", "run"): (_cmd_tm_run, "run a machine on an input string", (
        ("machine", str, REQUIRED), ("--input", str, ""), ("--fuel", int, None),
        ("--trace", None, False))),
    ("tae", "goldbach"): (_cmd_goldbach, "prime-pair answer stream over even numbers", (
        ("--horizon", int, REQUIRED),)),
    ("tae", "ashby"): (_cmd_ashby, "wheel-compounding strategies", (
        ("--wheels", int, REQUIRED), ("--p", float, REQUIRED),
        ("--strategy", (1, 2, 3), REQUIRED), ("--simulate", None, False),
        ("--trials", int, 10**5), ("--seed", _natural_arg, 0))),
    ("tae", "wheels"): (_cmd_wheels, "closed forms against Monte Carlo, a row per wheel count", (
        ("--p", float, 0.5), ("--wheels", _ints_arg, (2, 4, 8, 12)), ("--trials", int, 10**5),
        ("--seed", _natural_arg, 0))),
    ("tae", "bogosort"): (_cmd_bogosort, "shuffle a random sequence until sorted", (
        ("--len", _natural_arg, REQUIRED), ("--memo", None, False),
        ("--max-tries", int, 10**6), ("--seed", _natural_arg, 0))),
    ("zeno", "time"): (_cmd_zeno_time, "elapsed time through step index n", (
        ("--n", int, REQUIRED),)),
    ("zeno", "budget"): (_cmd_zeno_budget, "steps that fit a time budget", (
        ("--seconds", _fraction_arg, REQUIRED),)),
    ("zeno", "lamp"): (_cmd_zeno_lamp, "toggling-lamp state at a time", (
        ("--t", _fraction_arg, REQUIRED),)),
    ("zeno", "halting"): (_cmd_zeno_halting, "halting flag of a fuel-bounded run", (
        ("machine", str, REQUIRED), ("--input", str, ""), ("--fuel", int, None))),
    ("limits", None): (_cmd_limits, "physical bounds on mechanical computation", (
        ("--symbols", int, REQUIRED), ("--power", float, None), ("--dt", float, None))),
    ("enum", "decode"): (_cmd_enum_decode, "pair at a diagonal index", (
        ("--index", int, REQUIRED),)),
    ("enum", "encode"): (_cmd_enum_encode, "diagonal index of a pair", (
        ("--a", int, REQUIRED), ("--b", int, REQUIRED))),
    ("enum", "list"): (_cmd_enum_list, "first n enumerated values", (
        ("--count", int, REQUIRED),)),
    ("aqc", "solve"): (_cmd_aqc_solve, "decide solvability up to a cutoff", (
        ("polynomial", str, REQUIRED), ("--cutoff", int, REQUIRED),
        ("--time", float, 50.0), ("--dt", float, 0.01), ("--shots", int, 1000),
        ("--seed", _natural_arg, 0), ("--oracle-only", None, False))),
    ("aqc", "sweep"): (_cmd_aqc_sweep, "ground-level overlap against schedule length", (
        ("polynomial", str, REQUIRED), ("--cutoff", int, 4),
        ("--times", _floats_arg, (1.0, 5.0, 25.0, 125.0)), ("--dt", float, 0.01))),
}


def _dest(name: str) -> str:
    return "length" if name == "--len" else name.lstrip("-").replace("-", "_")


def _arguments(path: tuple) -> tuple:
    """What may follow path: global options and a group, a command, its arguments."""
    if path in COMMANDS:
        return COMMANDS[path][2]
    if path:
        return (("command", tuple(c for g, c in COMMANDS if g == path[0]), REQUIRED),)
    return GLOBAL_OPTIONS + (("group", tuple(dict.fromkeys(g for g, _ in COMMANDS)), REQUIRED),)


def _word(argument: tuple) -> str:
    name, convert, default = argument
    if name[0] != "-":
        return name.upper()
    if convert is not None:
        name += " " + ("{%s}" % ",".join(map(str, convert)) if isinstance(convert, tuple)
                       else _dest(name).upper())
    return name if default is REQUIRED else f"[{name}]"


def _synopsis(key: tuple) -> str:
    return " ".join([*filter(None, key), *map(_word, COMMANDS[key][2])])


def _usage(path: tuple) -> str:
    """A command's usage line, or the whole line's before a command is named."""
    if path in COMMANDS:
        return "usage: hyperlab " + _synopsis(path)
    return "usage: hyperlab " + " ".join(map(_word, GLOBAL_OPTIONS)) + " GROUP [COMMAND] ARGS..."


def _fail(path: tuple, message: str):
    print(_usage(path), f"hyperlab: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _is_option(word: str, options: dict) -> bool:
    """Whether argparse reads word as an option: a known one, alone or with =value,
    or a word that starts with - but is not -, a negative number or spaced."""
    if word.partition("=")[0] in options:
        return True
    import re  # only for a word that starts with - and is no known option

    return (len(word) > 1 and word[0] == "-" and " " not in word
            and not re.match(r"^-\d+$|^-\d*\.\d+$", word))


def _parse_args(argv: list[str] | None = None) -> SimpleNamespace:
    """The namespace of a command line, read as argparse reads it less abbreviations.
    Unknown words fail once all is read, so a later -h still prints the help."""
    words = list(sys.argv[1:] if argv is None else argv)
    values, unknown, path, level, i = {"command": None}, [], (), None, 0
    while path != level:  # a level: before the group, before the command, the command's own
        level = path
        arguments = _arguments(path)
        values.update((_dest(n), d) for n, _, d in arguments if d is not REQUIRED)
        options = {"-h": _HELP, "--help": _HELP} | {a[0]: a for a in arguments if a[0][0] == "-"}
        positionals = [a for a in arguments if a[0][0] != "-"]
        missing = [a[0] for a in arguments if a[2] is REQUIRED]
        while i < len(words) and path == level:
            word, i = words[i], i + 1
            option, equals, text = word.partition("=") if _is_option(word, options) \
                else ("", "", word)
            argument = options.get(option) if option else positionals and positionals.pop(0)
            if not argument:
                unknown.append(word)
                continue
            name, convert, _ = argument
            if convert is None:  # a flag
                if equals:
                    _fail(path, f"argument {option}: ignored explicit argument {text!r}")
                if argument is _HELP:
                    print("\n".join([_usage(()), ""] + [
                        f"  {_synopsis(key)}\n      {entry[1]}"
                        for key, entry in COMMANDS.items() if key[:len(path)] == path]))
                    raise SystemExit(0)
                values[_dest(name)] = True
                continue
            if option and not equals:
                if i == len(words) or _is_option(words[i], options):
                    _fail(path, f"argument {option}: expected one argument")
                text, i = words[i], i + 1
            try:
                value = type(convert[0])(text) if isinstance(convert, tuple) else convert(text)
                if isinstance(convert, tuple) and value not in convert:
                    raise ValueError(f"invalid choice {value!r}, choose from {convert}")
            except ValueError as exc:
                _fail(path, f"argument {name}: {exc}")
            values[_dest(name)] = value
            missing = [m for m in missing if m != name]
            if name in ("group", "command"):
                path = (value, None) if (value, None) in COMMANDS else (*path, value)
    if missing or unknown:
        _fail(path, f"the following arguments are required: {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(unknown)}")
    return SimpleNamespace(handler=COMMANDS[path][0], **values)


def build_parser() -> SimpleNamespace:
    """The parser: ``parse_args(argv=sys.argv[1:])`` gives the handlers' namespace."""
    return SimpleNamespace(parse_args=_parse_args)


# -- dispatch ---------------------------------------------------------------------


def dispatch(args: SimpleNamespace):
    """Run the handler the parser bound to the subcommand."""
    return args.handler(args)


def _write_output(path: str, pieces: list[str]) -> None:
    """Write ``pieces`` to ``path``, all of them or, where a write fails, none.

    A regular or new file, symlinks followed, is written as a temporary file
    beside it that takes the replaced file's mode and replaces it once whole.
    A device or pipe (``/dev/stdout``, whose /proc link does not resolve, told
    apart on the path as given) is written in place."""
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


def _io_message(exc: OSError) -> str:
    """``str(exc)`` with its paths quoted through ``shown``, so a long path
    leaves the error line short."""
    paths = [shown(path) for path in (exc.filename, exc.filename2) if path is not None]
    return f"[Errno {exc.errno}] {exc.strerror}: {' -> '.join(paths)}" if paths else str(exc)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = dispatch(args)
        if args.output == "-":
            if sys.stdout is None:  # started with stdout closed
                raise OSError("standard output is closed")
            emit_report(result, args.format, sys.stdout)
        else:
            _write_output(args.output, report_pieces(result, args.format))
    except (HyperlabError, OSError) as exc:
        import json

        if isinstance(exc, HyperlabError):
            kind, message = exc.kind, str(exc)
        else:
            kind, message = "io-error", _io_message(exc)
        print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
