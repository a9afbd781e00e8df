"""Command line front end.

Every subcommand reads JSON-ish arguments, prints a single JSON object on
stdout, and exits 0 on success, 1 on a domain failure (invalid data,
inadmissible input, unconverged integral, a failed linking check, memory
exhausted, a result too large to print or a fiber too large to list), or
2 on a usage error.  All exact integers in payloads are decimal strings;
the EMB7_ENUM_CAP environment variable overrides the enumeration guard
and nothing else is read from the environment.

One table, `COMMANDS`, holds each command's handler and its arguments,
drawn from a few argument kinds.  `fast_parse` reads a well-formed argv
straight from it; only help, usage and errors import argparse and build a
parser, which holds just the command that argv names and is the only
source of their text.

A call pays only for its own command: each handler imports only the emb7
modules it runs, and `import emb7` re-exports nothing.  Each input is
decoded once, one pass per array.  A manifold file is read on every call
but decoded and validated only when its text is not the last valid one:
in process on the benchmark's manifolds, `classify equal` takes 0.12 ms
and `fiber --enumerate` 0.07 ms, against 0.18 and 0.14 ms when each call
decoded and validated its file.  Cold, these and `k-group` take 25-27
ms, against 20 ms for `python -c "import json"` (README).
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
import types

from .resolution import DEFAULT_RESOLUTION, MAX_RESOLUTION


class DomainError(Exception):
    """Carries an exit-1 JSON payload."""

    def __init__(self, payload):
        super().__init__(str(payload))
        self.payload = payload


def _load_manifold(source: str):
    from . import manifolds
    if source in manifolds.BUILTIN_NAMES:
        return manifolds.builtin(source)
    with open(source) as fh:  # read on every call: an edited file is seen
        return _decode_manifold(fh.read())


@functools.lru_cache(maxsize=1)  # the last valid text; errors are not kept
def _decode_manifold(text: str):
    from . import manifolds
    obj = _json_loads(text)
    try:
        data = manifolds.from_json(obj)
    except ValueError as exc:  # printed as main prints a ValueError
        raise DomainError({"error": str(exc)})
    if violations := manifolds.validate(data):
        raise DomainError({"error": "manifold data is invalid",
                           "violations": violations})
    return data


def _json_loads(text: str):
    """json.loads, with nesting too deep for the decoder reported as the
    JSONDecodeError that other malformed JSON gets, and a number with more
    digits than Python converts as `jsonio.decode_int` reports it."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nesting too deep", text, 0) from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        # only int() raises anything else: parse again, numbers through
        # decode_int, which names the digit count and the limit
        from . import jsonio
        return json.loads(text, parse_int=jsonio.decode_int)


def _type_error(message: str) -> Exception:
    """The error a `type` raises: argparse loads only on the way to one."""
    import argparse
    return argparse.ArgumentTypeError(message)


def _parse_json_arg(text: str):
    try:
        return _json_loads(text)
    except json.JSONDecodeError as exc:
        raise _type_error(f"not valid JSON: {exc}")


def _vector(text: str) -> tuple:
    from . import jsonio
    return jsonio.decode_vector(_parse_json_arg(text))


def _matrix(text: str):
    from . import jsonio
    return jsonio.decode_matrix(_parse_json_arg(text))


def _move(text: str):
    from . import moves
    parts = text.split(",")
    if len(parts) < 2:
        raise _type_error(
            "move format is s_1,...,s_b1,l,b (comma separated integers)")
    try:
        nums = [int(p, 10) for p in parts]
    except ValueError:
        raise _type_error("move entries must be integers")
    return moves.Move(s=tuple(nums[:-2]), l=nums[-2], b=nums[-1])


def _class_arg(text: str) -> dict:
    obj = _parse_json_arg(text)
    if not isinstance(obj, dict) or "u" not in obj or "L" not in obj:
        raise _type_error(
            'embedding class must be a JSON object with "u" and "L"')
    return obj


def _bounded_int(low: int, high=None):
    def parse(text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise _type_error(f"not an integer: {text!r}")
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise _type_error(f"{value} is not {span}")
        return value

    return parse


def _class_payload(data, obj: dict, fiber=None):
    """The class that `obj` gives.  When it has the same u and L as the
    class `fiber`, which passed `classify.embedding_class`, only its beta
    is checked."""
    from . import classify, jsonio
    u = jsonio.decode_vector(obj["u"])
    L = jsonio.decode_matrix(obj["L"], cols=data.b1)
    beta = obj.get("beta")
    beta = None if beta is None else jsonio.decode_vector(beta)
    if fiber is not None and u == fiber.u and L == fiber.L:
        return classify.same_fiber_class(data, fiber, beta)
    return classify.embedding_class(data, u, L, beta)


def _encode_class(cls) -> dict:
    from . import jsonio
    return {
        "u": jsonio.encode_vector(cls.u),
        "L": jsonio.encode_matrix(cls.L),
        "beta": None if cls.beta is None else jsonio.encode_vector(cls.beta),
        "beta_known": cls.beta_known,
    }


def _enum_cap() -> int:
    from . import invariants
    raw = os.environ.get("EMB7_ENUM_CAP")
    if not raw:
        return invariants.DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"EMB7_ENUM_CAP must be a decimal integer, got {raw!r}") from None


def _size_str(size) -> str:
    from . import jsonio
    return "infinite" if size is None else jsonio.encode_int(size)


# --- subcommand handlers: return (payload, exit_code) ---------------------


def _cmd_validate(args):
    try:
        with open(args.file) as fh:
            _decode_manifold(fh.read())
    except DomainError as exc:  # a from_json error, or the violations
        return {"valid": False, "violations": exc.payload.get(
            "violations", [exc.payload["error"]])}, 1
    return {"valid": True}, 0


def _cmd_kappa_check(args):
    from . import invariants
    data = _load_manifold(args.manifold)
    return {"admissible": invariants.is_kappa_admissible(data, args.u)}, 0


def _cmd_kappa_enum(args):
    from . import invariants, jsonio
    data = _load_manifold(args.manifold)
    values = invariants.enumerate_kappa(data, args.bound, cap=_enum_cap())
    return {"values": [jsonio.encode_vector(u) for u in values]}, 0


def _cmd_sym_check(args):
    from . import invariants
    data = _load_manifold(args.manifold)
    return {"symmetric": invariants.is_symmetric_pair(data, args.u, args.L)}, 0


def _cmd_k_group(args):
    from . import invariants, jsonio
    data = _load_manifold(args.manifold)
    kg = invariants.k_group(data, args.u, args.L)
    return {
        "factors": jsonio.encode_vector(kg.group.invariant_factors),
        "d": jsonio.encode_int(kg.d),
        "size": _size_str(kg.size()),
    }, 0


def _cmd_whitney(args):
    from . import invariants, jsonio
    data = _load_manifold(args.manifold)
    return {"W": jsonio.encode_vector(invariants.whitney_w(data, args.L))}, 0


def _cmd_reghom(args):
    from . import invariants
    eq = invariants.regular_homotopy_equivalent(args.L0, args.L1)
    return {"equivalent": eq}, 0


def _cmd_compress_check(args):
    from . import invariants
    ok = invariants.compression_obstruction(args.u, args.L)
    return {"necessary_condition": ok,
            "note": "necessary for compressibility, not sufficient"}, 0


def _cmd_move_apply(args):
    from . import classify, moves
    data = _load_manifold(args.manifold)
    cls = _class_payload(data, args.cls)
    out = moves.apply_move(data, cls, args.move)
    return {"class": _encode_class(out), "note": classify.BASEPOINT_NOTE}, 0


def _cmd_decompose(args):
    from . import jsonio, moves
    data = _load_manifold(args.manifold)
    out = moves.decompose_symmetric_form(data, args.form)
    return {"moves": [{"s": jsonio.encode_vector(s),
                       "l": jsonio.encode_int(l)}
                      for s, l in out]}, 0


def _cmd_tau(args):
    from . import jsonio, moves
    if args.op == "normal-form":
        l, b = moves.tau_normal_form(args.l, args.b)
    elif args.op == "equal":
        return {"equal": moves.tau_equal(args.l, args.b, args.lp, args.bp)}, 0
    else:
        l, b = moves.tau_compose(args.l, args.b, args.lp, args.bp)
    return {"l": jsonio.encode_int(l), "b": jsonio.encode_int(b)}, 0


def _cmd_classify_equal(args):
    from . import classify
    data = _load_manifold(args.manifold)
    c1 = _class_payload(data, args.class1)
    c2 = _class_payload(data, args.class2, fiber=c1)
    eq = classify.classes_equal(data, c1, c2)
    return {"equal": eq, "note": classify.BASEPOINT_NOTE}, 0


def _cmd_fiber(args):
    from . import classify, jsonio
    data = _load_manifold(args.manifold)
    u = args.u if args.u is not None else (0,) * data.b2
    if args.enumerate:
        enum = classify.enumerate_fiber(data, u, args.L, cap=args.cap,
                                        max_entries=MAX_LISTED)
        kg = enum.fiber_group
    else:
        kg = classify.fiber_group(data, u, args.L)
    payload = {
        "factors": jsonio.encode_vector(kg.group.invariant_factors),
        "size": _size_str(kg.size()),
    }
    if args.enumerate:
        payload["classes"] = [jsonio.encode_vector(r)
                              for r in enum.representatives]
        payload["truncated"] = enum.truncated
        payload["note"] = classify.BASEPOINT_NOTE
    return payload, 0


def _cmd_link_tau(args):
    from . import linking  # numpy: no other command loads it

    try:
        report = linking.verify_lambda_tau(args.l, args.b,
                                           resolution=args.resolution)
    except (linking.SeparationError, linking.UnconvergedError) as exc:
        return {"error": str(exc)}, 1
    return {
        "estimate": report.estimate,
        "value": report.value,
        "residual": report.residual,
        "pass": report.passed,
    }, 0 if report.passed else 1


def _cmd_snf(args):
    from . import exact, jsonio
    res = exact.smith_normal_form(args.matrix)
    return {"U": jsonio.encode_matrix(res.U),
            "D": jsonio.encode_matrix(res.D),
            "V": jsonio.encode_matrix(res.V)}, 0


# --- the command table -----------------------------------------------------

# Each kind of argument once, as a flag and the keywords of its add_argument
# call; a kind that several flags share is a function of the flag and of the
# keywords that differ.


# Most integers (classes times b1) `fiber --enumerate` lists: the largest
# listing, at b1 = 1, peaks at about 140 MB.
MAX_LISTED = 500_000


def _kind(**keywords):
    return lambda flag, **kw: (flag, {**keywords, **kw})


def _bounded(flag, low, high=None, **kw):
    return flag, {"type": _bounded_int(low, high), **kw}


_FILE = ("file", {})
_MANIFOLD = ("--manifold", {
    "required": True, "help": "builtin name or path to a manifold JSON file"})
_MOVE = ("--move", {"type": _move, "required": True,
                    "help": "comma separated s_1,...,s_b1,l,b"})
_VECTOR = _kind(type=_vector, required=True)
_MATRIX = _kind(type=_matrix, required=True)
_CLASS = _kind(type=_class_arg, required=True)
_INT = _kind(type=int)
_U, _L = _VECTOR("--u"), _MATRIX("--L")
_TAU = (_INT("l"), _INT("b"))
_TAU_PAIR = _TAU + (_INT("lp"), _INT("bp"))

# One entry per command: its name, its help (None for none), its handler and
# its arguments.  A group gives its operations, in the same form, in place of
# the handler, and no arguments.
COMMANDS = (
    ("validate", "validate manifold data JSON", _cmd_validate, (_FILE,)),
    ("kappa-check", "test admissibility of a kappa value", _cmd_kappa_check,
     (_MANIFOLD, _U)),
    ("kappa-enum", "enumerate admissible kappa values in a box",
     _cmd_kappa_enum, (_MANIFOLD, _INT("--bound", required=True))),
    ("sym-check", "test the u-symmetry of a lambda form", _cmd_sym_check,
     (_MANIFOLD, _U, _L)),
    ("k-group", "beta value group of a (u, L) fiber", _cmd_k_group,
     (_MANIFOLD, _U, _L)),
    ("whitney", "mod-2 diagonal class W of a lambda form", _cmd_whitney,
     (_MANIFOLD, _L)),
    ("reghom", "regular homotopy criterion for two forms", _cmd_reghom,
     (_MATRIX("--L0"), _MATRIX("--L1"))),
    ("compress-check", "necessary condition for compressing into R^6",
     _cmd_compress_check, (_U, _L)),
    ("move", "parametric connected sum operations", (
        ("apply", "apply a move to a class", _cmd_move_apply, (
            _MANIFOLD,
            _CLASS("--class", dest="cls", help='embedding class JSON '
                   '{"u": [...], "L": [[...]], "beta": [...]}'),
            _MOVE)),), ()),
    ("decompose", "decompose a symmetric form into moves", _cmd_decompose,
     (_MANIFOLD, _MATRIX("--form"))),
    ("tau", "torus class calculus on S^1 x S^3", (
        ("normal-form", None, _cmd_tau, _TAU),
        ("equal", None, _cmd_tau, _TAU_PAIR),
        ("compose", None, _cmd_tau, _TAU_PAIR)), ()),
    ("classify", "decide equality of embedding classes", (
        ("equal", None, _cmd_classify_equal,
         (_MANIFOLD, _CLASS("--class1"), _CLASS("--class2"))),), ()),
    ("fiber", "fiber group and classes over (u, L)", _cmd_fiber, (
        _MANIFOLD,
        _VECTOR("--u", required=False, default=None,
                help="kappa value (defaults to the zero vector)"),
        _L,
        ("--enumerate", {"action": "store_true"}),
        _bounded("--cap", 0, MAX_LISTED, default=None))),
    ("link", "numerical linking numbers", (
        ("tau", "verify the fiber linking of tau(l, b)", _cmd_link_tau, (
            _bounded("--l", -1000, 1000, required=True),
            _INT("--b", required=True,
                 help="the b of the class tau(l, b); it does not change "
                      "what is computed, because the fibers see only x^l"),
            _bounded("--resolution", 1, MAX_RESOLUTION,
                     default=DEFAULT_RESOLUTION,
                     help=f"quadrature resolution, at most {MAX_RESOLUTION}; "
                          "the node pairs grow as its cube"))),), ()),
    ("snf", "Smith normal form of an integer matrix", _cmd_snf,
     (_MATRIX("--matrix"),)),
)


def _add_commands(sub, commands) -> None:
    for name, text, handler, arguments in commands:
        p = (sub.add_parser(name) if text is None
             else sub.add_parser(name, help=text))
        if callable(handler):
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
            p.set_defaults(handler=handler)
        else:
            _add_commands(p.add_subparsers(dest="op", required=True), handler)


# argparse's test for a word that starts with "-" and is still a value
_NEGATIVE_NUMBER = re.compile(r'^-\d+$|^-\d*\.\d+$')


def fast_parse(argv):
    """The namespace `build_parser(argv).parse_args(argv)` gives, read from
    `COMMANDS` without argparse, when argv is well-formed: a command, its
    operation if it is a group, its own flags each spelled out once with
    one value (a store_true flag with none), then its positionals in order,
    and a value starts with "-" only as a negative number.  Values go
    through their `type` and absent arguments get their default, as
    `add_argument` does for the keywords the table uses.  Any other argv,
    or an exception from a `type`, gives None, and the parser decides."""
    ns, commands, words = {}, COMMANDS, iter(argv)
    for dest in ("command", "op"):
        word = next(words, None)
        entry = next((c for c in commands if c[0] == word), None)
        if entry is None:
            return None
        ns[dest] = word
        _, _, handler, arguments = entry
        if callable(handler):
            break
        commands = handler
    else:
        return None
    flags = {a: kw for a, kw in arguments if a.startswith("-")}
    positionals = [a for a, _ in arguments if a not in flags]
    given = {}
    for word in words:
        if word in flags and word not in given:
            if flags[word].get("action") == "store_true":
                given[word] = True
                continue
            # a flag that ends argv reads "-", which is no value
            name, word = word, next(words, "-")
        elif positionals and word not in flags:
            name = positionals.pop(0)
        else:
            return None
        if word.startswith("-") and not _NEGATIVE_NUMBER.match(word):
            return None
        given[name] = word
    for name, keywords in arguments:
        kind = keywords.get("type")
        if name in given:
            value = given[name]
            if kind is not None:
                try:
                    value = kind(value)
                except Exception:  # the parser reports it, or raises it
                    return None
        elif keywords.get("required") or name not in flags:
            return None
        else:
            store_true = keywords.get("action") == "store_true"
            value = keywords.get("default", False if store_true else None)
        ns[keywords.get("dest", name.lstrip("-"))] = value
    ns["handler"] = handler
    return types.SimpleNamespace(**ns)


def build_parser(argv=None):
    """The parser for `argv`.  When argv[0] names a command, only that
    command is added; otherwise (no argv, -h, an unknown command) all are.
    For any argv both parsers give the same result and the same output."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="emb7",
        description="Classification calculus for embeddings of 4-manifolds "
                    "in 7-space modulo knots")
    sub = parser.add_subparsers(dest="command", required=True)
    named = [c for c in COMMANDS if argv and c[0] == argv[0]]
    if named:
        # usage lines list every command, as the full parser's do; the full
        # parser keeps no metavar, which would rename the action in errors
        sub.metavar = "{" + ",".join(c[0] for c in COMMANDS) + "}"
    _add_commands(sub, named or COMMANDS)
    return parser


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = fast_parse(argv)
    if args is None:
        try:
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
    except DomainError as exc:
        _emit(exc.payload)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"emb7: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # classify.BetaUnknownError among them
        _emit({"error": str(exc)})
        return 1
    except MemoryError:
        _emit({"error": "out of memory"})
        return 1
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
