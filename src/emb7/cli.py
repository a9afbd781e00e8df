"""Command line front end.

Every subcommand reads JSON-ish arguments, prints a single JSON object on
stdout, and exits 0 on success, 1 on a domain failure (invalid data,
inadmissible input, unconverged integral, a failed linking check, memory
exhausted, a result too large to print or a fiber too large to list), or
2 on a usage error.  All exact integers in payloads are decimal strings;
the EMB7_ENUM_CAP environment variable overrides the enumeration guard
and nothing else is read from the environment.

One table, `COMMANDS`, holds each command's handler, its help and its
arguments, drawn from a few argument kinds.  `parse` reads argv from it,
and help, usage lines and error messages are written from it too.

A call pays only for its own command: each handler imports only the emb7
modules it runs, and `import emb7` re-exports nothing.  Each input is
decoded once, one pass per array.  A manifold file is read on every call
but decoded and validated only when its text is not the last valid one,
and `classify equal` checks a fiber only when `classify.fiber_basis` does
not hold it.  The README gives the cost of each, in process and cold.
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


def _parse_json_arg(text: str):
    try:
        return _json_loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}")


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
        raise ValueError(
            "move format is s_1,...,s_b1,l,b (comma separated integers)")
    try:
        nums = [int(p, 10) for p in parts]
    except ValueError:
        raise ValueError("move entries must be integers")
    return moves.Move(s=tuple(nums[:-2]), l=nums[-2], b=nums[-1])


def _class_arg(text: str) -> dict:
    obj = _parse_json_arg(text)
    if not isinstance(obj, dict) or "u" not in obj or "L" not in obj:
        raise ValueError(
            'embedding class must be a JSON object with "u" and "L"')
    return obj


def _bounded_int(low: int, high: int):
    def bounded(text: str) -> int:
        value = int(text, 10)
        if not low <= value <= high:
            raise ValueError(f"{value} is not in [{low}, {high}]")
        return value

    return bounded


def _class_payload(data, obj: dict):
    """The class that `obj` gives."""
    from . import classify, jsonio
    u = jsonio.decode_vector(obj["u"])
    L = jsonio.decode_matrix(obj["L"], cols=data.b1)
    beta = obj.get("beta")
    beta = None if beta is None else jsonio.decode_vector(beta)
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
        "factors": jsonio.encode_vector(kg.factors),
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
    c2 = _class_payload(data, args.class2)
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
        "factors": jsonio.encode_vector(kg.factors),
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
        report = linking.verify_lambda_tau(args.l, resolution=args.resolution)
    except linking.UnconvergedError as exc:
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

# Most integers (classes times b1) `fiber --enumerate` lists: the largest
# listing, at b1 = 1, peaks at about 140 MB.
MAX_LISTED = 500_000


def _kind(**keywords):
    return lambda flag, **kw: (flag, {**keywords, **kw})


def _bounded(flag, low, high, **kw):
    return flag, {"type": _bounded_int(low, high), **kw}


# Each kind of argument once, as its flag (or a positional's name) and its
# keywords; a kind that several flags share is a function of the flag.
# `type` decodes the value word (kept as is without one), `dest` names it in
# the namespace (the flag without dashes), a store_true `action` takes no
# value.  An argument with a `default` is optional, every other required.
_MANIFOLD = ("--manifold", {
    "help": "builtin name or path to a manifold JSON file"})
_MOVE = ("--move", {"type": _move,
                    "help": "comma separated s_1,...,s_b1,l,b"})
_VECTOR = _kind(type=_vector)
_MATRIX = _kind(type=_matrix)
_CLASS = _kind(type=_class_arg)
_INT = _kind(type=int)
_U, _L = _VECTOR("--u"), _MATRIX("--L")
_TAU = (_INT("l"), _INT("b"))
_TAU_PAIR = _TAU + (_INT("lp"), _INT("bp"))

# One entry per command: its name, its help (None for none), its handler and
# its arguments.  A group gives its operations, in the same form, in place of
# the handler, and no arguments.
COMMANDS = (
    ("validate", "validate manifold data JSON", _cmd_validate,
     (("file", {}),)),
    ("kappa-check", "test admissibility of a kappa value", _cmd_kappa_check,
     (_MANIFOLD, _U)),
    ("kappa-enum", "enumerate admissible kappa values in a box",
     _cmd_kappa_enum, (_MANIFOLD, _INT("--bound"))),
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
        _VECTOR("--u", default=None,
                help="kappa value (defaults to the zero vector)"),
        _L,
        ("--enumerate", {"action": "store_true", "default": False}),
        _bounded("--cap", 0, MAX_LISTED, default=None))),
    ("link", "numerical linking numbers", (
        ("tau", "verify the fiber linking of tau(l, b)", _cmd_link_tau, (
            _bounded("--l", -1000, 1000),
            _INT("--b", help="the b of the class tau(l, b); it does not "
                 "change what is computed, because the fibers see only x^l"),
            _bounded("--resolution", 1, MAX_RESOLUTION,
                     default=DEFAULT_RESOLUTION,
                     help=f"quadrature resolution, at most {MAX_RESOLUTION}; "
                          "the node pairs grow as its cube"))),), ()),
    ("snf", "Smith normal form of an integer matrix", _cmd_snf,
     (_MATRIX("--matrix"),)),
)


# The root of the table, as `_node` walks it, with COMMANDS as its handler.
_ROOT = (None, "classification calculus for embeddings of 4-manifolds in "
         "7-space modulo knots", COMMANDS, ())
# A word that starts with "-" and is no value: all but "-" alone and a
# negative number (the number pattern matches "-7\n" and "-\u0663" too).
_FLAG = re.compile(r'-(?!$|\d+$|\d*\.\d+$)')


class UsageError(Exception):
    """An argv that `parse` refuses: its args are the command path read so
    far and the message, None for -h or --help, which ask for help."""


def parse(argv):
    """The namespace of the command that argv names, read from `COMMANDS`:
    a command, its operation if it is a group, then the leaf's flags and
    positionals in any order, each flag spelled out once with one value
    (none if store_true), the positionals in table order.  A value starts
    with "-" only as "-" or a negative number; it goes through its `type`
    as it is read, and an absent argument gets its default.  Any other
    argv raises UsageError, `--flag=value`, an abbreviated flag and `--`
    among them.  An unknown or repeated flag, an extra word or a missing
    argument is reported after the last word, so a later -h still asks
    for help."""
    path, extras, given, words = [], [], {}, iter(argv)
    _, _, handler, arguments = _ROOT
    flags, positionals = {}, []
    for word in words:
        if word in flags and word not in given:
            name, keywords = word, flags[word]
            if keywords.get("action") == "store_true":
                given[name] = True
                continue
            word = next(words, "--")  # a flag that ends argv has no value
            if _FLAG.match(word):
                raise UsageError(path, f"argument {name}: expected one "
                                       "argument")
        elif word in ("-h", "--help"):
            raise UsageError(path, None)
        elif _FLAG.match(word) or callable(handler) and not positionals:
            extras.append(word)
            continue
        elif callable(handler):
            name, keywords = positionals.pop(0)
        else:  # the command, or the operation of a group
            entry = next((c for c in handler if c[0] == word), None)
            if entry is None:
                dest = "op" if path else "command"
                raise UsageError(path, f"argument {dest}: invalid choice: "
                                       f"{word!r}")
            path.append(word)
            _, _, handler, arguments = entry
            flags = {a: kw for a, kw in arguments if a.startswith("-")}
            positionals = [a for a in arguments if a[0] not in flags]
            continue
        try:
            given[name] = keywords.get("type", str)(word)
        except (TypeError, ValueError) as exc:
            raise UsageError(path, f"argument {name}: {exc}") from None
    if extras:
        raise UsageError(path, "unrecognized arguments: "
                               + " ".join(map(repr, extras)))
    if not callable(handler):  # argv ended before the command or operation
        raise UsageError(path, "the following arguments are required: "
                               + ("op" if path else "command"))
    if missing := [a for a, kw in arguments
                   if a not in given and "default" not in kw]:
        raise UsageError(path, "the following arguments are required: "
                               + ", ".join(missing))
    ns = dict(zip(("command", "op"), path), handler=handler)
    for name, keywords in arguments:
        ns[keywords.get("dest", name.lstrip("-"))] = given.get(
            name, keywords.get("default"))
    return types.SimpleNamespace(**ns)


def _node(path):
    """The table entry that `path` names; `_ROOT` for no path."""
    node = _ROOT
    for word in path:
        node = next(c for c in node[2] if c[0] == word)
    return node


def _usage_word(name: str, keywords: dict) -> str:
    if name.startswith("-") and keywords.get("action") != "store_true":
        name += " " + name.lstrip("-").upper()
    return f"[{name}]" if "default" in keywords else name


def _usage(path) -> str:
    _, _, handler, arguments = _node(path)
    words = ([_usage_word(*a) for a in arguments] if callable(handler)
             else ["{" + ",".join(c[0] for c in handler) + "}", "..."])
    return " ".join(["usage: emb7", *path, "[-h]", *words])


def _help(path) -> str:
    """The usage line, the help of `path` and a line per entry under it."""
    _, text, handler, arguments = _node(path)
    rows = ([(name, kw.get("help")) for name, kw in arguments]
            if callable(handler) else [c[:2] for c in handler])
    lines = [_usage(path), text or ""]
    lines += [f"  {name:<16} {doc or ''}".rstrip() for name, doc in rows]
    return "\n".join(lines) + "\n"


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        path, message = exc.args
        if message is None:
            sys.stdout.write(_help(path))
            return 0
        prog = " ".join(["emb7", *path])
        sys.stderr.write(f"{_usage(path)}\n{prog}: error: {message}\n")
        return 2
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
