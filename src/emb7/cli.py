"""Command line front end.

Every subcommand reads JSON-ish arguments, prints a single JSON object on
stdout, and exits 0 on success, 1 on a domain failure (invalid data,
inadmissible input, unconverged integral), or 2 on a usage error.  All
exact integers in payloads are decimal strings; the EMB7_ENUM_CAP
environment variable overrides the enumeration guard and nothing else is
read from the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import classify, invariants, jsonio, linking, manifolds, moves
from .exact import IntMatrix, smith_normal_form


class DomainError(Exception):
    """Carries an exit-1 JSON payload."""

    def __init__(self, payload):
        super().__init__(str(payload))
        self.payload = payload


def _load_manifold(source: str) -> manifolds.ManifoldData:
    if source in manifolds.BUILTIN_NAMES:
        return manifolds.builtin(source)
    if not os.path.exists(source):
        raise FileNotFoundError(source)
    with open(source) as fh:
        data = manifolds.from_json(json.load(fh))
    violations = manifolds.validate(data)
    if violations:
        raise DomainError({"error": "manifold data is invalid",
                           "violations": violations})
    return data


def _parse_json_arg(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"not valid JSON: {exc}")


def _vector(text: str) -> tuple:
    return jsonio.decode_vector(_parse_json_arg(text))


def _matrix(text: str) -> IntMatrix:
    return jsonio.decode_matrix(_parse_json_arg(text))


def _move(text: str) -> moves.Move:
    parts = text.split(",")
    if len(parts) < 2:
        raise argparse.ArgumentTypeError(
            "move format is s_1,...,s_b1,l,b (comma separated integers)")
    try:
        nums = [int(p, 10) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("move entries must be integers")
    return moves.Move(s=tuple(nums[:-2]), l=nums[-2], b=nums[-1])


def _class_arg(text: str) -> dict:
    obj = _parse_json_arg(text)
    if not isinstance(obj, dict) or "u" not in obj or "L" not in obj:
        raise argparse.ArgumentTypeError(
            'embedding class must be a JSON object with "u" and "L"')
    return obj


def _bounded_int(low: int, high=None):
    def parse(text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low or (high is not None and value > high):
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"{value} is not {span}")
        return value

    return parse


def _class_payload(data: manifolds.ManifoldData,
                   obj: dict) -> classify.EmbeddingClass:
    beta = obj.get("beta")
    return classify.embedding_class(
        data,
        u=jsonio.decode_vector(obj["u"]),
        L=jsonio.decode_matrix(obj["L"], cols=data.b1),
        beta=None if beta is None else jsonio.decode_vector(beta))


def _encode_class(cls: classify.EmbeddingClass) -> dict:
    return {
        "u": jsonio.encode_vector(cls.u),
        "L": jsonio.encode_matrix(cls.L),
        "beta": None if cls.beta is None else jsonio.encode_vector(cls.beta),
        "beta_known": cls.beta_known,
    }


def _enum_cap() -> int:
    raw = os.environ.get("EMB7_ENUM_CAP")
    return int(raw) if raw else invariants.DEFAULT_ENUM_CAP


def _size_str(size) -> str:
    return "infinite" if size is None else str(size)


# --- subcommand handlers: return (payload, exit_code) ---------------------


def _cmd_validate(args):
    with open(args.file) as fh:
        obj = json.load(fh)
    try:
        data = manifolds.from_json(obj)
    except ValueError as exc:
        return {"valid": False, "violations": [str(exc)]}, 1
    violations = manifolds.validate(data)
    if violations:
        return {"valid": False, "violations": violations}, 1
    return {"valid": True}, 0


def _cmd_kappa_check(args):
    data = _load_manifold(args.manifold)
    return {"admissible": invariants.is_kappa_admissible(data, args.u)}, 0


def _cmd_kappa_enum(args):
    data = _load_manifold(args.manifold)
    values = invariants.enumerate_kappa(data, args.bound, cap=_enum_cap())
    return {"values": [jsonio.encode_vector(u) for u in values]}, 0


def _cmd_sym_check(args):
    data = _load_manifold(args.manifold)
    return {"symmetric": invariants.is_symmetric_pair(data, args.u, args.L)}, 0


def _cmd_k_group(args):
    data = _load_manifold(args.manifold)
    kg = invariants.k_group(data, args.u, args.L)
    return {
        "factors": [str(f) for f in kg.group.invariant_factors],
        "d": str(kg.d),
        "size": _size_str(kg.size()),
    }, 0


def _cmd_whitney(args):
    data = _load_manifold(args.manifold)
    return {"W": jsonio.encode_vector(invariants.whitney_w(data, args.L))}, 0


def _cmd_reghom(args):
    eq = invariants.regular_homotopy_equivalent(args.L0, args.L1)
    return {"equivalent": eq}, 0


def _cmd_compress_check(args):
    ok = invariants.compression_obstruction(args.u, args.L)
    return {"necessary_condition": ok,
            "note": "necessary for compressibility, not sufficient"}, 0


def _cmd_move_apply(args):
    data = _load_manifold(args.manifold)
    cls = _class_payload(data, args.cls)
    out = moves.apply_move(data, cls, args.move)
    return {"class": _encode_class(out), "note": classify.BASEPOINT_NOTE}, 0


def _cmd_decompose(args):
    data = _load_manifold(args.manifold)
    out = moves.decompose_symmetric_form(data, args.form)
    return {"moves": [{"s": jsonio.encode_vector(s), "l": str(l)}
                      for s, l in out]}, 0


def _cmd_tau(args):
    if args.op == "normal-form":
        l, b = moves.tau_normal_form(args.l, args.b)
        return {"l": str(l), "b": str(b)}, 0
    if args.op == "equal":
        return {"equal": moves.tau_equal(args.l, args.b, args.lp, args.bp)}, 0
    l, b = moves.tau_compose(args.l, args.b, args.lp, args.bp)
    return {"l": str(l), "b": str(b)}, 0


def _cmd_classify_equal(args):
    data = _load_manifold(args.manifold)
    c1 = _class_payload(data, args.class1)
    c2 = _class_payload(data, args.class2)
    eq = classify.classes_equal(data, c1, c2)
    return {"equal": eq, "note": classify.BASEPOINT_NOTE}, 0


def _cmd_fiber(args):
    data = _load_manifold(args.manifold)
    u = args.u if args.u is not None else (0,) * data.b2
    kg = classify.fiber_group(data, u, args.L)
    factors = [str(f) for f in kg.group.invariant_factors]
    payload = {
        "factors": factors,
        "group": {"factors": factors},
        "size": _size_str(kg.size()),
    }
    if args.enumerate:
        enum = classify.enumerate_fiber(data, u, args.L, cap=args.cap)
        payload["classes"] = [jsonio.encode_vector(r)
                              for r in enum.representatives]
        payload["truncated"] = enum.truncated
        payload["note"] = classify.BASEPOINT_NOTE
    return payload, 0


def _cmd_link_tau(args):
    report = linking.verify_lambda_tau(args.l, args.b,
                                       resolution=args.resolution)
    return {
        "estimate": report.estimate,
        "value": report.value,
        "residual": report.residual,
        "pass": report.passed,
    }, 0


def _cmd_snf(args):
    res = smith_normal_form(args.matrix)
    return {"U": jsonio.encode_matrix(res.U),
            "D": jsonio.encode_matrix(res.D),
            "V": jsonio.encode_matrix(res.V)}, 0


def _add_manifold_arg(p):
    p.add_argument("--manifold", required=True,
                   help="builtin name or path to a manifold JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emb7",
        description="Classification calculus for embeddings of 4-manifolds "
                    "in 7-space modulo knots")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate manifold data JSON")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("kappa-check", help="test admissibility of a kappa value")
    _add_manifold_arg(p)
    p.add_argument("--u", type=_vector, required=True)
    p.set_defaults(handler=_cmd_kappa_check)

    p = sub.add_parser("kappa-enum", help="enumerate admissible kappa values in a box")
    _add_manifold_arg(p)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(handler=_cmd_kappa_enum)

    p = sub.add_parser("sym-check", help="test the u-symmetry of a lambda form")
    _add_manifold_arg(p)
    p.add_argument("--u", type=_vector, required=True)
    p.add_argument("--L", type=_matrix, required=True)
    p.set_defaults(handler=_cmd_sym_check)

    p = sub.add_parser("k-group", help="beta value group of a (u, L) fiber")
    _add_manifold_arg(p)
    p.add_argument("--u", type=_vector, required=True)
    p.add_argument("--L", type=_matrix, required=True)
    p.set_defaults(handler=_cmd_k_group)

    p = sub.add_parser("whitney", help="mod-2 diagonal class W of a lambda form")
    _add_manifold_arg(p)
    p.add_argument("--L", type=_matrix, required=True)
    p.set_defaults(handler=_cmd_whitney)

    p = sub.add_parser("reghom", help="regular homotopy criterion for two forms")
    p.add_argument("--L0", type=_matrix, required=True)
    p.add_argument("--L1", type=_matrix, required=True)
    p.set_defaults(handler=_cmd_reghom)

    p = sub.add_parser("compress-check",
                       help="necessary condition for compressing into R^6")
    p.add_argument("--u", type=_vector, required=True)
    p.add_argument("--L", type=_matrix, required=True)
    p.set_defaults(handler=_cmd_compress_check)

    p = sub.add_parser("move", help="parametric connected sum operations")
    move_sub = p.add_subparsers(dest="op", required=True)
    q = move_sub.add_parser("apply", help="apply a move to a class")
    _add_manifold_arg(q)
    q.add_argument("--class", dest="cls", type=_class_arg, required=True,
                   help='embedding class JSON {"u": [...], "L": [[...]], "beta": [...]}')
    q.add_argument("--move", type=_move, required=True,
                   help="comma separated s_1,...,s_b1,l,b")
    q.set_defaults(handler=_cmd_move_apply)

    p = sub.add_parser("decompose",
                       help="decompose a symmetric form into moves")
    _add_manifold_arg(p)
    p.add_argument("--form", type=_matrix, required=True)
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("tau", help="torus class calculus on S^1 x S^3")
    tau_sub = p.add_subparsers(dest="op", required=True)
    q = tau_sub.add_parser("normal-form")
    q.add_argument("l", type=int)
    q.add_argument("b", type=int)
    q.set_defaults(handler=_cmd_tau)
    q = tau_sub.add_parser("equal")
    q.add_argument("l", type=int)
    q.add_argument("b", type=int)
    q.add_argument("lp", type=int)
    q.add_argument("bp", type=int)
    q.set_defaults(handler=_cmd_tau)
    q = tau_sub.add_parser("compose")
    q.add_argument("l", type=int)
    q.add_argument("b", type=int)
    q.add_argument("lp", type=int)
    q.add_argument("bp", type=int)
    q.set_defaults(handler=_cmd_tau)

    p = sub.add_parser("classify", help="decide equality of embedding classes")
    cls_sub = p.add_subparsers(dest="op", required=True)
    q = cls_sub.add_parser("equal")
    _add_manifold_arg(q)
    q.add_argument("--class1", type=_class_arg, required=True)
    q.add_argument("--class2", type=_class_arg, required=True)
    q.set_defaults(handler=_cmd_classify_equal)

    p = sub.add_parser("fiber", help="fiber group and classes over (u, L)")
    _add_manifold_arg(p)
    p.add_argument("--u", type=_vector, default=None,
                   help="kappa value (defaults to the zero vector)")
    p.add_argument("--L", type=_matrix, required=True)
    p.add_argument("--enumerate", action="store_true")
    p.add_argument("--cap", type=_bounded_int(0), default=None)
    p.set_defaults(handler=_cmd_fiber)

    p = sub.add_parser("link", help="numerical linking numbers")
    link_sub = p.add_subparsers(dest="op", required=True)
    q = link_sub.add_parser("tau", help="verify the fiber linking of tau(l, b)")
    q.add_argument("--l", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--resolution",
                   type=_bounded_int(1, linking.MAX_RESOLUTION),
                   default=linking.DEFAULT_RESOLUTION,
                   help="quadrature resolution, at most "
                        f"{linking.MAX_RESOLUTION}")
    q.set_defaults(handler=_cmd_link_tau)

    p = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    p.add_argument("--matrix", type=_matrix, required=True)
    p.set_defaults(handler=_cmd_snf)

    return parser


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload, code = args.handler(args)
    except DomainError as exc:
        _emit(exc.payload)
        return 1
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"emb7: {exc}", file=sys.stderr)
        return 2
    except (ValueError, classify.BetaUnknownError, linking.SeparationError,
            linking.UnconvergedError) as exc:
        _emit({"error": str(exc)})
        return 1
    _emit(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
