"""Command-line surface.

Subcommands: ball, cover, certify-a, embed, profile, gromov, distortion.
Each command reads its parsed arguments and nothing else, every option
checked where argparse converts it, and its output is canonical JSON
(key-sorted, 9 significant digits) or fixed-order CSV, so identical
invocations are byte-identical.  Exit codes: 0 when every
audit passes, 2 on precondition/audit failures (payload on stdout), 3 when
a resource cap is hit.  Each command imports the covers, dimension and
property_a modules it uses when it runs, so ``ball`` starts without them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from ._jsonutil import SCHEMA, canonical_json, csv_text
from .errors import CoarseKitError, PreconditionFailed
from .groups import (
    ball_space,
    distortion_profile,
    extension_kernel,
    group_from_token,
    log_log_slope,
)
from .metric import INF, point_label


def _number(token, text, kind=int):
    """``kind(token)``, or a payload naming the whole option ``text``."""
    try:
        return kind(token)
    except ValueError:
        raise PreconditionFailed("expected a number", text=text) from None


# -- option converters -----------------------------------------------------------
# A converter refuses with PreconditionFailed (a payload on stdout, exit 2);
# a ValueError becomes argparse's own usage error (stderr, exit 2).


def _schedule(which, least=None):
    """Converter for a strictly increasing schedule, either an inclusive
    range "2..8" or an explicit list "1,2,4"; ``which`` names it in payloads."""

    def parse(text):
        lo, dots, hi = text.partition("..")
        if dots:
            values = list(range(_number(lo, text), _number(hi, text) + 1))
        else:
            values = [_number(tok, text) for tok in text.split(",") if tok != ""]
        if not values:
            raise PreconditionFailed("empty schedule", text=text)
        if values != sorted(set(values)):
            raise PreconditionFailed("schedule must be strictly increasing", which=which, values=values)
        if least is not None and values[0] < least:
            raise PreconditionFailed("schedule below its least value", which=which, least=least, values=values)
        return tuple(values)

    return parse


def _int_at_least(key, least, message):
    """Converter for an integer option of least value ``least``."""

    def parse(text):
        value = int(text)
        if value < least:
            raise PreconditionFailed(message, **{key: value})
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _parse_coeffs(text):
    return tuple(_number(tok, text) for tok in text.split(","))


def _parse_p(text):
    value = _number(text, text, float)  # float reads "inf" too
    value = int(value) if value.is_integer() else value
    if not value >= 1:  # nan too
        raise PreconditionFailed("p must lie in [1, inf]", p="nan" if math.isnan(value) else value)
    return value


def _writable(path):
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise PreconditionFailed("output path not writable", path=path)
    return path


def _emit(obj, out=None):
    """``obj`` on stdout, and first in the file ``out`` when one is named."""
    if out is not None:
        _write_json(out, obj)
    canonical_json(obj, sys.stdout.write)


def _write_json(path, obj):
    with open(path, "w") as fh:
        canonical_json(obj, fh.write)


# -- ball ----------------------------------------------------------------------


def cmd_ball(args):
    spec = group_from_token(args.group)
    space = ball_space(spec, args.radius, cap=args.ball_cap)
    space_json = {"schema": SCHEMA, "group": args.group, "radius": args.radius}
    space_json.update(space.to_json())
    if args.norm_csv is not None:
        # points[0] is the unit, so row 0 holds every word norm
        norms = zip(map(point_label, space.points), space.d[0].tolist())
        rows = sorted(norms, key=lambda r: (r[1], r[0]))
        with open(args.norm_csv, "w", newline="") as fh:
            fh.write(csv_text(("element", "norm"), rows))
    if args.out is not None:
        _write_json(args.out, space_json)
        _emit(
            {
                "schema": SCHEMA,
                "command": "ball",
                "group": args.group,
                "radius": args.radius,
                "points": len(space),
                "diameter": space.diameter(),
                "out": args.out,
            }
        )
    else:
        _emit(space_json)
    return 0


# -- cover ---------------------------------------------------------------------


def _extension_cover(spec, args):
    """U from the declared quotient; V the staggered intervals on the
    kernel's last coordinate, wide enough for the 6R Lebesgue hypothesis."""
    if spec.extension is None:
        raise PreconditionFailed("the extension method needs a declared extension", group=args.group)
    from .covers import coordinate_interval_cover, extension_cover, extension_split

    split = extension_split(spec, args.radius, ball_cap=args.ball_cap)
    U, R = split.quotient_cover(args.lam)
    V = coordinate_interval_cover(split.kernel, -1, 6 * R)
    return extension_cover(split, U, V, args.lam, R)


def cmd_cover(args):
    from .covers import (
        ball_cover,
        brick_cover_zl,
        brick_families_zl,
        extension_split,
        families_to_cover,
        interval_cover_z,
        wreath_cover,
    )

    method = args.method
    spec = group_from_token(args.group)
    if method == "wreath":
        if spec.factors is None:
            raise PreconditionFailed("cannot split wreath token", token=args.group)
        split = extension_split(spec, args.radius, ball_cap=args.ball_cap)
        cover, stats = wreath_cover(split, args.lam)
    elif method == "extension":
        cover = _extension_cover(spec, args)
        stats = dict(cover.meta["conclusions"])
    else:
        if method != "ball" and spec.lattice_rank is None:
            raise PreconditionFailed("lattice methods need a declared lattice_rank", method=method, group=args.group)
        space = ball_space(spec, args.radius, cap=args.ball_cap)
        if method == "ball":
            cover = ball_cover(space, args.lam)
        elif method == "interval":
            cover = interval_cover_z(space, args.lam)
        elif method == "bricks":
            cover = brick_cover_zl(space, args.lam)
        else:  # families; argparse's choices admit no other method
            families = brick_families_zl(space, args.lam)
            cover = families_to_cover(space, families, 2 * args.lam + 1, args.lam)
        stats = cover.stats()
    result = {
        "schema": SCHEMA,
        "command": "cover",
        "method": method,
        "group": args.group,
        "radius": args.radius,
        "lambda": args.lam,
        "stats": stats,
    }
    if args.out is not None:
        _write_json(args.out, {"schema": SCHEMA, **cover.to_json()})
        result["out"] = args.out
    _emit(result)
    return 0


# -- certify-a -------------------------------------------------------------------


def cmd_certify_a(args):
    from .covers import ball_cover, shrink_to_irreducible
    from .property_a import (
        a_infinity_family,
        certificate,
        convert_down_to_1,
        convert_up,
        family_from_covers,
        variation_report,
    )

    spec = group_from_token(args.group)
    space = ball_space(spec, args.radius, cap=args.ball_cap)
    kind = args.family
    if kind is None:
        kind = "tents" if args.p == INF else "covers"
    if args.p == INF and kind != "tents":
        raise PreconditionFailed("p=inf certificates use the tent family", family=kind)
    if kind == "covers":
        covers = {}
        for n in args.n:
            covers[n] = shrink_to_irreducible(ball_cover(space, 2 * n), n)
        family = family_from_covers(covers, args.p)
    else:
        family = a_infinity_family(space, args.n, args.p)
    target = args.convert_to
    if target is not None and target != family.p:
        if target == 1:
            family = convert_down_to_1(family)
        elif family.p != INF and target > family.p:
            family = convert_up(family, target)
        else:
            raise PreconditionFailed(
                "conversion must raise p or go down to 1", have=family.p, want=target
            )
    report = variation_report(family, args.K)
    cert = certificate(family, report)
    cert.update(
        {
            "schema": SCHEMA,
            "command": "certify-a",
            "group": args.group,
            "radius": args.radius,
        }
    )
    _emit(cert, args.out)
    return 0 if cert["audit"]["pass"] else 2


# -- embed -----------------------------------------------------------------------


def cmd_embed(args):
    from .property_a import a_infinity_family, coarse_embedding

    spec = group_from_token(args.group)
    space = ball_space(spec, args.radius, cap=args.ball_cap)
    family = a_infinity_family(space, args.levels, args.p)
    result = coarse_embedding(family, space.center, args.budget)
    bucket_rows = [
        {
            "distance": int(t),
            "min": low,
            "max": high,
            "rho_lower": result.rho_lower(t),
            "rho_upper": result.rho_upper(t),
        }
        for t, (low, high) in sorted(result.displacement.items())
    ]
    out = result.to_json()
    out.update(
        {
            "schema": SCHEMA,
            "command": "embed",
            "group": args.group,
            "radius": args.radius,
            "buckets": bucket_rows,
        }
    )
    _emit(out, args.out)
    return 0 if result.audit["pass"] else 2


# -- profiles ----------------------------------------------------------------------


def _emit_profile(args, profile):
    text = profile.to_csv()
    sys.stdout.write(text)
    if args.csv_path is not None:
        with open(args.csv_path, "w", newline="") as fh:
            fh.write(text)
    if args.out is not None:
        _write_json(args.out, {"schema": SCHEMA, **profile.to_json()})
    return 0


def cmd_profile(args):
    from .dimension import growth_curve

    profile = growth_curve(
        args.group, args.lam_schedule, args.diam_policy, args.radius,
        ball_cap=args.ball_cap,
    )
    return _emit_profile(args, profile)


def cmd_gromov(args):
    from .dimension import gromov_profile

    profile = gromov_profile(
        args.group, args.cap, args.lam_schedule, args.radius,
        ball_cap=args.ball_cap,
    )
    return _emit_profile(args, profile)


def cmd_distortion(args):
    spec = group_from_token(args.group)
    if spec.extension is None:
        raise PreconditionFailed("distortion profiling needs a declared extension", group=args.group)
    member, sub_generators = extension_kernel(spec)
    pairs = distortion_profile(spec, member, sub_generators, args.radius, cap=args.ball_cap)
    slope = log_log_slope(pairs)
    if args.csv_path is not None:
        with open(args.csv_path, "w", newline="") as fh:
            fh.write(csv_text(("inner_norm", "ambient_norm"), pairs))
    out = {
        "schema": SCHEMA,
        "command": "distortion",
        "group": args.group,
        "radius": args.radius,
        "pairs": len(pairs),
        "max_inner_norm": max(i for i, _ in pairs),
        "slope": slope,
    }
    _emit(out, args.out)
    return 0


# -- argument plumbing ----------------------------------------------------------


def _common(sub, run):
    sub.set_defaults(run=run)
    sub.add_argument("--group", required=True)
    sub.add_argument("--radius", required=True, type=_int_at_least("radius", 0, "radius must be nonnegative"))
    sub.add_argument("--ball-cap", type=_int_at_least("ball_cap", 1, "ball cap must be at least 1"), default=None)
    sub.add_argument("--out", type=_writable, default=None)


def build_parser():
    """The parser, built per call, so each subcommand's ``run`` is the
    module's ``cmd_*`` binding at that time, a wrapper bound after import
    included."""
    parser = argparse.ArgumentParser(prog="coarsekit")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("ball", help="materialize a word-metric ball window")
    _common(s, cmd_ball)
    s.add_argument("--norm-csv", type=_writable, default=None)

    s = subs.add_parser("cover", help="build and audit a cover of a window")
    _common(s, cmd_cover)
    s.add_argument(
        "--method", required=True,
        choices=["ball", "interval", "bricks", "families", "wreath", "extension"],
    )
    s.add_argument("--lambda", dest="lam", required=True, type=_int_at_least("lambda", 0, "lambda must be nonnegative"))

    s = subs.add_parser("certify-a", help="variation certificate for a function family")
    _common(s, cmd_certify_a)
    s.add_argument("--p", required=True, type=_parse_p)
    s.add_argument("--n", required=True, type=_schedule("n_schedule"), help="level schedule, e.g. 2..8")
    s.add_argument("--K", required=True, type=_schedule("k_schedule"), help="displacement schedule, e.g. 1,2,4")
    s.add_argument("--family", choices=["covers", "tents"], default=None)
    s.add_argument("--convert-to", dest="convert_to", type=int, default=None)

    s = subs.add_parser("embed", help="coarse embedding with two-sided audit")
    _common(s, cmd_embed)
    s.add_argument("--p", required=True, type=_parse_p)
    s.add_argument("--levels", required=True, type=_schedule("level_schedule"))
    s.add_argument("--budget", required=True, type=_int_at_least("budget", 1, "budget must be at least 1"))

    s = subs.add_parser("profile", help="multiplicity growth under a diameter policy")
    _common(s, cmd_profile)
    s.add_argument("--lambda", dest="lam_schedule", required=True, type=_schedule("lam_schedule", least=0))
    s.add_argument("--diam-policy", dest="diam_policy", required=True, type=_parse_coeffs,
                   help="ascending polynomial coefficients, e.g. 0,4")
    s.add_argument("--csv", dest="csv_path", type=_writable, default=None)

    s = subs.add_parser("gromov", help="achieved diameter under a multiplicity cap")
    _common(s, cmd_gromov)
    s.add_argument("--lambda", dest="lam_schedule", required=True, type=_schedule("lam_schedule", least=0))
    s.add_argument("--cap", required=True, type=int)
    s.add_argument("--csv", dest="csv_path", type=_writable, default=None)

    s = subs.add_parser("distortion", help="subgroup distortion profile")
    _common(s, cmd_distortion)
    s.add_argument("--csv", dest="csv_path", type=_writable, default=None)

    return parser


def main(argv=None) -> int:
    try:
        # argparse lets a converter's PreconditionFailed through: it turns
        # only ArgumentTypeError, TypeError and ValueError into usage errors
        args = build_parser().parse_args(argv)
        return args.run(args)
    except CoarseKitError as err:
        _emit({"schema": SCHEMA, **err.payload()})
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
