"""Command-line surface.

Subcommands: ball, cover, certify-a, embed, profile, gromov, distortion.
Output is canonical JSON (key-sorted, 9 significant digits) or fixed-order
CSV, so identical invocations are byte-identical.  Exit codes: 0 when every
audit passes, 2 on precondition/audit failures (payload on stdout), 3 when
a resource cap is hit.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, field

from ._jsonutil import SCHEMA, canonical_json, csv_text
from .covers import (
    ball_cover,
    brick_cover_zl,
    brick_families_zl,
    coordinate_interval_cover,
    extension_cover,
    extension_split,
    families_to_cover,
    interval_cover_z,
    shrink_to_irreducible,
    wreath_cover,
)
from .dimension import gromov_profile, growth_curve
from .errors import CoarseKitError, PreconditionFailed, WindowTooSmall
from .groups import (
    ball_space,
    distortion_profile,
    extension_kernel,
    group_from_token,
    log_log_slope,
)
from .metric import INF, point_label
from .property_a import (
    a_infinity_family,
    certificate,
    coarse_embedding,
    convert_down_to_1,
    convert_up,
    family_from_covers,
    variation_report,
)


@dataclass
class RunConfig:
    """One command's validated inputs; everything downstream is a pure
    function of this, which is what makes reruns byte-identical."""

    command: str
    group: str = ""
    radius: int = 0
    lam: int = 0
    lam_schedule: tuple = ()
    n_schedule: tuple = ()
    k_schedule: tuple = ()
    level_schedule: tuple = ()
    p: float = 2
    budget: int = 1
    cap: int = 0
    diam_policy: tuple = ()
    out: str = None
    csv_path: str = None
    norm_csv: str = None
    ball_cap: int = None
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("lam_schedule", "n_schedule", "k_schedule", "level_schedule"):
            sched = getattr(self, name)
            if sched and list(sched) != sorted(set(sched)):
                raise PreconditionFailed(
                    "schedule must be strictly increasing", which=name, values=list(sched)
                )
        if not self.p >= 1:  # nan too
            raise PreconditionFailed("p must lie in [1, inf]", p="nan" if math.isnan(self.p) else self.p)
        if self.radius < 0:
            raise PreconditionFailed("radius must be nonnegative", radius=self.radius)
        if self.budget < 1:
            raise PreconditionFailed("budget must be at least 1", budget=self.budget)
        for path in (self.out, self.csv_path, self.norm_csv):
            if path is not None:
                parent = os.path.dirname(os.path.abspath(path))
                if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
                    raise PreconditionFailed("output path not writable", path=path)


def _number(token, text, kind=int):
    """``kind(token)``, or a payload naming the whole option ``text``."""
    try:
        return kind(token)
    except ValueError:
        raise PreconditionFailed("expected a number", text=text) from None


def _parse_schedule(text):
    """Either an inclusive range "2..8" or an explicit list "1,2,4"."""
    lo, dots, hi = text.partition("..")
    if dots:
        values = list(range(_number(lo, text), _number(hi, text) + 1))
    else:
        values = [_number(tok, text) for tok in text.split(",") if tok != ""]
    if not values:
        raise PreconditionFailed("empty schedule", text=text)
    return tuple(values)


def _parse_coeffs(text):
    return tuple(_number(tok, text) for tok in text.split(","))


def _parse_p(text):
    value = _number(text, text, float)  # float reads "inf" too
    return int(value) if value.is_integer() else value


def _emit(obj):
    canonical_json(obj, sys.stdout.write)


def _write_json(path, obj):
    with open(path, "w") as fh:
        canonical_json(obj, fh.write)


# -- ball ----------------------------------------------------------------------


def cmd_ball(config: RunConfig):
    spec = group_from_token(config.group)
    space = ball_space(spec, config.radius, cap=config.ball_cap)
    space_json = {"schema": SCHEMA, "group": config.group, "radius": config.radius}
    space_json.update(space.to_json())
    if config.norm_csv is not None:
        # points[0] is the unit, so row 0 holds every word norm
        norms = zip(map(point_label, space.points), space.d[0].tolist())
        rows = sorted(norms, key=lambda r: (r[1], r[0]))
        with open(config.norm_csv, "w", newline="") as fh:
            fh.write(csv_text(("element", "norm"), rows))
    if config.out is not None:
        _write_json(config.out, space_json)
        _emit(
            {
                "schema": SCHEMA,
                "command": "ball",
                "group": config.group,
                "radius": config.radius,
                "points": len(space),
                "diameter": space.diameter(),
                "out": config.out,
            }
        )
    else:
        _emit(space_json)
    return 0


# -- cover ---------------------------------------------------------------------


def _extension_cover(spec, config: RunConfig):
    """U from the declared quotient; V the staggered intervals on the
    kernel's last coordinate, wide enough for the 6R Lebesgue hypothesis
    (or --kernel-lambda to see the hypothesis fail)."""
    if spec.extension is None:
        raise PreconditionFailed("the extension method needs a declared extension", group=config.group)
    split = extension_split(spec, config.radius, ball_cap=config.ball_cap)
    U, R = split.quotient_cover(config.lam)
    kernel_lam = config.extras.get("kernel_lam")
    if kernel_lam is None:
        kernel_lam = 6 * R
    V = coordinate_interval_cover(split.kernel, -1, kernel_lam)
    return extension_cover(split, U, V, config.lam, R)


def cmd_cover(config: RunConfig):
    method = config.extras["method"]
    spec = group_from_token(config.group)
    try:
        if method == "wreath":
            if spec.factors is None:
                raise PreconditionFailed("cannot split wreath token", token=config.group)
            split = extension_split(spec, config.radius, ball_cap=config.ball_cap)
            cover, stats = wreath_cover(split, config.lam)
        else:
            if method == "extension":
                cover = _extension_cover(spec, config)
                stats = dict(cover.meta["conclusions"])
            else:
                space = ball_space(spec, config.radius, cap=config.ball_cap)
                if method == "ball":
                    cover = ball_cover(space, config.lam)
                elif method == "interval":
                    cover = interval_cover_z(space, config.lam)
                elif method == "bricks":
                    cover = brick_cover_zl(space, config.lam)
                elif method == "families":
                    families = brick_families_zl(space, config.lam)
                    cover = families_to_cover(
                        space, families, 2 * config.lam + 1, config.lam
                    )
                else:
                    raise PreconditionFailed("unknown cover method", method=method)
                stats = cover.stats()
    except WindowTooSmall as err:
        if not config.extras.get("allow_boundary"):
            raise
        _emit({"schema": SCHEMA, "command": "cover", "warning": err.payload()})
        return 0
    result = {
        "schema": SCHEMA,
        "command": "cover",
        "method": method,
        "group": config.group,
        "radius": config.radius,
        "lambda": config.lam,
        "stats": stats,
    }
    if config.out is not None:
        _write_json(config.out, {"schema": SCHEMA, **cover.to_json()})
        result["out"] = config.out
    _emit(result)
    return 0


# -- certify-a -------------------------------------------------------------------


def cmd_certify_a(config: RunConfig):
    spec = group_from_token(config.group)
    space = ball_space(spec, config.radius, cap=config.ball_cap)
    kind = config.extras.get("family")
    if kind is None:
        kind = "tents" if config.p == INF else "covers"
    if config.p == INF and kind != "tents":
        raise PreconditionFailed("p=inf certificates use the tent family", family=kind)
    if kind == "covers":
        covers = {}
        for n in config.n_schedule:
            covers[n] = shrink_to_irreducible(ball_cover(space, 2 * n), n)
        family = family_from_covers(covers, config.p)
    else:
        family = a_infinity_family(space, config.n_schedule, config.p)
    target = config.extras.get("convert_to")
    if target is not None and target != family.p:
        if target == 1:
            family = convert_down_to_1(family)
        elif family.p != INF and target > family.p:
            family = convert_up(family, target)
        else:
            raise PreconditionFailed(
                "conversion must raise p or go down to 1", have=family.p, want=target
            )
    report = variation_report(family, config.k_schedule)
    cert = certificate(family, report)
    cert.update(
        {
            "schema": SCHEMA,
            "command": "certify-a",
            "group": config.group,
            "radius": config.radius,
        }
    )
    if config.out is not None:
        _write_json(config.out, cert)
    _emit(cert)
    return 0 if cert["audit"]["pass"] else 2


# -- embed -----------------------------------------------------------------------


def cmd_embed(config: RunConfig):
    spec = group_from_token(config.group)
    space = ball_space(spec, config.radius, cap=config.ball_cap)
    family = a_infinity_family(space, config.level_schedule, config.p)
    result = coarse_embedding(
        family, space.center, config.budget,
        safe_margin=config.extras.get("safe_margin"),
    )
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
            "group": config.group,
            "radius": config.radius,
            "buckets": bucket_rows,
        }
    )
    if config.out is not None:
        _write_json(config.out, out)
    _emit(out)
    return 0 if result.audit["pass"] else 2


# -- profiles ----------------------------------------------------------------------


def _emit_profile(config: RunConfig, profile):
    text = profile.to_csv()
    sys.stdout.write(text)
    if config.csv_path is not None:
        with open(config.csv_path, "w", newline="") as fh:
            fh.write(text)
    if config.out is not None:
        _write_json(config.out, {"schema": SCHEMA, **profile.to_json()})
    return 0


def cmd_profile(config: RunConfig):
    profile = growth_curve(
        config.group, config.lam_schedule, config.diam_policy, config.radius,
        ball_cap=config.ball_cap,
    )
    return _emit_profile(config, profile)


def cmd_gromov(config: RunConfig):
    profile = gromov_profile(
        config.group, config.cap, config.lam_schedule, config.radius,
        ball_cap=config.ball_cap,
    )
    return _emit_profile(config, profile)


def cmd_distortion(config: RunConfig):
    spec = group_from_token(config.group)
    if spec.extension is None:
        raise PreconditionFailed("distortion profiling needs a declared extension", group=config.group)
    member, sub_generators = extension_kernel(spec)
    pairs = distortion_profile(
        spec, member, sub_generators, config.radius,
        cap=config.ball_cap, inner_cap=config.extras.get("inner_cap"),
    )
    slope = log_log_slope(pairs)
    if config.csv_path is not None:
        with open(config.csv_path, "w", newline="") as fh:
            fh.write(csv_text(("inner_norm", "ambient_norm"), pairs))
    out = {
        "schema": SCHEMA,
        "command": "distortion",
        "group": config.group,
        "radius": config.radius,
        "pairs": len(pairs),
        "max_inner_norm": max(i for i, _ in pairs),
        "slope": slope,
    }
    if config.out is not None:
        _write_json(config.out, out)
    _emit(out)
    return 0


# -- argument plumbing ----------------------------------------------------------


def _common(sub, *, radius=True, out=True):
    sub.add_argument("--group", required=True)
    if radius:
        sub.add_argument("--radius", required=True, type=int)
    sub.add_argument("--ball-cap", type=int, default=None)
    if out:
        sub.add_argument("--out", default=None)


def build_parser():
    parser = argparse.ArgumentParser(prog="coarsekit")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("ball", help="materialize a word-metric ball window")
    _common(s)
    s.add_argument("--norm-csv", default=None)

    s = subs.add_parser("cover", help="build and audit a cover of a window")
    _common(s)
    s.add_argument(
        "--method", required=True,
        choices=["ball", "interval", "bricks", "families", "wreath", "extension"],
    )
    s.add_argument("--lambda", dest="lam", required=True, type=int)
    s.add_argument("--kernel-lambda", dest="kernel_lam", type=int, default=None)
    s.add_argument("--allow-boundary", action="store_true")

    s = subs.add_parser("certify-a", help="variation certificate for a function family")
    _common(s)
    s.add_argument("--p", required=True)
    s.add_argument("--n", required=True, help="level schedule, e.g. 2..8")
    s.add_argument("--K", required=True, help="displacement schedule, e.g. 1,2,4")
    s.add_argument("--family", choices=["covers", "tents"], default=None)
    s.add_argument("--convert-to", dest="convert_to", type=int, default=None)

    s = subs.add_parser("embed", help="coarse embedding with two-sided audit")
    _common(s)
    s.add_argument("--p", required=True)
    s.add_argument("--levels", required=True)
    s.add_argument("--budget", required=True, type=int)
    s.add_argument("--safe-margin", dest="safe_margin", type=int, default=None)

    s = subs.add_parser("profile", help="multiplicity growth under a diameter policy")
    _common(s)
    s.add_argument("--lambda", dest="lam_schedule", required=True)
    s.add_argument("--diam-policy", dest="diam_policy", required=True,
                   help="ascending polynomial coefficients, e.g. 0,4")
    s.add_argument("--csv", dest="csv_path", default=None)

    s = subs.add_parser("gromov", help="achieved diameter under a multiplicity cap")
    _common(s)
    s.add_argument("--lambda", dest="lam_schedule", required=True)
    s.add_argument("--cap", required=True, type=int)
    s.add_argument("--csv", dest="csv_path", default=None)

    s = subs.add_parser("distortion", help="subgroup distortion profile")
    _common(s)
    s.add_argument("--inner-cap", dest="inner_cap", type=int, default=None)
    s.add_argument("--csv", dest="csv_path", default=None)

    return parser


def _config_from_args(args) -> RunConfig:
    extras = {}
    for key in ("method", "allow_boundary", "kernel_lam", "family",
                "convert_to", "safe_margin", "inner_cap"):
        if hasattr(args, key):
            extras[key] = getattr(args, key)
    return RunConfig(
        command=args.command,
        group=getattr(args, "group", ""),
        radius=getattr(args, "radius", 0),
        lam=getattr(args, "lam", 0),
        lam_schedule=_parse_schedule(args.lam_schedule) if hasattr(args, "lam_schedule") else (),
        n_schedule=_parse_schedule(args.n) if hasattr(args, "n") else (),
        k_schedule=_parse_schedule(args.K) if hasattr(args, "K") else (),
        level_schedule=_parse_schedule(args.levels) if hasattr(args, "levels") else (),
        p=_parse_p(args.p) if hasattr(args, "p") else 2,
        budget=getattr(args, "budget", 1),
        cap=getattr(args, "cap", 0),
        diam_policy=_parse_coeffs(args.diam_policy) if hasattr(args, "diam_policy") else (),
        out=getattr(args, "out", None),
        csv_path=getattr(args, "csv_path", None),
        norm_csv=getattr(args, "norm_csv", None),
        ball_cap=getattr(args, "ball_cap", None),
        extras=extras,
    )


_DISPATCH = {
    "ball": cmd_ball,
    "cover": cmd_cover,
    "certify-a": cmd_certify_a,
    "embed": cmd_embed,
    "profile": cmd_profile,
    "gromov": cmd_gromov,
    "distortion": cmd_distortion,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _DISPATCH[config.command](config)
    except CoarseKitError as err:
        _emit({"schema": SCHEMA, **err.payload()})
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
