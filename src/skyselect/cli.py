"""Command-line front door for the selection operators.

Three subcommands:

* ``query``: run one operator on a CSV dataset and print ids (plus scores,
  the critical radius, or partition cells where the operator produces them)
  as CSV lines or a single JSON object;
* ``compare``: run every operator on one dataset and print an empirical
  property matrix (cardinality and whether it matched the request, ranking,
  preference input, required parameter count) plus the containment chain
  PO subset-of ND subset-of SKY;
* ``generate``: write a synthetic benchmark dataset to CSV.

Exit codes: 0 success, 2 usage error, 3 data or operator error,
4 containment violation detected by compare.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence

from .dataset import Dataset, DISTRIBUTIONS, generate, load_csv, normalize, write_csv
from .epsilon import epsilon_skyline
from .flexible import nd, po
from .oss import UnreachableSizeError, ord_query, oru_query
from .queries import check_weights, k_skyband, skyline, top_k
from .regions import Ball, WeightRegion, full_simplex, parse_region
from .representative import distance_representative, dominance_representative
from .utk import utk1, utk2

OPERATORS = (
    "skyline",
    "skyband",
    "topk",
    "nd",
    "po",
    "ord",
    "oru",
    "utk1",
    "utk2",
    "eskyline",
    "repdom",
    "repdist",
)


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skyselect",
        description="Most-interesting-tuple selection operators over CSV data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("query", help="run one operator on a dataset")
    q.add_argument("operator", choices=OPERATORS)
    q.add_argument("--data", required=True, help="input CSV file")
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--m", type=int, default=None)
    q.add_argument("--weights", default=None, help='comma-separated, e.g. "0.5,0.5"')
    q.add_argument("--rho", type=float, default=None)
    q.add_argument("--eps", type=float, default=None)
    q.add_argument("--region", default=None, help="region constraint file")
    q.add_argument("--normalize", action="store_true")
    q.add_argument("--mode", choices=("greedy", "exact"), default="greedy")
    q.add_argument("--kdepth", type=int, default=1)
    q.add_argument("--format", choices=("csv", "json"), default="csv")

    c = sub.add_parser("compare", help="empirical operator property matrix")
    c.add_argument("--data", required=True)
    c.add_argument("--weights", default=None)
    c.add_argument("--region", default=None)
    c.add_argument("--k", type=int, default=1)
    c.add_argument("--m", type=int, default=3)
    c.add_argument("--eps", type=float, default=0.3)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    g.add_argument("--dist", choices=DISTRIBUTIONS, required=True)
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    return parser


def _parse_weights(text: str, dim: int) -> tuple[float, ...]:
    try:
        w = tuple(float(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"malformed --weights value: {text!r}")
    if len(w) != dim:
        raise UsageError(f"--weights needs {dim} components, got {len(w)}")
    try:
        check_weights(w, dim)
    except ValueError as exc:
        raise UsageError(f"--weights: {exc}") from None
    return w


def _load_region(args, ds: Dataset) -> WeightRegion:
    if args.region is None:
        return full_simplex(ds.dim)
    with open(args.region, encoding="utf-8") as fh:
        return parse_region(fh.read(), ds.dim, names=ds.schema)


def _need(args, flag: str):
    value = getattr(args, flag)
    if value is None:
        raise UsageError(f"operator {args.operator!r} requires --{flag}")
    return value


def _run_operator(args, ds: Dataset) -> dict:
    """Dispatch one operator; returns a result payload for rendering."""
    op = args.operator
    out: dict = {"operator": op, "params": {}}
    if op == "skyline":
        out["ids"] = sorted(skyline(ds))
    elif op == "skyband":
        k = _need(args, "k")
        if k < 1:
            raise UsageError("--k must be >= 1")
        out["params"]["k"] = k
        out["ids"] = sorted(k_skyband(ds, k))
    elif op == "topk":
        k = _need(args, "k")
        if k < 1:
            raise UsageError("--k must be >= 1")
        w = _parse_weights(_need(args, "weights"), ds.dim)
        out["params"].update(k=k, weights=list(w))
        ranked = top_k(ds, w, k)
        out["ids"] = list(ranked.ids())
        out["scores"] = [float(s) for s in ranked.scores()]
    elif op in ("nd", "po"):
        reg = _region_maybe_ball(args, ds)
        out["params"]["region"] = _region_params(args)
        out["ids"] = sorted(nd(ds, reg) if op == "nd" else po(ds, reg))
    elif op in ("ord", "oru"):
        m = _need(args, "m")
        if m < 1:
            raise UsageError("--m must be >= 1")
        if args.kdepth < 1:
            raise UsageError("--kdepth must be >= 1")
        w = _parse_weights(_need(args, "weights"), ds.dim)
        out["params"].update(m=m, weights=list(w), kdepth=args.kdepth)
        fn = ord_query if op == "ord" else oru_query
        res = fn(ds, w, m, k_depth=args.kdepth)
        out["ids"] = list(res.ids)
        out["rhoStar"] = res.rho_star
        out["exact"] = res.exact
    elif op in ("utk1", "utk2"):
        k = _need(args, "k")
        if k < 1:
            raise UsageError("--k must be >= 1")
        reg = _load_region(args, ds)
        out["params"].update(k=k, region=_region_params(args))
        if op == "utk1":
            res = utk1(ds, k, reg)
            out["ids"] = sorted(res.ids)
            out["exact"] = res.exact
        else:
            cells = utk2(ds, k, reg)
            out["exact"] = all(c.exact for c in cells)
            out["cells"] = [
                {
                    "kind": c.kind,
                    "lo": c.lo,
                    "hi": c.hi,
                    "ids": sorted(c.label),
                    "exact": c.exact,
                    "sampleCount": len(c.samples),
                }
                for c in cells
            ]
    elif op == "eskyline":
        eps = _need(args, "eps")
        if not -1.0 <= eps <= 1.0:
            raise UsageError("--eps must lie in [-1, 1]")
        w = _parse_weights(_need(args, "weights"), ds.dim)
        out["params"].update(eps=eps, weights=list(w))
        out["ids"] = sorted(epsilon_skyline(ds, w, eps))
    elif op in ("repdom", "repdist"):
        k = _need(args, "k")
        if k < 1:
            raise UsageError("--k must be >= 1")
        out["params"].update(k=k, mode=args.mode)
        fn = dominance_representative if op == "repdom" else distance_representative
        out["ids"] = fn(ds, k, mode=args.mode)
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown operator {op!r}")
    return out


def _region_maybe_ball(args, ds: Dataset) -> WeightRegion:
    """nd/po accept either a region file or a ball given by --weights/--rho."""
    reg = _load_region(args, ds)
    if args.rho is not None:
        if not 0.0 <= args.rho < math.inf:
            raise UsageError("--rho must be finite and >= 0")
        if args.weights is None:
            raise UsageError("--rho requires --weights for the ball center")
        w = _parse_weights(args.weights, ds.dim)
        reg = WeightRegion(ds.dim, reg.constraints, Ball(w, args.rho))
    return reg


def _region_params(args) -> str:
    parts = []
    if args.region is not None:
        parts.append(args.region)
    if getattr(args, "rho", None) is not None:
        parts.append(f"ball(rho={args.rho})")
    return " + ".join(parts) if parts else "full simplex"


def _render_csv(out: dict) -> str:
    lines: list[str] = []
    if "cells" in out:
        for c in out["cells"]:
            ids = ";".join(c["ids"])
            if c["kind"] == "exactInterval":
                lines.append(f"interval,{c['lo']:.9g},{c['hi']:.9g},{ids}")
            else:
                lines.append(f"cloud,{c['sampleCount']},{ids}")
    else:
        lines.append(",".join(out["ids"]))
        if "scores" in out:
            lines = [
                f"{tid},{score:.12g}"
                for tid, score in zip(out["ids"], out["scores"])
            ]
        if "rhoStar" in out:
            lines.append(f"rhoStar,{out['rhoStar']:.6f}")
    return "\n".join(lines) + "\n"


def _cmd_query(args) -> int:
    ds = load_csv(args.data)
    if args.normalize:
        ds = normalize(ds)
    out = _run_operator(args, ds)
    if args.format == "json":
        sys.stdout.write(json.dumps(out, indent=2) + "\n")
    else:
        sys.stdout.write(_render_csv(out))
    return 0


_RANKED = {"topk", "repdom", "repdist"}
_PREF_INPUT = {"topk", "nd", "po", "ord", "oru", "utk1", "eskyline"}
_PARAM_COUNT = {
    "Skyline": 0,
    "kSkyband": 1,
    "TopK": 2,
    "ND": 1,
    "PO": 1,
    "ORD": 2,
    "ORU": 2,
    "UTK1": 2,
    "EpsSkyline": 2,
    "RepDominance": 1,
    "RepDistance": 1,
}


def _compare_row(name: str, op: str, size: int, request: int | None, req_name: str) -> str:
    if request is not None and size == request:
        card = f"cardinality {size} (= {req_name}, controlled)"
    else:
        card = f"cardinality {size} (uncontrolled)"
    ranked = "yes" if op in _RANKED else "no"
    pref = "yes" if op in _PREF_INPUT else "no"
    return (
        f"{name}: {card}, ranked {ranked}, preference input {pref}, "
        f"params {_PARAM_COUNT[name]}"
    )


def _cmd_compare(args) -> int:
    ds = normalize(load_csv(args.data))
    dim = ds.dim
    w = (
        _parse_weights(args.weights, dim)
        if args.weights is not None
        else tuple(1.0 / dim for _ in range(dim))
    )
    reg = _load_region(args, ds)
    k, m, eps = args.k, args.m, args.eps
    if k < 1 or m < 1:
        raise UsageError("--k and --m must be >= 1")
    if not -1.0 <= eps <= 1.0:
        raise UsageError("--eps must lie in [-1, 1]")

    sky = skyline(ds)
    band = k_skyband(ds, k)
    ranked = top_k(ds, w, k)
    nd_ids = nd(ds, reg)
    po_ids = po(ds, reg)

    def oss_size(fn) -> int:
        try:
            return len(fn(ds, w, min(m, len(ds))).ids)
        except UnreachableSizeError as exc:
            return len(fn(ds, w, exc.achievable).ids) if exc.achievable else 0

    ord_size = oss_size(ord_query)
    oru_size = oss_size(oru_query)
    utk_res = utk1(ds, k, reg)
    cells = utk2(ds, k, reg)
    esky = epsilon_skyline(ds, w, eps)
    rep_dom = dominance_representative(ds, k)
    rep_dist = distance_representative(ds, k)

    rows = [
        _compare_row("Skyline", "skyline", len(sky), None, ""),
        _compare_row("kSkyband", "skyband", len(band), None, ""),
        _compare_row("TopK", "topk", len(ranked), k, "k"),
        _compare_row("ND", "nd", len(nd_ids), None, ""),
        _compare_row("PO", "po", len(po_ids), None, ""),
        _compare_row("ORD", "ord", ord_size, m, "m"),
        _compare_row("ORU", "oru", oru_size, m, "m"),
        _compare_row("UTK1", "utk1", len(utk_res.ids), k, "k"),
        _compare_row("EpsSkyline", "eskyline", len(esky), None, ""),
        _compare_row("RepDominance", "repdom", len(rep_dom), k, "k"),
        _compare_row("RepDistance", "repdist", len(rep_dist), k, "k"),
    ]
    for row in rows:
        sys.stdout.write(row + "\n")
    exactness = "exact" if all(c.exact for c in cells) else "sampled"
    sys.stdout.write(f"UTK2: {len(cells)} cells ({exactness})\n")

    ok = po_ids <= nd_ids <= sky
    verdict = "OK" if ok else "VIOLATION"
    subset = "\N{SUBSET OF OR EQUAL TO}"
    sys.stdout.write(
        f"PO({len(po_ids)}) {subset} ND({len(nd_ids)}) {subset} "
        f"SKY({len(sky)}): {verdict}\n"
    )
    return 0 if ok else 4


def _cmd_generate(args) -> int:
    if args.n < 0 or args.d < 1:
        raise UsageError("--n must be >= 0 and --d >= 1")
    ds = generate(args.dist, args.n, args.d, args.seed)
    write_csv(ds, args.out)
    return 0


def _attach_negative_eps(argv: Sequence[str]) -> list[str]:
    """Rewrite ``--eps -1e-05`` as ``--eps=-1e-05``.

    argparse reads a token that starts with "-" as an option unless it looks
    like a plain negative decimal, so a value in scientific notation such as
    ``-1e-05`` would otherwise leave ``--eps`` without its argument.
    """
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--eps" and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"--eps={tok}"
                continue
        out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_eps(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_generate(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
