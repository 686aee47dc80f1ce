#!/usr/bin/env python3
"""Solve the paper's tables and ablations, check its claims, write EXPERIMENTS.md.

This script is the one owner of Tables 1-4 and Ablations A-D.  Every
result sentence it writes comes from a check over the measured rows.
A **reproduced** claim must hold: the script exits 1 when one does
not.  A **reported** claim is checked and printed with its verdict but
does not fail the run: either its verdict depends on the time limit
(it names the limit it was checked at), or it is a paper figure this
reproduction does not show.  Figures 3 and 4 are exact facts of tiny
models; the tier-1 tests in ``tests/test_paper_figures.py`` check them
and the document cites their ids.

    python scripts/run_experiments.py [--time-limit 60] [--out EXPERIMENTS.md]

Tables 1-3 and Ablations A, C and D solve at ``--time-limit``, Table 4
at twice it and Ablation B's sixteen solves at half of it.  Ablation A
reuses Table 1's graph-1 rows as its Glover arm, and Ablations C and D
reuse Table 3's feasible rows as their default arm.
"""

from __future__ import annotations

import argparse
import datetime
import platform
import sys
from pathlib import Path
from typing import Dict, List, NamedTuple

from repro.core.formulation import FormulationOptions, build_model
from repro.core.spec import ProblemSpec
from repro.graph.generators import PAPER_GRAPH_SPECS, paper_graph
from repro.ilp.analysis import presolve
from repro.library.catalogs import mix_from_string
from repro.reporting.experiments import (
    reference_device,
    reference_memory,
    run_row,
    table_rows,
)

Rows = List[Dict]

RULES = ["paper", "first", "most-fractional", "pseudo-random"]

COLUMNS = [
    "key", "N", "mix", "L", "vars", "consts", "runtime_s", "status",
    "objective", "partitions_used",
    "paper_vars", "paper_consts", "paper_runtime_s", "paper_feasible",
]
ABLATION_COLUMNS = [
    "key", "variant", "int_vars", "consts", "runtime_s", "status", "nodes",
    "objective",
]

FIGURE_TESTS = [
    ("test_figure3_w_values_and_cut_sums",
     "Figure 3: with t1, t2, t3 mapped to partitions 1, 2, 3, exactly "
     "w[2,t1,t2], w[2,t1,t3], w[3,t1,t3] and w[3,t2,t3] are 1, and the "
     "memory sums are 7 at cut 2 and 6 at cut 3 (the t1->t3 edge is "
     "charged at both cuts)."),
    ("test_figure4_cuts_remove_spurious_w[t2-before-cut]",
     "Figure 4, both tasks before cut 3: eq 31 alone lets the LP set "
     "w[3,t1,t2] = 1; eq 29 cuts it to 0."),
    ("test_figure4_cuts_remove_spurious_w[t1-after-cut]",
     "Figure 4, both tasks at or after cut 3: eq 28 cuts the spurious "
     "w = 1 to 0."),
    ("test_figure4_cuts_remove_spurious_w[colocated]",
     "Figure 4, both tasks in one partition: eq 30 cuts the spurious "
     "w = 1 to 0."),
    ("test_figure4_legitimate_crossing_survives",
     "Figure 4, t1 in partition 1 and t2 in 4: the edge really crosses "
     "cut 3, and with all three cuts in place w may still be 1."),
]


class Claim(NamedTuple):
    text: str
    holds: bool
    gated: bool = True

    def line(self) -> str:
        if self.gated:
            verdict = "reproduced" if self.holds else "NOT REPRODUCED"
        else:
            verdict = "reported: " + ("holds" if self.holds else "does not hold")
        return f"- **{verdict}** — {self.text}"


def measure(rows, time_limit: float, variant: str = "", **kwargs) -> Rows:
    """``run_row`` over experiment rows, each result tagged ``variant``."""
    measured = []
    for row in rows:
        print(f"  {row.key} {variant} ...", flush=True)
        result = run_row(row, time_limit_s=time_limit, **kwargs)
        result["variant"] = variant
        measured.append(result)
    return measured


def finished(rows: Rows) -> Rows:
    return [r for r in rows if not r["hit_limit"]]


def when_done(rows: Rows) -> str:
    return ", ".join(
        f"{r['key']} in {r['runtime_s']:.1f} s" for r in finished(rows)
    ) or "none"


def rows_removed(row: Dict) -> int:
    solve = row["telemetry"].get("solve") or {}
    return (solve.get("presolve") or {}).get("rows_removed", 0)


def table1_claims(t1: Rows, limit: float) -> "List[Claim]":
    stalled = len(t1) - len(finished(t1))
    return [Claim(
        f"The base model stalls: {stalled} of {len(t1)} rows hit the "
        f"{limit:g} s limit, at least half (paper: 3 of 4 ran past "
        "7200 s).",
        2 * stalled >= len(t1),
    )]


def table2_claims(t1: Rows, t2: Rows, limit: float) -> "List[Claim]":
    both = [
        (base, tight) for base, tight in zip(t1, t2)
        if not base["hit_limit"] and not tight["hit_limit"]
    ]
    claims = [Claim(
        f"Tightening finishes at least as many rows within {limit:g} s: "
        f"{len(finished(t2))} of {len(t2)} tightened vs "
        f"{len(finished(t1))} of {len(t1)} base.",
        len(finished(t2)) >= len(finished(t1)),
    )]
    if both:  # at short limits no base row finishes
        nodes = ", ".join(
            f"{tight['key'][3:]} {base['nodes']} -> {tight['nodes']}"
            for base, tight in both
        )
        claims.append(Claim(
            "Every row both models finish takes fewer nodes tightened "
            f"(base -> tightened): {nodes}.",
            all(tight["nodes"] < base["nodes"] for base, tight in both),
        ))
    return claims + [
        Claim(
            "Paper: 3 of 4 tightened rows finish (86 s, 4670 s, 9.7 s). "
            f"Measured at {limit:g} s: {when_done(t2)}.",
            len(finished(t2)) >= 3,
            gated=False,
        ),
    ]


def table3_claims(t3: Rows, limit: float) -> "List[Claim]":
    matched = [
        r for r in t3
        if r["status"] in ("optimal", "infeasible")
        and r["feasible"] == r["paper_feasible"]
    ]
    last = next(r for r in t3 if r["L"] == 3)
    return [
        Claim(
            f"Every row is decided within {limit:g} s with the paper's "
            f"feasibility, infeasible at L=0 and feasible from L=1: "
            f"{len(matched)} of {len(t3)}.",
            len(matched) == len(t3),
        ),
        Claim(
            f"At L=3 the optimal design of {last['key']} uses "
            f"{last['partitions_used']} partition(s) of the N=2 allowed "
            "(paper: one configuration suffices).",
            last["partitions_used"] == 1,
        ),
    ]


def table4_claims(t4: Rows, limit: float) -> "List[Claim]":
    done = finished(t4)
    matched = [r for r in done if r["feasible"] == r["paper_feasible"]]
    return [
        Claim(
            f"Every row is decided within {limit:g} s: {len(done)} of "
            f"{len(t4)}.",
            len(done) == len(t4),
        ),
        Claim(
            "Feasibility matches the paper's column on every decided row: "
            f"{len(matched)} of {len(done)}.  The paper's graphs are "
            "unpublished; ours are regenerated at the published sizes "
            "with seeds calibrated to this column.",
            len(matched) == len(done),
        ),
    ]


def ablation_a_claims(glover: Rows, fortet: Rows, limit: float) -> "List[Claim]":
    sizes = ", ".join(
        f"{g['key']} {g['int_vars']} vs {f['int_vars']}"
        for g, f in zip(glover, fortet)
    )
    return [
        Claim(
            "Fortet enlarges the search space: its product variables are "
            "0-1 integers, so every row has more integer variables than "
            f"under Glover (Glover vs Fortet: {sizes}).",
            all(f["int_vars"] > g["int_vars"] for g, f in zip(glover, fortet)),
        ),
        Claim(
            f"Glover completes at least as many rows as Fortet at {limit:g} s. "
            f"Glover: {when_done(glover)}; Fortet: {when_done(fortet)}.  "
            "The verdict depends on the limit through these times.",
            len(finished(glover)) >= len(finished(fortet)),
            gated=False,
        ),
    ]


def ablation_b_claims(by_rule: "Dict[str, Rows]", limit: float) -> "List[Claim]":
    done = {rule: len(finished(rows)) for rule, rows in by_rule.items()}
    counts = ", ".join(
        f"{rule} {n} of {len(by_rule[rule])}" for rule, n in done.items()
    )
    return [Claim(
        "The paper's Section-8 rule completes more rows than every "
        f"unguided rule at {limit:g} s: {counts}.",
        done["paper"] > max(n for rule, n in done.items() if rule != "paper"),
    )]


def ablation_c_claims(pairwise: Rows, aggregated: Rows) -> "List[Claim]":
    pairs = list(zip(pairwise, aggregated))
    consts = ", ".join(
        f"{p['key']} {p['consts']} -> {a['consts']}" for p, a in pairs
    )
    return [Claim(
        "Aggregated eq 8 reaches the same optimum with no more "
        f"constraints on every row (pairwise -> aggregated: {consts}).",
        all(
            p["status"] == a["status"] == "optimal"
            and p["objective"] == a["objective"]
            and a["consts"] <= p["consts"]
            for p, a in pairs
        ),
    )]


def root_lp_rows_removed(row) -> "Dict[str, int]":
    """Rows presolve removes from the base and the tightened root LP."""
    spec = ProblemSpec.create(
        graph=paper_graph(row.graph),
        allocation=mix_from_string(row.mix),
        device=reference_device(),
        memory=reference_memory(),
        n_partitions=row.n_partitions,
        relaxation=row.relaxation,
    )
    removed = {}
    for variant, tighten in (("base", False), ("tightened", True)):
        model, _ = build_model(spec, FormulationOptions(tighten=tighten))
        removed[variant] = presolve(model, eliminate=False).stats.rows_removed
    return removed


def ablation_d_claims(on: Rows, off: Rows, root: "Dict[str, int]", key: str) -> "List[Claim]":
    pairs = list(zip(off, on))
    removed = ", ".join(f"{r['key']} {rows_removed(r)}" for r in on)
    return [
        Claim(
            "Presolve keeps every optimum and removes rows on every row "
            f"(rows removed: {removed}).",
            all(
                a["status"] == b["status"] == "optimal"
                and a["objective"] == b["objective"]
                and rows_removed(b) > 0
                for a, b in pairs
            ),
        ),
        Claim(
            f"On {key}'s root LP presolve removes rows from both models, "
            "and at least as many from the Section-5 base model (its "
            "eq-4 rows are implied by eq 5) as from the tightened one: "
            f"base {root['base']}, tightened {root['tightened']}.",
            root["tightened"] > 0 and root["base"] >= root["tightened"],
        ),
    ]


def md_table(rows: Rows, columns: "List[str]") -> str:
    def fmt(v):
        if v is None:
            return "-"
        if v is True:
            return "Yes"
        if v is False:
            return "No"
        if isinstance(v, float):
            return f"{v:.2f}"
        return str(v)

    head = "| " + " | ".join(columns) + " |"
    rule = "|" + "|".join("---" for _ in columns) + "|"
    body = [
        "| " + " | ".join(fmt(r.get(c)) for c in columns) + " |" for r in rows
    ]
    return "\n".join([head, rule, *body])


def section(title: str, intro: str, rows: Rows, columns, claims) -> str:
    return "\n\n".join([
        title, intro, md_table(rows, columns),
        "\n".join(c.line() for c in claims),
    ]) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--time-limit", type=float, default=60.0)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()
    tl = args.time_limit

    print("Table 1 (base model, raw search, unguided)...")
    raw = {"branching": "pseudo-random", "plain_search": True}
    t1 = measure(table_rows("t1"), tl, "glover", tighten=False, **raw)
    print("Table 2 (tightened model, raw search, unguided)...")
    t2 = measure(table_rows("t2"), tl, tighten=True, **raw)
    print("Table 3 (graph-1 exploration, default solver)...")
    t3 = measure(table_rows("t3"), tl, "default")
    print("Table 4 (graphs 1-6, default solver)...")
    t4 = measure(table_rows("t4"), tl * 2)

    print("Ablation A (Fortet arm)...")
    glover = [r for r in t1 if r["graph"] == 1]
    fortet = measure(
        [r for r in table_rows("t1") if r.graph == 1], tl, "fortet",
        tighten=False, linearization="fortet", **raw,
    )
    print("Ablation B (branching rules)...")
    by_rule = {
        rule: measure(table_rows("t3"), tl / 2, rule, branching=rule,
                      plain_search=True)
        for rule in RULES
    }
    feasible_rows = [r for r in table_rows("t3") if r.paper_feasible]
    feasible3 = [r for r in t3 if r["paper_feasible"]]
    print("Ablation C (aggregated eq 8)...")
    aggregated = measure(feasible_rows, tl, "aggregated",
                         aggregated_dependencies=True)
    print("Ablation D (presolve off)...")
    no_presolve = measure(feasible_rows, tl, "no presolve", presolve=False)
    root_row = feasible_rows[0]
    root = root_lp_rows_removed(root_row)

    device = reference_device()
    sections = [
        "# EXPERIMENTS — paper vs measured\n",
        f"Generated by `scripts/run_experiments.py` on "
        f"{datetime.date.today().isoformat()}, Python "
        f"{platform.python_version()}, time limit {tl:g} s per solve "
        f"(Table 4: {tl * 2:g} s, Ablation B: {tl / 2:g} s), standing in "
        "for the paper's 7200 s cutoff on a 175 MHz UltraSparc.  Rerun "
        "the script to change this file; it is not edited by hand.\n",
        f"Platform: device capacity {device.capacity} effective FGs at "
        f"alpha = {device.alpha}, scratch memory {reference_memory().size} "
        "units.  Graph seeds: " + ", ".join(
            f"g{n}={seed}" for n, (_, _, seed) in sorted(PAPER_GRAPH_SPECS.items())
        ) + ".\n",
        "Reading guide: `runtime_s`/`status` are this machine; `paper_*` "
        "columns are the 1998 numbers.  Absolute runtimes are not "
        "comparable across 25 years of hardware and LP technology; the "
        "reproduction targets are the feasibility pattern and the "
        "orderings (tightened beats base; guided branching beats "
        "unguided).  A row *finishes* when it is decided, optimal or "
        "infeasible, inside its limit (`hit_limit` false); `timeout` "
        "means no incumbent, `feasible` an incumbent without proof.  "
        "Each bullet is a check over the rows above it: a "
        "**reproduced** claim fails the script when it does not hold, "
        "a **reported** one is printed with its verdict and does not.\n",
    ]
    all_claims: "List[Claim]" = []

    def add(title, intro, rows, columns, claims):
        all_claims.extend(claims)
        sections.append(section(title, intro, rows, columns, claims))

    add("## Table 1 — base formulation (Section 5)",
        "Base model, raw 1998-style search, unguided selection "
        "(deterministic pseudo-random, standing in for lp_solve's "
        "default).", t1, COLUMNS, table1_claims(t1, tl))
    add("## Table 2 — tightened constraints (Section 6)",
        "Same rows and search with the Section-6 tightening.",
        t2, COLUMNS, table2_claims(t1, t2, tl))
    add("## Table 3 — graph 1 latency/partition exploration",
        "Default solver: tightened model, paper branching rule, SOS1 "
        "propagation, slot prober and leaf sub-solves.",
        t3, COLUMNS, table3_claims(t3, tl))
    add("## Table 4 — graphs 1-6", "Default solver.",
        t4, COLUMNS, table4_claims(t4, tl * 2))

    sections.append("## Figures 3 and 4\n")
    sections.append(
        "Checked by tier-1 tests, not by this script:\n\n" + "\n".join(
            f"- `tests/test_paper_figures.py::{test_id}` — {text}"
            for test_id, text in FIGURE_TESTS
        ) + "\n"
    )

    sections.append("## Ablations\n")
    add("### A — Glover vs Fortet linearization (Section 4)",
        "Table 1's graph-1 rows: base model, raw search, unguided.",
        glover + fortet, ABLATION_COLUMNS,
        ablation_a_claims(glover, fortet, tl))
    add("### B — variable selection (Section 8)",
        "Table 3 rows, tightened model, raw search, four branching rules.",
        [r for rows in by_rule.values() for r in rows], ABLATION_COLUMNS,
        ablation_b_claims(by_rule, tl / 2))
    add("### C — pairwise vs aggregated eq 8",
        "Feasible Table 3 rows, default solver.",
        feasible3 + aggregated, ABLATION_COLUMNS,
        ablation_c_claims(feasible3, aggregated))
    add("### D — static presolve on vs off",
        "Feasible Table 3 rows, default solver with and without the "
        "prechecks and presolve.",
        feasible3 + no_presolve, ABLATION_COLUMNS,
        ablation_d_claims(feasible3, no_presolve, root, root_row.key))

    failed = [c for c in all_claims if c.gated and not c.holds]
    gated = [c for c in all_claims if c.gated]
    reported = [c for c in all_claims if not c.gated]
    sections.append(
        f"## Summary\n\n{len(gated) - len(failed)} of {len(gated)} "
        f"reproduced claims hold; {sum(c.holds for c in reported)} of "
        f"{len(reported)} reported claims hold at these limits.\n"
    )
    Path(args.out).write_text("\n".join(sections))
    print(f"wrote {args.out}")
    for claim in failed:
        print(f"NOT REPRODUCED: {claim.text}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
