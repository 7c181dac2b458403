"""The benchmark's workloads: fixed lists of coarsekit CLI commands.

Each workload is a list of command slots.  A slot holds a small pinned
family of argv variants that do the same work on the same window: either
another spelling of the same schedule ("1..4" against "1,2,3,4") or a
change to a level the construction never selects (the embed schedule
stops at level 28; its last level is scanned by no audit).  The seed
picks one variant per slot and, for workloads with several commands,
whether they run in listed or reversed order.  Seed 0 gives the first
variant of every slot, in listed order.

There are two workloads, not more: on a shared host a command's time
drifts by a quarter and more over tens of seconds, and only runs of a
minute (which the time allowed for all runs permits for two workloads)
keep the spread of ``window-emit`` within its bound.  The extension
cover, profile and property A commands therefore share one workload.
"""

from __future__ import annotations

WORKLOADS = {
    # The only workload where JSON emission dominates: 1,793 points and an
    # n x n distance matrix written to stdout (24 MB).  Covers, property A
    # and dimension are bypassed.
    "window-emit": [
        [
            ["ball", "--group", "heisenberg", "--radius", "8"],
        ],
    ],
    # Window fill, extension_cover with its retry, complement distances,
    # independent_audit and the greedy search with its subset oracle
    # (gromov, profile); then pair scans over sparse vectors: variation
    # reports, the embedding band audit and the CLI's distance buckets, on
    # lattice windows with no per-pair fill (certify-a, embed).  Outputs
    # are a few hundred bytes, so emission is bypassed.
    "covers-and-property-a": [
        [
            ["gromov", "--group", "heisenberg", "--cap", "6", "--lambda", "1..2", "--radius", "9"],
            ["gromov", "--group", "heisenberg", "--cap", "6", "--lambda", "1,2", "--radius", "9"],
        ],
        [
            ["profile", "--group", "zn:2", "--lambda", "1..4", "--diam-policy", "0,4", "--radius", "14"],
            ["profile", "--group", "zn:2", "--lambda", "1,2,3,4", "--diam-policy", "0,4", "--radius", "14"],
        ],
        [
            ["certify-a", "--group", "zn:2", "--radius", "14", "--p", "2", "--n", "2..5", "--K", "1,2,4"],
            ["certify-a", "--group", "zn:2", "--radius", "14", "--p", "2", "--n", "2,3,4,5", "--K", "1,2,4"],
        ],
        [
            ["embed", "--group", "zn:1", "--radius", "90", "--p", "2", "--levels", "3,7,15,28,50", "--budget", "4"],
            ["embed", "--group", "zn:1", "--radius", "90", "--p", "2", "--levels", "3,7,15,28,49", "--budget", "4"],
            ["embed", "--group", "zn:1", "--radius", "90", "--p", "2", "--levels", "3,7,15,28,51", "--budget", "4"],
        ],
    ],
}


def commands(workload: str, seed: int) -> list:
    """The argv lists one run of ``workload`` executes, in order.

    The seed is read as a mixed-radix number: for a workload of several
    commands its lowest binary digit reverses their order, and then one
    digit per slot picks the variant.
    """
    slots = WORKLOADS[workload]
    rest = seed
    reverse = False
    if len(slots) > 1:
        reverse, rest = rest % 2 == 1, rest // 2
    picked = []
    for family in slots:
        picked.append(list(family[rest % len(family)]))
        rest //= len(family)
    if reverse:
        picked.reverse()
    return picked


def all_commands() -> list:
    """Every argv any seed can produce, for recording references."""
    return [list(argv) for slots in WORKLOADS.values() for family in slots for argv in family]
