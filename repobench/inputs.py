"""Seeded inputs for the workloads, and the small references that
check the program's answers.

Everything a workload feeds the program is generated here from the
workload seed: profile campaigns, metric/key/query pools, request
mixes and ingest payloads.  The same seed gives the same inputs.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

from repro.caliper.writer import profile_to_cali_dict, write_cali_json
from repro.workloads import iter_raja_profiles


def stream_rng(seed: int, stream: str) -> random.Random:
    """An independent RNG for one named input stream of a seed."""
    return random.Random(f"{seed}:{stream}")


def profile_base_seed(seed: int, stream: str) -> int:
    """Base seed for a generated campaign (profiles count up from it)."""
    return stream_rng(seed, stream).randrange(1, 2**31 - 100_000)


def campaign_payloads(campaign, scale: float, base_seed: int,
                      limit: int | None = None) -> list[dict]:
    """Cali-JSON payload dicts of a RAJAPerf campaign."""
    out = []
    for profile in iter_raja_profiles(campaign, scale, base_seed=base_seed):
        out.append(profile_to_cali_dict(profile))
        if limit is not None and len(out) >= limit:
            break
    return out


def write_campaign(out_dir: Path, campaign, scale: float,
                   base_seed: int) -> list[Path]:
    """Write a RAJAPerf campaign directory; returns the file paths."""
    out_dir.mkdir(parents=True)
    return [write_cali_json(profile, out_dir / f"rajaperf_{i:04d}.json")
            for i, profile in enumerate(
                iter_raja_profiles(campaign, scale, base_seed=base_seed))]


def deck(rng: random.Random, mix: dict[str, int]):
    """Endless kinds in the exact proportions of *mix*: decks of
    ``sum(mix.values())`` cards, each shuffled by *rng*.  Every run then
    holds the same mix, and seeds differ in order and arguments."""
    cards = [kind for kind, n in mix.items() for _ in range(n)]
    while True:
        rng.shuffle(cards)
        yield from cards


def zipf_index(rng: random.Random, n: int, s: float = 0.8) -> int:
    """Index in ``range(n)`` drawn with Zipf skew (0 most popular).

    The exponent ``s = 0.8`` is an assumption: no trace of real query
    popularity backs it.  It only has to make some queries repeat often
    enough to hit the result cache while the pool still overflows it.
    """
    return rng.choices(range(n), [k ** -s for k in range(1, n + 1)])[0]


# ----------------------------------------------------------------------
# string-dialect query pool with a name-walk reference
# ----------------------------------------------------------------------

def _descendants(node) -> list:
    out, todo = [], [node]
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(n.children)
    return out


def _ancestors(node) -> list:
    out, todo = [], list(node.parents)
    while todo:
        n = todo.pop()
        out.append(n)
        todo.extend(n.parents)
    return out


#: Whether a trailing ``("*")`` matches zero nodes at a leaf (see
#: :func:`reference_match`).
_STAR_AT_LEAF = False


def _anchors(node) -> bool:
    """May ``(".", p)->("*")`` match with ``p`` bound to *node*?"""
    return _STAR_AT_LEAF or bool(node.children)


def _by_name(graph, name: str) -> list:
    return [n for n in graph.traverse() if n.frame.name == name]


def reference_match(graph, kind: str, args: tuple) -> list:
    """Nodes a query template matches, found by walking names.

    The engine matches downward paths that start at any node and keeps
    the union of their nodes; each template's union is spelled out
    here directly.

    One rule follows the engine as it is, not Hatchet: a trailing
    ``("*")`` step matches zero nodes only where the path can go on
    into a child.  So ``(".", p)->("*")`` matches nothing when ``p`` is
    a leaf, where Hatchet would match ``p`` itself.  A change to the
    engine's rule must change ``_STAR_AT_LEAF`` with it.
    """
    keep: dict[int, object] = {}
    if kind == "exact":            # the named nodes
        hits = _by_name(graph, args[0])
    elif kind == "subtree":        # named nodes and everything below
        hits = [d for n in _by_name(graph, args[0]) if _anchors(n)
                for d in _descendants(n)]
    elif kind == "ancestry":       # named nodes and everything above
        hits = [a for n in _by_name(graph, args[0])
                for a in [n] + _ancestors(n)]
    elif kind == "edge":           # parent named P with a child named C
        hits = []
        for p in _by_name(graph, args[0]):
            kids = [c for c in p.children if c.frame.name == args[1]]
            if kids:
                hits.append(p)
                hits.extend(kids)
    elif kind == "prefix":         # regex-prefix nodes and their subtrees
        rx = re.compile(re.escape(args[0]) + ".*")
        hits = [d for n in graph.traverse()
                if rx.fullmatch(n.frame.name) and _anchors(n)
                for d in _descendants(n)]
    else:
        raise ValueError(f"unknown query template {kind!r}")
    for n in hits:
        keep.setdefault(id(n), n)
    return list(keep.values())


_TEMPLATES = {
    "exact": 'MATCH (".", p) WHERE p."name" = "{0}"',
    "subtree": 'MATCH (".", p)->("*") WHERE p."name" = "{0}"',
    "ancestry": 'MATCH ("*")->(".", p) WHERE p."name" = "{0}"',
    "edge": ('MATCH (".", p)->(".", q) '
             'WHERE p."name" = "{0}" AND q."name" = "{1}"'),
    "prefix": 'MATCH (".", p)->("*") WHERE p."name" =~ "{0}.*"',
}


def query_pool(graph, rng: random.Random) -> list[tuple[str, str, tuple]]:
    """Every distinct ``(expression, template, args)`` the templates
    give on *graph*, most popular first (rank for Zipf skew).

    Queries are grouped by template and result size, and the ranks
    cycle through the groups in a fixed pattern; the seed only shuffles
    which query of a group takes each rank.  So every seed's popular
    queries cost about the same, and seeds differ in which ones they
    are, not in how much work they make.
    """
    names = sorted({n.frame.name for n in graph.traverse()})
    edges = sorted({(p.frame.name, c.frame.name)
                    for p in graph.traverse() for c in p.children})
    prefixes = sorted({n.split("_")[0] for n in names if "_" in n})
    entries = [(kind, (n,)) for kind in ("exact", "subtree", "ancestry")
               for n in names]
    entries += [("edge", e) for e in edges]
    entries += [("prefix", (p,)) for p in prefixes]
    groups: dict[tuple, list] = {}
    for kind, args in entries:
        size = len(reference_match(graph, kind, args))
        bucket = 0 if size <= 1 else 1 if size <= 3 else 2 if size <= 12 \
            else 3
        groups.setdefault((kind, bucket), []).append((kind, args))
    order = sorted(groups)
    for key in order:
        rng.shuffle(groups[key])
    # smooth weighted round robin: each group takes ranks in proportion
    # to its size, in an order fixed by the graph alone
    credit = {key: 0 for key in order}
    pool = []
    while len(pool) < len(entries):
        for key in order:
            credit[key] += len(groups[key])
        key = max((k for k in order if groups[k]), key=credit.__getitem__)
        credit[key] -= len(entries)
        pool.append(groups[key].pop())
    return [(_TEMPLATES[k].format(*a), k, a) for k, a in pool]
