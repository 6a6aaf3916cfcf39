"""Output checks that share no code with the program under test.

Every function here recomputes a result from first principles (its own
replay, BFS, degree count, minimax and closed forms) and raises CheckFailed
when the program's output disagrees.  Nothing is compared against a stored
copy of the program's own output: the one stored table, reference_n6.json,
is made by this module's minimax.  Make it anew with

    python3 perfbench/checks.py > perfbench/reference_n6.json
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

REFERENCE_N6 = Path(__file__).resolve().parent / "reference_n6.json"
GRID = [(a, b, d, first) for a in (1, 2) for b in (1, 2) for d in (2, 3) for first in ("maker", "breaker")]


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def lex_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


# --- graphs as neighbour bitmasks ---------------------------------------------


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def diameter_at_most(adj: list[int], d: int) -> bool:
    """Every vertex reaches every other within d steps (bitset BFS)."""
    n = len(adj)
    full = (1 << n) - 1
    for src in range(n):
        seen = frontier = 1 << src
        for _ in range(d):
            reach = 0
            f = frontier
            while f:
                low = f & -f
                reach |= adj[low.bit_length() - 1]
                f ^= low
            frontier = reach & ~seen
            seen |= frontier
            if seen == full or not frontier:
                break
        if seen != full:
            return False
    return True


def min_degree(adj: list[int]) -> int:
    return min(bin(x).count("1") for x in adj)


# --- transcripts --------------------------------------------------------------


def replay_transcript(text: str, early_stop: bool) -> dict:
    """Replay a transcript's JSONL text and recompute its verdict.

    Checks turn order, each turn's size against min(bias, remaining), edge
    form, disjoint ownership, the round count and the verdict; a game that
    ends without a Maker win (or any game played with early stop off) must
    have claimed every edge of K_n.  Returns the header, footer and Maker
    adjacency for workload-specific guarantees.
    """
    records = [json.loads(line) for line in text.splitlines()]
    require(len(records) >= 2, "transcript has no header and footer")
    head, foot = records[0], records[-1]
    require(head.get("type") == "header" and foot.get("type") == "footer", "bad transcript framing")
    n, a, b = head["n"], head["a"], head["b"]
    bias = {"maker": a, "breaker": b}
    remaining = n * (n - 1) // 2
    owner: dict[tuple[int, int], str] = {}
    to_move = head["first"]
    turns = records[1:-1]
    for turn_no, rec in enumerate(turns, start=1):
        require(rec.get("type") == "claim", f"record {turn_no} is not a claim")
        require(rec["turn"] == turn_no, f"turn {rec['turn']} out of sequence at {turn_no}")
        require(rec["player"] == to_move, f"turn {turn_no}: {rec['player']} moved on {to_move}'s turn")
        edges = [tuple(e) for e in rec["edges"]]
        require(
            len(edges) == min(bias[to_move], remaining),
            f"turn {turn_no}: {len(edges)} edges, expected {min(bias[to_move], remaining)}",
        )
        for e in edges:
            require(len(e) == 2 and 0 <= e[0] < e[1] < n, f"turn {turn_no}: bad edge {e}")
            require(e not in owner, f"turn {turn_no}: edge {e} claimed twice")
            owner[e] = to_move
        remaining -= len(edges)
        to_move = "breaker" if to_move == "maker" else "maker"
    require(foot["rounds"] == len(turns) // 2, f"rounds {foot['rounds']} != {len(turns) // 2}")
    maker_adj = adjacency(n, (e for e, who in owner.items() if who == "maker"))
    prop = head["property"]
    if prop.startswith("diameter<="):
        verdict = diameter_at_most(maker_adj, int(prop[len("diameter<="):]))
    elif prop.startswith("mindeg>"):
        verdict = min_degree(maker_adj) > int(prop[len("mindeg>"):])
    else:
        raise CheckFailed(f"unknown property {prop!r}")
    require(foot["verdict"] is verdict, f"verdict {foot['verdict']} but recomputed {verdict}")
    require(foot["winner"] == ("maker" if verdict else "breaker"), f"winner {foot['winner']} for verdict {verdict}")
    if not verdict or not early_stop:
        require(remaining == 0, f"game ended with {remaining} edges unclaimed")
    return {"head": head, "foot": foot, "maker_adj": maker_adj}


# --- guarantees of the strategies' theorems ---------------------------------


def mindeg_floor(n: int, a: int, b: int) -> int:
    """floor(d_max) of the degree game, after checking its four preconditions.

    d_max = a n/(a+b) - k with k = 6ab/(a+b)^1.5 sqrt(n ln n); the
    preconditions are a <= n/(4 ln n), d_max > 0, (1+l1)^b <= 1 + a l2 and
    T0 < 1, with l2 = sqrt((a+b) ln n / (a(a+1) n)) and l1 = (1+a l2)^(1/b) - 1.
    """
    ln_n = math.log(n)
    l2 = math.sqrt((a + b) * ln_n / (a * (a + 1) * n))
    l1 = (1 + a * l2) ** (1 / b) - 1
    k = 6 * a * b / (a + b) ** 1.5 * math.sqrt(n * ln_n)
    d_max = a * n / (a + b) - k
    t0_log = ln_n - (b * n / (a + b) + k) * math.log1p(l1) - d_max * math.log1p(-l2)
    require(a <= n / (4 * ln_n), "degree game: bias precondition fails")
    require(d_max > 0, "degree game: d_max <= 0")
    require((1 + l1) ** b <= (1 + a * l2) * (1 + 1e-9), "degree game: (1+l1)^b > 1 + a l2")
    require(t0_log < 0, "degree game: T0 >= 1")
    return math.floor(d_max)


def expansion_maker_wins(n: int, r: int, s: int, a: int, b: int) -> bool:
    """Any of the three Maker-win cases of the (a:b) (r,s)-expansion game."""
    ln_n = math.log(n)
    rl = r * math.log(a + 1)
    case_a = 2 * b * ln_n < rl
    case_b = b * ln_n < rl <= 2 * b * ln_n and s > r * b * ln_n / (rl - b * ln_n)
    case_c = n - s < n * rl / (b * ln_n + rl)
    return case_a or case_b or case_c


def esb_breaker_wins(sets, a: int, b: int) -> bool:
    """Erdos-Selfridge-Beck: sum over sets of (1+b)^(1-|A|/a) < 1."""
    return sum((1.0 + b) ** (1 - len(s) / a) for s in sets) < 1.0


def box_maker_wins(r: int, k: int, a: int, opponent_bias: int) -> bool:
    """Box game on k disjoint r-sets: r <= ((a-1)/opponent_bias) H_{k-1}."""
    h = sum(Fraction(1, i) for i in range(1, k))
    return Fraction(r) <= Fraction(a - 1, opponent_bias) * h


# --- exact values --------------------------------------------------------------


def minimax(n: int, a: int, b: int, d: int, first: str) -> str:
    """Winner of the (a:b) diameter-d game on K_n by plain memoised minimax.

    No symmetry reduction.  Positions are settled early only by the two
    monotone facts: Maker's graph already has diameter <= d, or Maker's
    graph plus every unclaimed edge no longer has.
    """
    edges = lex_edges(n)
    m = len(edges)
    full = (1 << m) - 1

    def reaches(mask: int) -> bool:
        return diameter_at_most(adjacency(n, (edges[i] for i in range(m) if mask >> i & 1)), d)

    memo: dict = {}

    def maker_wins(mm: int, bm: int, maker_moves: bool) -> bool:
        key = (mm, bm, maker_moves)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if reaches(mm):
            result = True
        elif not reaches(full & ~bm):
            result = False
        else:
            free = [i for i in range(m) if not (mm | bm) >> i & 1]
            k = min(a if maker_moves else b, len(free))
            moves = (sum(1 << i for i in c) for c in combinations(free, k))
            if maker_moves:
                result = any(maker_wins(mm | add, bm, False) for add in moves)
            else:
                result = all(maker_wins(mm, bm | add, True) for add in moves)
        memo[key] = result
        return result

    return "maker" if maker_wins(0, 0, first == "maker") else "breaker"


def load_reference_n6() -> dict:
    rows = json.loads(REFERENCE_N6.read_text())
    return {(6, r["a"], r["b"], r["d"], r["first"]): r["winner"] for r in rows}


def check_solve_values(values: dict, reference: dict) -> None:
    """values maps (n, a, b, d, first) to the program's winner."""
    for key, winner in values.items():
        require(key in reference, f"no reference value for {key}")
        require(winner == reference[key], f"solve{key} gave {winner}, reference says {reference[key]}")
    for n in sorted({k[0] for k in values}):
        if (n, 1, 1, 2, "maker") in values:
            require(values[(n, 1, 1, 2, "maker")] == "breaker", f"solve({n},1,1,2) is not a Breaker win")
    check_monotone(values)


def check_monotone(values: dict) -> None:
    """Maker's wins are monotone: more Maker bias, less Breaker bias, a looser
    diameter or moving first never turn a Maker win into a loss."""
    for (n, a, b, d, first), winner in values.items():
        if winner != "maker":
            continue
        better = [(n, a + 1, b, d, first), (n, a, b - 1, d, first), (n, a, b, d + 1, first), (n, a, b, d, "maker")]
        for key in better:
            if key in values:
                require(values[key] == "maker", f"Maker wins {(n, a, b, d, first)} but loses {key}")


def main() -> None:
    rows = [
        {"a": a, "b": b, "d": d, "first": first, "winner": minimax(6, a, b, d, first)}
        for a, b, d, first in GRID
    ]
    print(json.dumps(rows, indent=1))


if __name__ == "__main__":
    main()
