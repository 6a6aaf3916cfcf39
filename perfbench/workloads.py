"""The four workloads: their inputs, operations and output checks.

One operation is one match (run through run_experiment) or one solve /
verify_* call.  Workload.ops() builds a run's operations from the run
seed, once, and every round of the run plays all of them, so the share of
failed operations does not depend on the seed or the run length.  An
operation's run(tracer) returns (record, failure, payload): `record` is
the byte string compared between traced and untraced runs and hashed into
the run digest, `failure` is None or why the operation failed, and
`payload` is what check() examines.
"""

from __future__ import annotations

import json
import random

import checks
from diameter_games import (
    ExperimentConfig,
    PairingBreaker,
    Player,
    box_maker_select,
    esb_breaker_select,
    exp_condition,
    exp_maker_select,
    family_from_sets,
    graph_from_edges,
    has_expansion,
    run_experiment,
    solve,
    verify_family_one_sided,
    verify_final_property,
    verify_one_sided,
)
from spans import TracedStrategy, layer_patches, traced_function


class Op:
    def __init__(self, label: str, run, check):
        self.label = label
        self.run = run
        self.check = check


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}")

    def warmup(self) -> None:
        """Fill the program's lazy caches with one small call of each kind used."""

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def final_check(self) -> None:
        """Checks across all operations of the run, after the per-operation checks."""


# --- matches -----------------------------------------------------------------


def match_op(spec: dict, guarantee) -> Op:
    cfg = ExperimentConfig.from_json(spec)

    def run(tracer):
        if tracer is None:
            results = run_experiment(cfg)
        else:
            with layer_patches(tracer), tracer.span("harness.run_experiment"):
                results = run_experiment(cfg)
        tr = results[0].transcript
        text = tr.to_jsonl()
        failure = None
        if tr.fault is not None:
            failure = f"fault by {tr.fault.value}"
        elif tr.violations:
            failure = f"violations {tr.violations[:3]}"
        return text, failure, text

    def check(text):
        guarantee(checks.replay_transcript(text, cfg.early_stop))

    return Op(f"{spec['maker']}-vs-{spec['breaker']}-n{spec['n']}-seed{spec['seeds'][0]}", run, check)


class SimFull(Workload):
    """mindeg-maker (2:1) against random on K_200, played to the last edge."""

    name = "sim-full"
    N, A, B = 200, 2, 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self.floor = checks.mindeg_floor(self.N, self.A, self.B)

    def spec(self, n: int, match_seed: int, min_degree: int) -> dict:
        return {
            "name": self.name,
            "n": n,
            "a": self.A,
            "b": self.B,
            "maker": "mindeg-maker",
            "breaker": "random",
            "property_id": f"mindeg>{min_degree}",
            "seeds": [match_seed],
            "early_stop": False,
            "assert_invariants": True,
        }

    def warmup(self) -> None:
        match_op(self.spec(40, 0, 0), lambda replay: None).run(None)

    def ops(self) -> list[Op]:
        return [match_op(self.spec(self.N, self.rng().randrange(2**31), self.floor), self.guarantee)]

    def guarantee(self, replay: dict) -> None:
        # mindeg_params(200, 2, 1) meets all four preconditions, so the degree
        # game argument promises Maker a minimum degree above floor(d_max).
        low = checks.min_degree(replay["maker_adj"])
        checks.require(low > self.floor, f"Maker's minimum degree {low} <= floor(d_max) = {self.floor}")


class SimEarlyStop(Workload):
    """d2-breaker (bias 16) against three Makers on K_300, stopping at a Maker win."""

    name = "sim-early-stop"
    N = 300
    MAKERS = ("random", "path-greedy", "degree-greedy")

    def spec(self, n: int, maker: str, match_seed: int) -> dict:
        return {
            "name": self.name,
            "n": n,
            "a": 1,
            "d": 2,
            "maker": maker,
            "breaker": "d2-breaker",
            "seeds": [match_seed],
            "early_stop": True,
        }

    def warmup(self) -> None:
        for maker in self.MAKERS:
            match_op(self.spec(40, maker, 0), lambda replay: None).run(None)

    def ops(self) -> list[Op]:
        rng = self.rng()
        return [match_op(self.spec(self.N, m, rng.randrange(2**31)), self.guarantee) for m in self.MAKERS]

    @staticmethod
    def guarantee(replay: dict) -> None:
        foot = replay["foot"]
        checks.require(replay["head"]["b"] == 16, f"d2-breaker bias {replay['head']['b']} != 16 at n=300")
        checks.require(foot["winner"] == "breaker", "d2-breaker lost a match at n=300")
        checks.require(
            "breaker:d2-breaker-worst-case-box-condition-failed" not in foot["flags"],
            "d2-breaker flagged its worst-case box condition at n=300",
        )


# --- exact solving -------------------------------------------------------------


def solve_op(n: int, a: int, b: int, d: int, first: str, results: dict, reference) -> Op:
    key = (n, a, b, d, first)

    def run(tracer):
        fn = solve if tracer is None else tracer.wrap(solve, "exact_solver.solve")
        res = fn(n, a, b, d, Player(first))
        if tracer is not None:
            tracer.count("exact_solver.states_visited", res.states_visited)
            tracer.count("exact_solver.memo_entries", res.memo_entries)
        record = json.loads(res.to_json())
        del record["elapsed_seconds"]
        return json.dumps(record, sort_keys=True), None, res.winner.value

    def check(winner):
        results[key] = winner
        checks.check_solve_values({key: winner}, reference())

    return Op(f"solve{key}", run, check)


class ExactSolve(Workload):
    """solve() over a, b in {1,2}, d in {2,3} and both first movers, on n = 4, 5, 6."""

    name = "exact-solve"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.results: dict = {}
        self._reference: dict | None = None

    def reference(self) -> dict:
        # n <= 5 by this benchmark's own minimax, n = 6 from its stored table.
        if self._reference is None:
            table = checks.load_reference_n6()
            for n in (4, 5):
                for a, b, d, first in checks.GRID:
                    table[(n, a, b, d, first)] = checks.minimax(n, a, b, d, first)
            self._reference = table
        return self._reference

    def warmup(self) -> None:
        solve(6, 2, 1, 3, Player.MAKER)

    def ops(self) -> list[Op]:
        ops = [
            solve_op(n, a, b, d, first, self.results, self.reference)
            for n in (4, 5, 6)
            for a, b, d, first in checks.GRID
        ]
        self.rng().shuffle(ops)
        return ops

    def final_check(self) -> None:
        checks.require(len(self.results) == 48, f"{len(self.results)} of 48 grid cells solved")
        checks.check_solve_values(self.results, self.reference())


# --- one-sided verification -------------------------------------------------------


class ExpScript:
    """exp_maker_select as a scripted Maker; it rebuilds ExpMaker on every call."""

    layer = "expansion_games"
    name = "exp-script"

    def __init__(self, params):
        self.params = params

    def select(self, state):
        return exp_maker_select(state, self.params)


class LowestEdge:
    """Snapshot-pure weak side: the lexicographically lowest unclaimed edges."""

    layer = "bench"
    name = "lowest-edge"

    def select(self, state):
        return sorted(state.unclaimed)[: state.required_claim_count(state.to_move)]


def lowest_position(state):
    return state.unclaimed()[: state.required_claim_count(state.to_move)]


def board_key(state):
    return hash((frozenset(state.maker_edges), frozenset(state.breaker_edges)))


def family_key(state):
    return hash((frozenset(state.maker), frozenset(state.breaker)))


def verify_op(label: str, call, expected: bool) -> Op:
    """call(tracer) runs one verify_* call; theorem-backed cells expect True,
    the weak-side controls False."""

    def run(tracer):
        if tracer is None:
            ok = call(None)
        else:
            tracer.positions = set()
            with tracer.span("exact_solver.verify"):
                ok = call(tracer)
            tracer.count("exact_solver.scripted_distinct", len(tracer.positions))
        return str(ok), None, ok

    def check(ok):
        checks.require(ok is expected, f"{label}: verifier returned {ok}, expected {expected}")

    return Op(label, run, check)


def expansion_op(n: int, r: int, s: int, a: int, b: int, weak: bool = False) -> Op:
    params = exp_condition(n, r, s, a, b)

    def call(tracer):
        expand, from_edges = has_expansion, graph_from_edges
        script = LowestEdge() if weak else ExpScript(params)
        if tracer is not None:
            expand = tracer.wrap(has_expansion, "graph_metrics.has_expansion")
            from_edges = tracer.wrap(graph_from_edges, "graph_metrics.graph_from_edges")
            script = TracedStrategy(script, tracer, board_key)

        def predicate(snap):
            return expand(from_edges(n, snap.maker_edges), r, s)

        def prune(maker, breaker, unclaimed, log):
            if expand(from_edges(n, maker), r, s):
                return True
            if not expand(from_edges(n, maker | unclaimed), r, s):
                return False
            return None

        if tracer is not None:
            predicate = tracer.wrap(predicate, "bench.callback")
            prune = tracer.wrap(prune, "bench.callback")
        return verify_final_property(n, a, b, script, Player.MAKER, predicate, prune=prune)

    kind = "weak" if weak else "exp"
    return verify_op(f"{kind}({n},{r},{s},{a},{b})", call, expected=not weak)


def pairing_op(n: int, weak: bool = False) -> Op:
    def call(tracer):
        script = LowestEdge() if weak else PairingBreaker()
        if tracer is not None:
            script = TracedStrategy(script, tracer, board_key)
        return verify_one_sided(n, 1, 1, 2, script, Player.BREAKER)

    return verify_op(f"{'weak' if weak else 'pairing'}-breaker(n={n})", call, expected=not weak)


def family_op(label: str, universe: int, sets, a: int, b: int, select, side: Player, expected: bool) -> Op:
    family = family_from_sets(universe, sets)
    layer = "bench" if select is lowest_position else "potential_engine"

    def call(tracer):
        fn = select if tracer is None else traced_function(select, tracer, layer, family_key)
        return verify_family_one_sided(family, a, b, fn, side)

    return verify_op(label, call, expected)


class ExactVerify(Workload):
    """The one-sided verifiers driving scripted sides, plus one refuted weak side each."""

    name = "exact-verify"
    # Criterion-07 cells (n, r, s, a, b) whose verification takes 0.3 s to 10 s;
    # (7,2,5,1,1) took about 12 s and (7,1,6,1,2) did not finish in 12 s.
    EXP_CELLS = (
        (6, 2, 4, 1, 1),
        (7, 1, 5, 2, 1),
        (7, 1, 6, 1, 1),
        (7, 1, 6, 3, 4),
        (7, 2, 3, 3, 1),
        (7, 2, 3, 4, 1),
        (7, 2, 4, 2, 1),
        (7, 2, 5, 2, 2),
        (7, 2, 5, 3, 3),
        (7, 3, 4, 1, 1),
    )
    ESB_FAMILIES = 60
    BOX_GRID = [
        (r, k, a, ob) for r in range(1, 5) for k in range(2, 5) for a in range(1, 5) for ob in (1, 2)
    ]

    def warmup(self) -> None:
        for op in (expansion_op(5, 1, 3, 1, 1), pairing_op(4), self.box_ops()[0]):
            op.run(None)

    def esb_ops(self, rng: random.Random) -> list[Op]:
        """Random families on which the Erdos-Selfridge-Beck criterion promises Breaker the win."""
        ops = []
        while len(ops) < self.ESB_FAMILIES:
            universe = rng.randint(4, 12)
            sets = sorted(
                {
                    tuple(sorted(rng.sample(range(universe), rng.randint(2, min(6, universe)))))
                    for _ in range(rng.randint(2, 6))
                }
            )
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            if checks.esb_breaker_wins(sets, a, b):
                ops.append(
                    family_op(f"esb(u={universe},{sets},{a}:{b})", universe, sets, a, b,
                              esb_breaker_select, Player.BREAKER, True)
                )
        return ops

    def box_ops(self) -> list[Op]:
        return [
            family_op(f"box(r={r},k={k},{a}:{ob})", r * k, [range(i * r, (i + 1) * r) for i in range(k)],
                      a, ob, box_maker_select, Player.MAKER, True)
            for r, k, a, ob in self.BOX_GRID
            if checks.box_maker_wins(r, k, a, ob)
        ]

    def ops(self) -> list[Op]:
        rng = self.rng()
        for cell in self.EXP_CELLS:
            checks.require(checks.expansion_maker_wins(*cell), f"{cell} is not a Maker-win cell")
        ops = [expansion_op(*cell) for cell in self.EXP_CELLS]
        ops += [pairing_op(5)] + self.esb_ops(rng) + self.box_ops()
        # Weak sides each verifier must refute: lowest-edge Breaker and Maker on
        # K_5, and on families a lowest-position Breaker against {{1,2}} over
        # {0,1,2} and a lowest-position Maker against the boxes {0,1}, {2,3}.
        ops += [
            pairing_op(5, weak=True),
            expansion_op(5, 1, 3, 1, 1, weak=True),
            family_op("weak-family-breaker", 3, [(1, 2)], 1, 1, lowest_position, Player.BREAKER, False),
            family_op("weak-family-maker", 4, [(0, 1), (2, 3)], 1, 1, lowest_position, Player.MAKER, False),
        ]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (SimFull, SimEarlyStop, ExactSolve, ExactVerify)}
