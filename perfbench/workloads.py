"""The benchmark's workloads: inputs made from a seed, ops, and output checks.

A workload builds its inputs once (set-up), then runs *passes*: one pass
runs every op of the workload once, in a fixed order, and returns each op's
output.  Passes over the same inputs must return identical outputs.

- ``search``: one ``worstcase.search_max_loss`` run on the ordered family of
  acceptance criterion 06, one pass per run.  An op is one scenario
  evaluation, i.e. one ``worstcase.verified_equilibria`` call of the search.
- ``enumerate``: ``equilibrium.enumerate_pure_equilibria`` over a corpus of
  ``worstcase.random_scenario`` draws with 10 or 12 active taste cells,
  repeated over several passes.  An op is one scenario.
- ``cli``: seeded scripts of in-process ``cli.main(argv)`` calls with stdout
  captured, repeated over many passes.  An op is one invocation.

Repeated passes feed the same inputs to the package again, so a cache that
outlives one op would show here as a gain no user gets; the per-layer
counters (``engine.compile_scenario.per_scenario`` and the call counts) are
there to expose one.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

import numpy as np

from tracing import patch, unpatch

VERDICTS = frozenset(
    {"epsilon_equilibrium", "equilibrium_limit", "not_equilibrium", "undefined_cells"}
)
PASSING = frozenset({"epsilon_equilibrium", "equilibrium_limit"})


class Ops:
    """Times each op of a pass; the tracer, when given, tags spans with the op id."""

    def __init__(self, tracer=None) -> None:
        self.times: list[float] = []
        self.tracer = tracer

    def run(self, fn: Callable, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = len(self.times)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times.append(perf_counter() - start)


@dataclass
class PassOutput:
    outputs: list[Any]  # one per op; an exception instance when the op raised
    job: Any = None  # whole-pass result (the search witness)


@dataclass
class Measurement:
    walls: list[float] = field(default_factory=list)  # untraced passes
    traced_walls: list[float] = field(default_factory=list)
    op_times: list[list[float]] = field(default_factory=list)  # per untraced pass
    traced_op_times: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    found: int = 0


def op_medians(passes: list[list[float]]) -> list[float]:
    """Each op's median time over the given passes."""
    return [statistics.median(times) for times in zip(*passes)]


def measure(workload, passes: int, tracer=None) -> Measurement:
    """Run ``passes`` untraced passes over the workload's inputs.

    With a tracer, a traced pass runs between each two consecutive untraced
    passes, so every traced pass has an untraced neighbour on either side.
    Every pass is judged op by op: the first pass's outputs must pass the
    workload's checks, and every later pass must reproduce them.
    """
    m = Measurement()
    reference = first_ok = None

    def judge(out) -> None:
        nonlocal reference, first_ok
        fp = workload.fingerprint(out)
        if reference is None:
            reference, first_ok = fp, workload.check(out)
            m.found = workload.found(out)
        ok = [i < len(reference) and fp[i] == reference[i] and first_ok[i] for i in range(len(fp))]
        m.attempted += len(ok)
        m.failed += ok.count(False)

    for i in range(passes):
        if tracer is not None and i > 0:
            undo = tracer.install()
            try:
                ops = Ops(tracer)
                t0 = perf_counter()
                out = workload.run_pass(ops)
                m.traced_walls.append(perf_counter() - t0)
                m.traced_op_times.append(ops.times)
            finally:
                unpatch(undo)
            judge(out)
        ops = Ops()
        t0 = perf_counter()
        out = workload.run_pass(ops)
        m.walls.append(perf_counter() - t0)
        m.op_times.append(ops.times)
        judge(out)
    return m


def _profile_bytes(profile) -> tuple[bytes, ...]:
    return tuple(np.asarray(s, dtype=np.float64).tobytes() for s in profile.sigmas)


def _equilibria_fingerprints(out: PassOutput) -> list:
    """Per op: each returned equilibrium's profile bytes, verdict and values."""
    return [
        repr(o) if isinstance(o, Exception) else tuple(
            (_profile_bytes(prof), rep.verdict, rep.welfare_loss, rep.error_probability)
            for prof, rep in o
        )
        for o in out.outputs
    ]


def _equilibria_found(out: PassOutput) -> int:
    return sum(len(o) for o in out.outputs if not isinstance(o, Exception))


class Search:
    """Worst-equilibrium search over complete, quasi-transitive type chains."""

    name = "search"
    gamma = 0.3
    # One pass of distinct restarts.  Evaluation cost is heavy-tailed and
    # splits by type structure (6, 10 or 12 active cells), so a run needs a
    # few hundred evaluations before its median and tail stop hinging on the
    # seed's mix of structures.  Three passes of a third as many restarts
    # left the tail moving by nearly half from seed to seed.  The
    # refinement budget is zero: refinement probes cluster around four
    # candidates, which makes a run's work hinge on them, and they do the same
    # work as restarts.
    evaluations_per_second = 14
    passes = 1
    expected = (
        "worstcase.search_max_loss",
        "worstcase.verified_equilibria",
        "equilibrium.enumerate_pure_equilibria",
        "equilibrium.dynamics_batch",
        "equilibrium.certify_equilibrium",
        "equilibrium.verify_limit",
        "engine.check_rungs",
        "engine.profile_effects",
        "engine.apply_compiled_trembles",
        "engine.compile_scenario",
        "causal.delta_table",
        "model.welfare",
    )
    absent = ("cli.main",)

    def __init__(self, bci, seed: int, seconds: float) -> None:
        self.bci = bci
        evaluations = self.evaluations_per_second * seconds
        self.cfg = bci.worstcase.SearchConfig(
            gamma=self.gamma,
            t_only_outcome=True,
            simple_types=True,
            p_structure="complete_qt",
            metric="error_probability",
            param_scale=4.0,
            refine_top=4,
            restarts=max(20, round(evaluations)),
            refine_rounds=0,
            seed=seed,
        )
        self.bound = self.gamma * (1.0 - self.gamma) + 1e-6

    def warm_up(self) -> None:
        # one fixed scenario, whatever the seed, so set-up time does not
        # hinge on the size of a seed-drawn one
        wc = self.bci.worstcase
        rng = np.random.default_rng(0)
        wc.verified_equilibria(wc.random_scenario(self.cfg, rng), rng)

    def run_pass(self, ops: Ops) -> PassOutput:
        wc = self.bci.worstcase
        outputs: list[Any] = []
        inner = wc.verified_equilibria

        def timed(*args, **kwargs):
            out = ops.run(inner, *args, **kwargs)
            outputs.append(out)
            return out

        undo = patch(inner, timed)
        try:
            witness, _ = wc.search_max_loss(self.cfg)
        except Exception as exc:  # counted as failed ops, reported by the caller
            return PassOutput(outputs + [exc], None)
        finally:
            unpatch(undo)
        return PassOutput(outputs, witness)

    def fingerprint(self, out: PassOutput) -> list:
        return _equilibria_fingerprints(out)

    def check(self, out: PassOutput) -> list[bool]:
        """Each evaluation's equilibria are verified limits within the error
        bound, and the search's witness re-verifies from primitives."""
        job_ok = out.job is not None and (
            self.bci.worstcase.reverify(out.job).verdict == "equilibrium_limit"
            and out.job.claimed_error_probability <= self.bound
        )
        return [
            job_ok
            and not isinstance(o, Exception)
            and all(
                rep.verdict == "equilibrium_limit" and rep.error_probability <= self.bound
                for _, rep in o
            )
            for o in out.outputs
        ]

    def found(self, out: PassOutput) -> int:
        return _equilibria_found(out)


class Enumerate:
    """Exhaustive pure enumeration over seeded random scenarios."""

    name = "enumerate"
    # Scenarios per active-cell count (1k and 4k pure profiles).  Fixed counts
    # keep a corpus's work from hinging on how many large draws a seed makes;
    # unequal ones keep the median op inside the 12-cell stratum instead of in
    # the gap between the strata, where it would jump from seed to seed.
    # Drawn taste masses are all positive, so every condition cell is active
    # at both tastes and the count is always even.
    strata = {10: 40, 12: 80}
    # the corpus is small enough to repeat: op times are medians over the passes
    seconds_per_pass = 3.9
    expected = (
        "equilibrium.enumerate_pure_equilibria",
        "equilibrium.certify_equilibrium",
        "equilibrium.verify_limit",
        "engine.check_rungs",
        "engine.profile_effects",
        "engine.apply_compiled_trembles",
        "engine.compile_scenario",
        "causal.delta_table",
        "model.welfare",
    )
    absent = ("equilibrium.dynamics_batch", "worstcase.verified_equilibria", "cli.main")

    def __init__(self, bci, seed: int, seconds: float) -> None:
        self.bci = bci
        self.passes = max(3, round(seconds / self.seconds_per_pass))
        wc = bci.worstcase
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        want = dict(self.strata)
        self.corpus: list[Any] = []
        # A type has 2 * 2^|C| active cells (binary covariates), so one type
        # (a power of two), four distinct types (at least 2 + 4 + 4 + 4) and a
        # strictly nested chain of three (at least 2 + 4 + 8) never make 10 or
        # 12 cells.  Those draws are dropped before a scenario is made, which
        # leaves the corpus's distribution as it is and halves the set-up work.
        while any(want.values()):
            structure = ("complete_qt", "free")[int(rng.integers(2))]
            n_cov = int(rng.integers(2, 4))
            n_types = int(rng.integers(1, 5))
            if n_types in (1, 4) or (structure == "complete_qt" and n_types == 3):
                continue
            cfg = wc.SearchConfig(p_structure=structure, n_covariates=n_cov, n_types=n_types)
            try:
                scenario = wc.random_scenario(cfg, rng)
            except wc.WorstCaseError:  # free draws can fail to find distinct types
                continue
            cells = sum(
                int((scenario.taste_cell_mass(i) > 0).sum()) for i in range(scenario.n_types)
            )
            if want.get(cells, 0) > 0:
                want[cells] -= 1
                self.corpus.append(scenario)

    def warm_up(self) -> None:
        self.bci.equilibrium.enumerate_pure_equilibria(self.corpus[0])

    def run_pass(self, ops: Ops) -> PassOutput:
        enumerate_pure = self.bci.equilibrium.enumerate_pure_equilibria
        outputs: list[Any] = []
        for scenario in self.corpus:
            try:
                outputs.append(ops.run(enumerate_pure, scenario))
            except Exception as exc:  # counted as a failed op
                outputs.append(exc)
        return PassOutput(outputs)

    def fingerprint(self, out: PassOutput) -> list:
        return _equilibria_fingerprints(out)

    def check(self, out: PassOutput) -> list[bool]:
        """Every returned profile is pure and re-passes ``verify_limit`` under
        the schedule its report names."""
        verify_limit = self.bci.equilibrium.verify_limit
        return [
            not isinstance(o, Exception)
            and all(
                prof.is_pure()
                and verify_limit(scenario, prof, rep.schedule).verdict == "equilibrium_limit"
                for prof, rep in o
            )
            for scenario, o in zip(self.corpus, out.outputs)
        ]

    def found(self, out: PassOutput) -> int:
        return _equilibria_found(out)


def _cli_script(rng: np.random.Generator) -> list[list[str]]:
    """One pass of CLI invocations; the seed picks parameters and the solve seed."""

    def pick(values) -> str:
        return str(values[int(rng.integers(len(values)))])

    q_lo = pick(("0.75", "0.8", "0.85"))
    return [
        ["sweep", "example_3_1", "--q", f"{q_lo}:0.95:0.05", "--c", pick(("0.3", "0.4", "0.5", "0.6"))],
        ["sweep", "pandemic", "--q", f"{pick(('0.55', '0.6', '0.65'))}:0.95:0.1", "--format", "json"],
        ["sweep", "prop5", "--gamma", f"{pick(('0.3', '0.35', '0.4'))}:0.7:0.1"],
        ["verify", "-b", "example_3_1", "--limit", "--q", pick(("0.8", "0.85", "0.9")), "--format", "json"],
        ["verify", "-b", "pandemic", "--limit", "--format", "json"],
        ["verify", "-b", "pandemic", "--q", pick(("0.7", "0.8", "0.9")), "--format", "json"],
        ["verify", "-b", "example_1_1_collider", "--c", pick(("0.3", "0.5", "0.7")), "--format", "json"],
        ["delta", "-b", "example_3_1", "--q", pick(("0.8", "0.85", "0.9")), "--format", "csv"],
        ["delta", "-b", "pandemic", "--format", "json"],
        ["enumerate", "-b", "example_3_1", "--format", "json"],
        ["enumerate", "-b", "pandemic", "--q", pick(("0.7", "0.8", "0.9")), "--format", "json"],
        ["enumerate", "-b", "prop5", "--format", "csv"],
        ["worstcase", "witness", "incomplete", "--eps", pick(("0.01", "0.02", "0.05")), "--format", "json"],
        ["worstcase", "witness", "cycle", "--format", "json"],
        ["worstcase", "witness", "full_loss", "--gamma", pick(("0.4", "0.5", "0.6")), "--format", "json"],
        ["worstcase", "witness", "incomplete_hetero", "--format", "json"],
        ["scenario", "run", "pandemic", "--format", "json"],
        ["scenario", "run", "prop4", "--format", "json"],
        ["scenario", "run", "example_3_1", "--format", "json"],
        ["scenario", "run", "prop2_cycle", "--format", "json"],
        ["order", "-b", "example_3_1", "--format", "json"],
        ["order", "--types", "[{C:[1],D:[1]},{C:[2],D:[1,2]}]", "--format", "json"],
        ["solve", "-b", "example_3_1", "--seed", pick(range(100)), "--inits", "2", "--format", "json"],
    ]


def _parse(argv: list[str], text: str) -> Any:
    """Parse one invocation's stdout; CSV becomes a list of row dicts."""
    # every scripted call names its format except sweeps, which default to CSV
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged or empty CSV")
        return [dict(zip(rows[0], r)) for r in rows[1:]]
    raise ValueError(f"no parser for format {fmt!r}")


def _verdicts(payload: Any):
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key == "verdict":
                yield value
            else:
                yield from _verdicts(value)
    elif isinstance(payload, list):
        for item in payload:
            yield from _verdicts(item)


class Cli:
    """In-process CLI invocations at batch size one, output exported as text."""

    name = "cli"
    scripts = 5
    seconds_per_pass = 1.2
    expected = (
        "cli.main",
        "document.export",
        "equilibrium.enumerate_pure_equilibria",
        "equilibrium.dynamics_batch",
        "equilibrium.certify_equilibrium",
        "equilibrium.verify_limit",
        "equilibrium.verify_eps_equilibrium",
        "engine.check_rungs",
        "engine.profile_effects",
        "engine.apply_compiled_trembles",
        "engine.compile_scenario",
        "causal.delta_table",
        "model.welfare",
    )
    absent = ("worstcase.search_max_loss",)

    def __init__(self, bci, seed: int, seconds: float) -> None:
        self.bci = bci
        self.passes = max(5, round(seconds / self.seconds_per_pass))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        self.script = [argv for _ in range(self.scripts) for argv in _cli_script(rng)]
        self.reference: list[Any] = []

    def _invoke(self, argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.bci.cli.main(argv)
        return code, out.getvalue()

    def warm_up(self) -> None:
        # the warm-up outputs are the reference every timed pass must match
        self.reference = [self._invoke(argv) for argv in self.script]

    def run_pass(self, ops: Ops) -> PassOutput:
        outputs: list[Any] = []
        for argv in self.script:
            try:
                outputs.append(ops.run(self._invoke, argv))
            except Exception as exc:  # counted as a failed op
                outputs.append(exc)
        return PassOutput(outputs)

    def fingerprint(self, out: PassOutput) -> list:
        return [repr(o) if isinstance(o, Exception) else o for o in out.outputs]

    def _op_ok(self, argv: list[str], got: Any, ref: Any) -> bool:
        if isinstance(got, Exception) or got != ref or got[0] != 0:
            return False
        try:
            payload = _parse(argv, got[1])
        except ValueError:  # json.JSONDecodeError is a ValueError
            return False
        return all(v in VERDICTS for v in _verdicts(payload))

    def check(self, out: PassOutput) -> list[bool]:
        """Exit code 0, parseable output, known verdicts, and byte-identical
        output to the same invocation's warm-up run."""
        return [
            self._op_ok(argv, got, ref)
            for argv, got, ref in zip(self.script, out.outputs, self.reference)
        ]

    def found(self, out: PassOutput) -> int:
        total = 0
        for argv, got, ok in zip(self.script, out.outputs, self.check(out)):
            if not ok:
                continue
            payload = _parse(argv, got[1])
            if isinstance(payload, dict) and "equilibria" in payload:
                total += len(payload["equilibria"])
            else:
                total += sum(1 for v in _verdicts(payload) if v in PASSING)
        return total


WORKLOADS = {cls.name: cls for cls in (Search, Enumerate, Cli)}
