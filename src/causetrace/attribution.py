"""Violation cause attribution: which component, then which output message.

Component level: one counterfactual re-run with all four substitutable
components idealized decides whether planning is the cause (violation
persists); otherwise the components are probed one by one in a fixed order and
the first whose substitution flips the verdict is returned.

Message level: for planning, a zero-simulation scan for the first output
message that itself violates the driving rules; for everything else, a binary
search over the quantized vehicle-dynamic states of the original trace,
re-running with the substitute active from a candidate state onward.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from .middleware import TICK_PRIORITY, ComponentId, Message, Trace
from .oracles import (OracleConfig, planning_message_violates, safe_distance_objects,
                      trajectory_is_held)
from .pipeline import make_planner_context
from .runner import (AdsConfig, ForkMemo, RunResult, collector_paused, rtest,
                     run_with_substitution)
from .scenario import Scenario
from .substitutes import IdealFromState, IdealWithinStates, SubstitutionPlan, split_trace

PROBE_ORDER = (ComponentId.PERCEPTION, ComponentId.PREDICTION,
               ComponentId.CONTROL, ComponentId.LOCALIZATION)
SUBSTITUTABLE = PROBE_ORDER  # everything but planning
STRATEGIES = ("binary", "interval-dd")


class NoViolation(Exception):
    """Attribution requires a violating scenario run."""


class Unattributable(Exception):
    """No single component substitution flips the verdict."""

    def __init__(self, outcomes: dict[str, bool]):
        self.outcomes = outcomes
        super().__init__(f"no single substitution flips the verdict: {outcomes}")


class MonotonicityViolation(Exception):
    """The suffix predicate is not clean-monotone for this instance."""

    def __init__(self, outcomes: list[tuple[int, bool]]):
        self.outcomes = outcomes
        super().__init__("dtest suffix predicate is not monotone")


class NoViolatingPlanningMessage(Exception):
    """The planning row contains no message that violates the driving rules."""


class DtestSession:
    """Runs and counts counterfactual re-runs for one attribution task; `calls`
    counts those not answered by the session's cache.

    Each re-run is forked from `origin`, the original run's trace, where its
    substitute first publishes something the original did not, and stops once
    its verdict is decided. The session's `memo` holds the verdict of every
    simulated re-run under each frame state it passed: a re-run that reaches one
    of them stops there and takes that verdict (`memo.merges`), as does one that
    forks at the same state as an earlier one, with the same substitutes active
    from there on, at its first frame sample. One that comes to rest in a still
    world stops where its frame state repeats, with the verdict of its resting
    pose (`memo.fast_forwards`). See `run_with_substitution` and `run_scheduler`.
    """

    def __init__(self, scenario: Scenario, ads: AdsConfig, oracles: OracleConfig,
                 origin: Trace):
        self.scenario = scenario
        self.ads = ads
        self.oracles = oracles
        self.origin = origin
        self.calls = 0
        self.stepped_ms = 0  # simulated ms the re-runs stepped; copied prefixes excluded
        self.prefix_decided = 0  # re-runs decided from the original run without a step
        # .merges: re-runs decided by an earlier re-run's verdict at a frame state;
        # .fast_forwards: re-runs stopped at rest
        self.memo = ForkMemo()
        self._cache: dict[tuple, bool] = {}

    def passed(self, plan: SubstitutionPlan) -> bool:
        key = tuple(sorted((c.value, repr(m)) for c, m in plan.modes.items()))
        if key in self._cache:
            return self._cache[key]
        self.calls += 1
        merges = self.memo.merges
        verdict, trace = run_with_substitution(self.scenario, self.ads, plan, self.oracles,
                                               origin=self.origin, memo=self.memo)
        stepped = trace.ego_log[-1].t - trace.forked_at
        self.stepped_ms += stepped
        self.prefix_decided += stepped == 0 and self.memo.merges == merges
        self._cache[key] = verdict.passed
        return verdict.passed


def attribute_component(session: DtestSession, original: RunResult
                        ) -> tuple[ComponentId, dict[str, bool]]:
    """Algorithm: rule out planning first, then probe components in order.

    Returns (component, probe outcomes).
    """
    if original.verdict.passed:
        raise NoViolation("scenario run passed; nothing to attribute")
    outcomes: dict[str, bool] = {}
    combined = SubstitutionPlan.ideal_all(*SUBSTITUTABLE)
    combined_pass = session.passed(combined)
    outcomes["combined"] = combined_pass
    if not combined_pass:
        # Violation survives ideal sensing and actuation: planning is the cause.
        return ComponentId.PLANNING, outcomes
    for component in PROBE_ORDER:
        ok = session.passed(SubstitutionPlan.ideal_all(component))
        outcomes[component.value] = ok
        if ok:
            return component, outcomes
    raise Unattributable(outcomes)


def _component_states(trace: Trace, component: ComponentId) -> list[int]:
    """State indices that contain at least one message of the component."""
    return sorted({m.state_index for m in trace.rows[component]
                   if m.state_index is not None})


def _focus_in_state(trace: Trace, component: ComponentId, state_index: int) -> Message:
    row = trace.rows[component]
    best = None
    for m in row:
        if m.state_index is not None and m.state_index <= state_index:
            best = m
    assert best is not None, "boundary state holds no message of the component"
    return best


def _from_state_plan(component: ComponentId, index: int) -> SubstitutionPlan:
    return SubstitutionPlan({component: IdealFromState(index)})


def attribute_message_nonplanning(session: DtestSession, trace: Trace, n: int,
                                  component: ComponentId) -> Message:
    """Binary search over the trace's n states for the last state whose suffix
    substitution still prevents the violation; returns the focus message."""
    # Index 1 is the known-good endpoint: substitution from state 1 equals the
    # whole-component substitution already verified at component level.
    if n == 1:
        return trace.rows[component][-1]
    if session.passed(_from_state_plan(component, n)):
        return _focus_in_state(trace, component, n)
    left, right = 1, n
    while left + 1 < right:
        mid = (left + right) // 2
        if session.passed(_from_state_plan(component, mid)):
            left = mid  # the decisive message is at or after mid
        else:
            right = mid
    return _focus_in_state(trace, component, left)


def audit_suffix_monotonicity(session: DtestSession, trace: Trace, component: ComponentId
                              ) -> tuple[bool, int | None, list[tuple[int, bool]]]:
    """Exhaustive suffix scan of the dtest predicate.

    For consecutive states m < m' that contain messages of the component, a
    substitute from any state in (m, m'] replaces the same messages, so the
    predicate is constant there; evaluating it at state 1 and at every state
    that carries a component message is the full scan. It is constant between
    consecutive *differing* message states too, those whose message the
    substitute would not publish: a substitute from any state in (m, m'] forks
    at m' (see `runner.run_with_substitution`), and all but the first of those
    probes merge at the first frame sample at or after the fork. Returns
    (monotone, last passing message state, outcomes); the binary search reports
    that state too.
    """
    indices = _component_states(trace, component)
    if 1 not in indices:
        indices = [1] + indices
    outcomes = []
    for idx in indices:
        outcomes.append((idx, session.passed(_from_state_plan(component, idx))))
    flips = sum(1 for (_, a), (_, b) in zip(outcomes, outcomes[1:]) if a != b)
    monotone = flips <= 1 and (flips == 0 or outcomes[0][1])
    boundary = None
    for idx, ok in outcomes:
        if ok:
            boundary = idx
    return monotone, boundary, outcomes


def attribute_message_planning(trace: Trace, scenario: Scenario,
                               oracles: OracleConfig) -> Message:
    """First planning output message that itself violates the driving rules."""
    planner_ctx = make_planner_context(scenario)
    objects = safe_distance_objects(scenario, oracles)
    held_since: int | None = None
    for msg in trace.rows[ComponentId.PLANNING]:
        plan = msg.payload
        if trajectory_is_held(plan):
            if held_since is None:
                held_since = msg.t_pub
            held_ms = msg.t_pub - held_since
        else:
            held_since = None
            held_ms = 0
        # ego sample at or before the message (the first sample if none is)
        i = bisect_right(trace.ego_log, msg.t_pub, key=attrgetter("t"))
        if planning_message_violates(plan, msg.t_pub, scenario, planner_ctx, oracles,
                                     objects, trace.ego_log[max(i - 1, 0)].p, held_ms):
            return msg
    raise NoViolatingPlanningMessage("no planning output violates the rules")


# ---------------------------------------------------------------------------
# earlier interval delta-debugging variant


def attribute_interval_dd(session: DtestSession, n: int,
                          component: ComponentId) -> tuple[int, int]:
    """Recursive interval partition over states 1 to n; returns the minimal [a, b].

    Tests the leading and trailing step-sized intervals and their complements,
    recursing into whichever substitution eliminates the violation and halving
    the step when none does.
    """
    def passes(a: int, b: int) -> bool:
        return session.passed(SubstitutionPlan({component: IdealWithinStates(a, b)}))

    def attribute(start: int, end: int, step: int) -> tuple[int, int]:
        if step == 0:
            return start, end
        if passes(start, start + step - 1):
            return attribute(start, start + step - 1, step // 2)
        if passes(end - step + 1, end):
            return attribute(end - step + 1, end, step // 2)
        if passes(start + step, end):
            return attribute(start + step, end, (end - start - step) // 2)
        if passes(start, end - step):
            return attribute(start, end - step, (end - start - step) // 2)
        return attribute(start, end, step // 2)

    return attribute(1, n, n // 2)


# ---------------------------------------------------------------------------
# spectrum scoring (case-study helper)


class DegenerateInput(Exception):
    """Both coverage totals are zero."""


def tarantula_scores(coverage_passed: dict[str, int], coverage_failed: dict[str, int],
                     total_passed: int, total_failed: int
                     ) -> list[tuple[str, float]]:
    """Rank blocks by correlation with failing executions, most suspicious first."""
    if total_passed == 0 and total_failed == 0:
        raise DegenerateInput("no coverage at all")
    blocks = sorted(set(coverage_passed) | set(coverage_failed))
    scored = []
    for b in blocks:
        fr = (coverage_failed.get(b, 0) / total_failed) if total_failed else 0.0
        pr = (coverage_passed.get(b, 0) / total_passed) if total_passed else 0.0
        denom = fr + pr
        s = fr / denom if denom > 0 else 0.0
        scored.append((b, s))
    scored.sort(key=lambda kv: (-kv[1], kv[0]))
    return scored


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class AttributionReport:
    component_vi: str
    focus_component: str
    focus_seq: int
    focus_t: int
    focus_state_index: int | None
    message_total: int
    reduction_rate: float
    state_count: int
    dtest_component_level: int
    dtest_message_level: int
    simulations_total: int  # original run plus every dtest re-run
    wall_time_s: float
    strategy: str
    probe_outcomes: dict[str, bool] = field(default_factory=dict)
    monotonicity_audit: bool | None = None
    interval: tuple[int, int] | None = None
    focus_fault_affected: bool | None = None
    focus_affected_gap_ms: int | None = None  # 0 when the focus itself is affected
    notes: list[str] = field(default_factory=list)
    verdict_matrix: list[dict] = field(default_factory=list)
    # Re-run cost (DtestSession.stepped_ms / .prefix_decided / .memo.merges /
    # .memo.fast_forwards), left out of to_dict.
    rerun_stepped_ms: int = 0
    rerun_prefix_decided: int = 0
    rerun_merged: int = 0
    rerun_fast_forwarded: int = 0

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if not k.startswith("rerun_")}
        out["interval"] = list(self.interval) if self.interval else None
        return out


def build_verdict_matrix(trace: Trace, component: ComponentId,
                         focus: Message) -> list[dict]:
    """Exactly one cross at the focus message; later messages of the same
    component are unresolved; everything else counts as passing."""
    rows = []
    for comp in TICK_PRIORITY:
        for m in trace.rows[comp]:
            if comp is component and m.seq == focus.seq:
                label = "x"
            elif comp is component and m.seq > focus.seq:
                label = "?"
            else:
                label = "ok"
            rows.append({"component": comp.value, "seq": m.seq, "t_pub": m.t_pub,
                         "label": label})
    return rows


def verdict_matrix_csv(rows: list[dict]) -> str:
    sym = {"ok": "pass", "x": "fail", "?": "unresolved"}
    lines = ["component,seq,t_pub,label"]
    for r in rows:
        lines.append(f"{r['component']},{r['seq']},{r['t_pub']},{sym[r['label']]}")
    return "\n".join(lines) + "\n"


def check_options(strategy: str, audit_monotonicity: bool) -> None:
    """ValueError unless `attribute` can honour both options."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if audit_monotonicity and strategy != "binary":
        raise ValueError("the monotonicity audit needs strategy 'binary'")


@collector_paused
def attribute(scenario: Scenario, ads: AdsConfig, oracles: OracleConfig,
              strategy: str = "binary", audit_monotonicity: bool = False
              ) -> AttributionReport:
    """Full pipeline: run, attribute the component, then the focus message."""
    check_options(strategy, audit_monotonicity)
    t_start = time.perf_counter()
    original = rtest(scenario, ads, oracles)
    session = DtestSession(scenario, ads, oracles, original.trace)
    component, outcomes = attribute_component(session, original)
    comp_calls = session.calls
    n = len(split_trace(original.trace, ads.units))
    notes: list[str] = []
    audit_result: bool | None = None
    interval: tuple[int, int] | None = None

    if component is ComponentId.PLANNING:
        focus = attribute_message_planning(original.trace, scenario, oracles)
        notes.append("planning short-circuit: message scan used no re-runs")
        notes.extend(_tarantula_note(original.trace, focus))
        if audit_monotonicity:
            notes.append("audit: not run, planning is attributed by the message scan")
    elif strategy == "interval-dd":
        interval = attribute_interval_dd(session, n, component)
        focus = _focus_in_state(original.trace, component, interval[1])
    else:
        if audit_monotonicity:
            monotone, boundary, scan = audit_suffix_monotonicity(
                session, original.trace, component)
            audit_result = monotone
            if not monotone:
                raise MonotonicityViolation(scan)
            notes.append(f"audit: suffix predicate monotone, boundary state {boundary}")
        focus = attribute_message_nonplanning(session, original.trace, n, component)

    total = original.trace.message_count()
    affected_ts = [m.t_pub for m in original.trace.rows[component] if m.fault_affected]
    if focus.fault_affected:
        gap = 0
    elif affected_ts:
        gap = min(abs(focus.t_pub - t) for t in affected_ts)
    else:
        gap = None
    report = AttributionReport(
        component_vi=component.value,
        focus_component=focus.component.value,
        focus_seq=focus.seq,
        focus_t=focus.t_pub,
        focus_state_index=focus.state_index,
        message_total=total,
        reduction_rate=1.0 - 1.0 / total,
        state_count=n,
        dtest_component_level=comp_calls,
        dtest_message_level=session.calls - comp_calls,
        simulations_total=1 + session.calls,
        wall_time_s=time.perf_counter() - t_start,
        strategy=strategy,
        probe_outcomes=outcomes,
        monotonicity_audit=audit_result,
        interval=interval,
        focus_fault_affected=focus.fault_affected,
        focus_affected_gap_ms=gap,
        notes=notes,
        verdict_matrix=build_verdict_matrix(original.trace, component, focus),
        rerun_stepped_ms=session.stepped_ms,
        rerun_prefix_decided=session.prefix_decided,
        rerun_merged=session.memo.merges,
        rerun_fast_forwarded=session.memo.fast_forwards,
    )
    return report


def _tarantula_note(trace: Trace, focus: Message) -> list[str]:
    """Spectrum comparison of the failing plan against the last clean one."""
    row = trace.rows[ComponentId.PLANNING]
    passed_msg = None
    for m in row:
        if m.seq >= focus.seq:
            break
        passed_msg = m
    if passed_msg is None:
        return []
    failed_tags = {t: 1 for t in focus.payload.branch_tags}
    passed_tags = {t: 1 for t in passed_msg.payload.branch_tags}
    ranked = tarantula_scores(passed_tags, failed_tags, 1, 1)
    top = [f"{b}={s:.2f}" for b, s in ranked[:3]]
    return [f"tarantula over planner branch tags: {', '.join(top)}"]
