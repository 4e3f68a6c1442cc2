"""Supervisor state machine, restart policy, and chaos-plan parsing."""

import pytest

from repro.errors import TargetError
from repro.targets.engine import EngineConfig
from repro.targets.faults import ChaosPlan
from repro.targets.supervision import BACKOFF_MAX_S, RestartPolicy, Supervisor


class TestRestartPolicy:
    def test_defaults_validate(self):
        RestartPolicy().validate()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("max_restarts_per_shard", -1),
            ("restart_budget", -2),
            ("backoff_base_s", -0.1),
        ],
    )
    def test_negative_fields_rejected(self, field, value):
        with pytest.raises(TargetError):
            RestartPolicy(**{field: value}).validate()

    def test_zero_policy_means_fail_fast(self):
        # 0 restarts is valid: the first failure abandons immediately.
        policy = RestartPolicy(max_restarts_per_shard=0, restart_budget=0)
        policy.validate()
        sup = Supervisor(policy, 1234, "P4", workers=2)
        assert sup.decide(0, "died") == Supervisor.ABANDON

    def test_to_dict_round_trip(self):
        policy = RestartPolicy(max_restarts_per_shard=5)
        as_dict = policy.to_dict()
        assert RestartPolicy(**as_dict) == policy


class TestSupervisor:
    def test_restart_until_per_shard_budget_then_abandon(self):
        sup = Supervisor(RestartPolicy(max_restarts_per_shard=2), 1, "P4", 2)
        assert sup.decide(0, "died") == Supervisor.RESTART
        assert sup.decide(0, "died") == Supervisor.RESTART
        assert sup.decide(0, "died") == Supervisor.ABANDON
        assert sup.abandoned == {0}
        assert sup.restarts[0] == 2
        assert sup.attempts[0] == 3
        assert sup.degraded

    def test_run_level_budget_spans_shards(self):
        policy = RestartPolicy(max_restarts_per_shard=10, restart_budget=2)
        sup = Supervisor(policy, 1, "P4", 4)
        assert sup.decide(0, "died") == Supervisor.RESTART
        assert sup.decide(1, "died") == Supervisor.RESTART
        # Budget spent: any further failure abandons, whatever the shard.
        assert sup.decide(2, "died") == Supervisor.ABANDON
        assert sup.total_restarts == 2

    def test_ack_is_monotone_max(self):
        sup = Supervisor(RestartPolicy(), 1, "P4", 1)
        sup.ack(0, 100)
        sup.ack(0, 50)  # late, lower ack must not regress the watermark
        sup.ack(0, None)
        assert sup.watermarks[0] == 100
        sup.ack(0, 200)
        assert sup.watermarks[0] == 200

    def test_events_record_the_history(self):
        sup = Supervisor(RestartPolicy(max_restarts_per_shard=1), 1, "P4", 2)
        sup.ack(0, 42)
        sup.decide(0, "ring-stall", {"error": "full"})
        sup.decide(0, "died", {"exitcode": -9})
        kinds = [e["event"] for e in sup.events]
        assert kinds == [Supervisor.RESTART, Supervisor.ABANDON]
        assert sup.events[0]["watermark"] == 42
        assert sup.last_failure[0]["reason"] == "died"
        summary = sup.summary()
        assert summary["abandoned"] == [0]
        assert summary["restarts"] == {"0": 1}
        assert summary["watermarks"]["0"] == 42

    def test_backoff_is_deterministic_and_capped(self):
        def delays(seed):
            sup = Supervisor(
                RestartPolicy(backoff_base_s=0.5, max_restarts_per_shard=10),
                seed, "P4", 1,
            )
            out = []
            for _ in range(4):
                sup.decide(0, "died")
                out.append(sup.backoff_s(0))
            return out

        first, second = delays(1234), delays(1234)
        assert first == second  # seeded jitter replays exactly
        assert delays(99) != first  # but differs across seeds
        # jitter never exceeds the cap
        assert all(d <= BACKOFF_MAX_S for d in first)
        assert first[-1] == BACKOFF_MAX_S  # 0.5 * 2**3, capped
        assert first[0] < first[1] or first[1] == BACKOFF_MAX_S  # ramp

    def test_no_backoff_before_any_restart(self):
        sup = Supervisor(RestartPolicy(), 1, "P4", 1)
        assert sup.backoff_s(0) == 0.0


class TestChaosPlan:
    def test_parse_kill(self):
        plan = ChaosPlan.from_specs("kill:shard=1@pkt=500")
        assert len(plan) == 1
        event = plan.events[0]
        assert (event.action, event.shard, event.pkt) == ("kill", 1, 500)

    def test_parse_stop_with_resume(self):
        plan = ChaosPlan.from_specs("stop:shard=0@pkt=10@resume=0.5")
        assert plan.events[0].resume_s == 0.5

    def test_parse_stall_with_duration_and_attempt(self):
        plan = ChaosPlan.from_specs("stall:shard=2@pkt=7@for=0.2@attempt=2")
        event = plan.events[0]
        assert (event.stall_s, event.attempt) == (0.2, 2)

    def test_parse_list_of_specs(self):
        plan = ChaosPlan.from_specs(
            ["kill:shard=0@pkt=5", "kill:shard=0@pkt=50"]
        )
        assert len(plan) == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "boom:shard=0@pkt=1",       # unknown action
            "kill:shard=0",             # missing pkt
            "kill:pkt=5",               # missing shard
            "kill:shard=x@pkt=5",       # non-integer
            "kill:shard=-1@pkt=5",      # negative shard
            "kill:shard=0@pkt=5@wat=1", # unknown field
            "kill",                     # no fields at all
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(TargetError):
            ChaosPlan.from_specs(spec)

    @pytest.mark.parametrize(
        "spec",
        [
            "stop:shard=0@pkt=100@resume=nan",   # never resumed
            "stop:shard=0@pkt=100@resume=inf",
            "stop:shard=0@pkt=100@resume=-0.5",
            "stall:shard=0@pkt=100@for=-1",      # crashed time.sleep
            "stall:shard=0@pkt=100@for=nan",
            "stall:shard=0@pkt=100@attempt=0",   # never fires
            "stall:shard=0@pkt=100@attempt=-1",
        ],
    )
    def test_bad_durations_and_attempts_rejected(self, spec):
        with pytest.raises(TargetError, match="bad chaos spec"):
            ChaosPlan.from_specs(spec)

    def test_zero_durations_accepted(self):
        plan = ChaosPlan.from_specs(
            ["stop:shard=0@pkt=1@resume=0", "stall:shard=0@pkt=2@for=0"]
        )
        assert [e.resume_s for e in plan.events][0] == 0.0
        assert plan.events[1].stall_s == 0.0

    def test_repeated_field_rejected(self):
        # Regression: the later value silently won (a kill at pkt=6).
        with pytest.raises(TargetError, match="bad chaos spec.*'pkt'"):
            ChaosPlan.from_specs("kill:shard=0@pkt=5@pkt=6")

    def test_event_routing_and_reset(self):
        plan = ChaosPlan.from_specs(
            ["kill:shard=0@pkt=5", "stall:shard=1@pkt=9@for=0.1"]
        )
        assert [e.action for e in plan.parent_events()] == ["kill"]
        assert plan.worker_stalls(1, attempt=1) == [(9, 0.1)]
        assert plan.worker_stalls(1, attempt=2) == []  # attempt-filtered
        assert plan.worker_stalls(0, attempt=1) == []  # other shard
        for event in plan.events:
            event.fired = True
        plan.reset()
        assert not any(event.fired for event in plan.events)


class TestEngineConfigChaosValidation:
    def test_chaos_shard_must_exist(self):
        plan = ChaosPlan.from_specs("kill:shard=5@pkt=1")
        with pytest.raises(TargetError):
            EngineConfig(workers=2, chaos=plan).validate()
        EngineConfig(workers=6, chaos=plan).validate()

    def test_restart_policy_validated_through_engine(self):
        with pytest.raises(TargetError):
            EngineConfig(
                workers=2, restart=RestartPolicy(restart_budget=-1)
            ).validate()
