"""Per-rule fixtures for the determinism/unit-safety linter.

Each rule family gets positive snippets (must flag), negative snippets
(must stay silent) and a pragma-suppressed variant.  The snippets are
linted as strings, never written to disk, so the repo-wide lint gate in
conftest never sees them.
"""

import textwrap

import pytest

from repro.analysis.linter import RULE_CATALOG, Linter, lint_paths, lint_source, render_report


def rules_of(source, **kwargs):
    violations = lint_source(textwrap.dedent(source), **kwargs)
    return [v.rule for v in violations]


# ---------------------------------------------------------------------------
# DET: nondeterminism sources
# ---------------------------------------------------------------------------
class TestDetRules:
    def test_stdlib_random_flagged(self):
        assert "DET001" in rules_of(
            """
            import random

            def jitter():
                return random.random() * 2
            """
        )

    def test_registry_stream_not_flagged(self):
        assert rules_of(
            """
            from repro.sim.rng import RngRegistry

            def jitter(rngs: RngRegistry):
                return rngs.stream("net.jitter").uniform()
            """
        ) == []

    @pytest.mark.parametrize(
        "call", ["time.time()", "time.perf_counter()", "time.monotonic()"]
    )
    def test_wall_clock_flagged(self, call):
        assert "DET002" in rules_of(
            f"""
            import time

            def stamp():
                return {call}
            """
        )

    def test_env_now_not_flagged(self):
        assert rules_of(
            """
            def stamp(env):
                return env.now
            """
        ) == []

    def test_datetime_now_flagged(self):
        assert "DET003" in rules_of(
            """
            from datetime import datetime

            def stamp():
                return datetime.now()
            """
        )

    def test_os_urandom_flagged(self):
        assert "DET004" in rules_of(
            """
            import os

            def token():
                return os.urandom(8)
            """
        )

    def test_numpy_rng_outside_registry_flagged(self):
        assert "DET005" in rules_of(
            """
            import numpy as np

            def data():
                return np.random.default_rng(42).uniform(size=8)
            """
        )

    def test_numpy_rng_aliased_import_flagged(self):
        assert "DET005" in rules_of(
            """
            from numpy.random import default_rng

            def data():
                return default_rng().uniform(size=8)
            """
        )

    def test_set_iteration_scheduling_flagged(self):
        assert "DET006" in rules_of(
            """
            def reschedule(env, flows):
                for flow in set(flows):
                    env.timeout(flow.eta)
            """
        )

    def test_sorted_iteration_not_flagged(self):
        assert rules_of(
            """
            def reschedule(env, flows):
                for flow in sorted(set(flows), key=lambda f: f.uid):
                    env.timeout(flow.eta)
            """
        ) == []

    def test_set_iteration_without_scheduling_not_flagged(self):
        assert rules_of(
            """
            def total(flows):
                acc = 0.0
                for flow in set(flows):
                    acc += flow.remaining_bits
                return acc
            """
        ) == []

    def test_pragma_suppresses(self):
        assert rules_of(
            """
            import numpy as np

            def data():
                return np.random.default_rng(42).uniform(size=8)  # repro: noqa=DET005
            """
        ) == []

    def test_pragma_is_rule_specific(self):
        # a pragma for a different rule must not suppress DET005
        assert "DET005" in rules_of(
            """
            import numpy as np

            def data():
                return np.random.default_rng(42).uniform(size=8)  # repro: noqa=DET001
            """
        )


# ---------------------------------------------------------------------------
# UNIT: bytes vs bits/s, float time equality
# ---------------------------------------------------------------------------
class TestUnitRules:
    def test_raw_literal_rate_flagged(self):
        assert "UNIT001" in rules_of(
            """
            def build(net):
                return net.add_link(capacity_bps=1000000000)
            """
        )

    def test_units_helper_rate_not_flagged(self):
        assert rules_of(
            """
            from repro.units import Gbps

            def build(net):
                return net.add_link(capacity_bps=Gbps(1))
            """
        ) == []

    def test_small_rate_literal_not_flagged(self):
        # sub-1024 literals are assumed intentional (e.g. testing edge cases)
        assert rules_of(
            """
            def build(net):
                return net.add_link(capacity_bps=100)
            """
        ) == []

    def test_mbps_into_byte_position_flagged(self):
        assert "UNIT002" in rules_of(
            """
            from repro.units import Mbps

            def send(comm):
                yield from comm.allreduce(None, nbytes=Mbps(30), op=None)
            """
        )

    def test_size_helper_into_byte_position_not_flagged(self):
        assert rules_of(
            """
            from repro.units import mb

            def send(comm):
                yield from comm.allreduce(None, nbytes=mb(30), op=None)
            """
        ) == []

    def test_rate_expression_into_byte_position_flagged(self):
        assert "UNIT002" in rules_of(
            """
            from repro.units import Mbps

            def configure(sock):
                sock.setopt(rcvbuf=Mbps(940) * 0.0208)
            """
        )

    def test_float_equality_on_sim_time_flagged(self):
        assert "UNIT003" in rules_of(
            """
            def wait_until(env, deadline):
                return env.now == deadline
            """
        )

    def test_float_equality_via_wtime_flagged(self):
        assert "UNIT003" in rules_of(
            """
            def check(ctx, start_time):
                return ctx.wtime() == start_time
            """
        )

    def test_time_zero_check_not_flagged(self):
        assert rules_of(
            """
            def at_origin(env):
                return env.now == 0
            """
        ) == []

    def test_time_inequality_not_flagged(self):
        assert rules_of(
            """
            def overdue(env, deadline):
                return env.now > deadline
            """
        ) == []

    def test_pragma_suppresses_unit(self):
        assert rules_of(
            """
            def build(net):
                return net.add_link(capacity_bps=1000000000)  # repro: noqa=UNIT001
            """
        ) == []


# ---------------------------------------------------------------------------
# SIM: engine-contract misuse
# ---------------------------------------------------------------------------
class TestSimRules:
    def test_return_pending_event_flagged(self):
        assert "SIM001" in rules_of(
            """
            def proc(env):
                yield env.timeout(1.0)
                return env.timeout(2.0)
            """
        )

    def test_yield_then_plain_return_not_flagged(self):
        assert rules_of(
            """
            def proc(env):
                value = yield env.timeout(1.0)
                return value
            """
        ) == []

    def test_non_generator_factory_not_flagged(self):
        # Environment.timeout itself returns a Timeout; that is fine
        assert rules_of(
            """
            def timeout(self, delay):
                return Timeout(self, delay)
            """
        ) == []

    def test_double_trigger_flagged(self):
        assert "SIM002" in rules_of(
            """
            def finish(event):
                event.succeed(1)
                event.succeed(2)
            """
        )

    def test_branched_trigger_not_flagged(self):
        assert rules_of(
            """
            def finish(event, ok):
                if ok:
                    event.succeed(1)
                else:
                    event.fail(ValueError("no"))
            """
        ) == []

    def test_bare_except_flagged(self):
        assert "SIM003" in rules_of(
            """
            def drive(proc):
                try:
                    next(proc)
                except:
                    pass
            """
        )

    def test_typed_except_not_flagged(self):
        assert rules_of(
            """
            def drive(proc):
                try:
                    next(proc)
                except StopIteration:
                    pass
            """
        ) == []


# ---------------------------------------------------------------------------
# pragma handling: # repro: noqa=..., function scope, staleness
# ---------------------------------------------------------------------------
class TestPragmas:
    def test_repro_noqa_spelling_suppresses(self):
        assert rules_of(
            """
            import random

            def jitter():
                return random.random()  # repro: noqa=DET001
            """
        ) == []

    def test_multi_rule_comma_list(self):
        # one pragma, two rules firing on the same line: both suppressed
        assert rules_of(
            """
            import random, time

            def f():
                return random.random() + time.time()  # repro: noqa=DET001,DET002
            """
        ) == []

    def test_comma_list_leaves_other_rules_alone(self):
        assert rules_of(
            """
            import random, os

            def f():
                return (random.random(), os.urandom(4))  # repro: noqa=DET001,DET002
            """
        ) == ["DET004", "NOQA001"]  # DET002 in the list never fires -> stale

    def test_function_scope_pragma_on_def_line(self):
        # pragma on the def line covers the whole body
        assert rules_of(
            """
            import random

            def jitter():  # repro: noqa=DET001
                a = random.random()
                b = random.random()
                return a + b
            """
        ) == []

    def test_function_scope_pragma_on_decorator_line(self):
        assert rules_of(
            """
            import functools
            import random

            @functools.lru_cache  # repro: noqa=DET001
            def jitter():
                return random.random()
            """
        ) == []

    def test_function_scope_pragma_does_not_leak_past_function(self):
        assert rules_of(
            """
            import random

            def covered():  # repro: noqa=DET001
                return random.random()

            def uncovered():
                return random.random()
            """
        ) == ["DET001"]

    def test_stale_pragma_reported(self):
        # the pragma'd rule never fires: the pragma itself is the finding
        violations = lint_source(
            textwrap.dedent(
                """
                def clean():
                    return 1  # repro: noqa=DET001
                """
            )
        )
        assert [v.rule for v in violations] == ["NOQA001"]
        assert "DET001" in violations[0].message

    def test_unknown_rule_pragma_reported(self):
        violations = lint_source("x = 1  # repro: noqa=NOPE999\n")
        assert [v.rule for v in violations] == ["NOQA001"]
        assert "unknown rule" in violations[0].message

    def test_stale_check_skipped_for_passes_that_did_not_run(self):
        # a DET pragma cannot be judged stale when only UNIT rules ran
        from repro.analysis.passes import UnitSafetyPass

        linter = Linter(passes=[UnitSafetyPass])
        assert linter.lint_source("x = 1  # repro: noqa=DET001\n") == []

    def test_used_pragma_not_stale_under_select(self):
        # select narrows the *report*; a pragma whose rule fires is used
        # even when that rule is deselected
        source = textwrap.dedent(
            """
            import random

            def f():
                return random.random()  # repro: noqa=DET001
            """
        )
        assert Linter(select=["NOQA001"]).lint_source(source) == []

    def test_legacy_spelling_no_longer_suppresses(self):
        # `# repro: noqa=` is the only pragma spelling
        assert rules_of(
            """
            import random

            def f():
                return random.random()  # lint: disable=DET001
            """
        ) == ["DET001"]


# ---------------------------------------------------------------------------
# driver behaviour
# ---------------------------------------------------------------------------
class TestDriver:
    def test_select_restricts_rules(self):
        source = textwrap.dedent(
            """
            import random

            def f(event):
                try:
                    return random.random()
                except:
                    event.succeed(1)
                    event.succeed(2)
            """
        )
        only_det = Linter(select=["DET001"]).lint_source(source)
        assert {v.rule for v in only_det} == {"DET001"}
        ignored = Linter(ignore=["DET001", "SIM003"]).lint_source(source)
        assert {v.rule for v in ignored} == {"SIM002"}

    def test_violation_carries_location_and_hint(self):
        source = "import random\n\n\nx = random.random()\n"
        (violation,) = lint_source(source, path="fixture.py")
        assert violation.path == "fixture.py"
        assert violation.line == 4
        assert violation.rule == "DET001"
        assert violation.hint
        assert "fixture.py:4: DET001" in violation.render()

    def test_syntax_error_reported_not_raised(self):
        (violation,) = lint_source("def broken(:\n")
        assert violation.rule == "PARSE"

    def test_rule_catalog_complete(self):
        expected = {
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
            "UNIT001", "UNIT002", "UNIT003",
            "SIM001", "SIM002", "SIM003",
            "DIM001", "DIM002", "DIM003", "DIM004", "DIM005",
            "SCHED001", "SCHED002", "SCHED003",
            "NOQA001",
        }
        assert set(RULE_CATALOG) == expected

    def test_repo_lints_clean(self):
        violations = lint_paths()
        assert violations == [], render_report(violations)

    def test_render_report_clean(self):
        assert render_report([]) == "repro lint: clean"
