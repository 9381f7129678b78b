"""Unit tests for the CTL/CCTL model checker (maximal-path semantics)."""

import pytest

from repro.automata import Automaton
from repro.logic import DEADLOCK_FREE, ModelChecker, check, parse


def build(transitions, initial=("s0",), labels=None, inputs=(), outputs=("o",)):
    return Automaton(
        inputs=inputs,
        outputs=outputs,
        transitions=transitions,
        initial=list(initial),
        labels=labels or {},
    )


@pytest.fixture
def cycle():
    """s0 -> s1 -> s0 with p at s0, q at s1."""
    return build(
        [("s0", (), ("o",), "s1"), ("s1", (), ("o",), "s0")],
        labels={"s0": {"p"}, "s1": {"q"}},
    )


@pytest.fixture
def fork():
    """s0 branches to a p-loop and to a deadlock state labeled q."""
    return build(
        [
            ("s0", (), ("o",), "loop"),
            ("loop", (), ("o",), "loop"),
            ("s0", (), ("o",), "end"),
        ],
        labels={"loop": {"p"}, "end": {"q"}},
    )


class TestBooleanLayer:
    def test_constants(self, cycle):
        assert check(cycle, parse("true")).holds
        assert not check(cycle, parse("false")).holds

    def test_prop(self, cycle):
        assert check(cycle, parse("p")).holds
        assert not check(cycle, parse("q")).holds

    def test_not_and_or_implies(self, cycle):
        assert check(cycle, parse("not q")).holds
        assert check(cycle, parse("p and not q")).holds
        assert check(cycle, parse("q or p")).holds
        assert check(cycle, parse("q -> false")).holds

    def test_violating_initial_reported(self, cycle):
        result = check(cycle, parse("q"))
        assert result.violating_initial == frozenset({"s0"})


class TestUnboundedOperators:
    def test_ag(self, cycle):
        assert check(cycle, parse("AG (p or q)")).holds
        assert not check(cycle, parse("AG p")).holds

    def test_af(self, cycle):
        assert check(cycle, parse("AF q")).holds

    def test_ef_eg(self, cycle, fork):
        assert check(cycle, parse("EF q")).holds
        assert check(fork, parse("EG (p or true)")).holds
        assert not check(cycle, parse("EG p")).holds

    def test_ax_ex(self, cycle):
        assert check(cycle, parse("AX q")).holds
        assert check(cycle, parse("EX q")).holds
        assert not check(cycle, parse("EX p")).holds

    def test_until(self, cycle):
        assert check(cycle, parse("A[p U q]")).holds
        assert check(cycle, parse("E[p U q]")).holds

    def test_af_fails_on_avoiding_path(self, fork):
        # The loop path never reaches q.
        assert not check(fork, parse("AF q")).holds
        assert check(fork, parse("EF q")).holds


class TestDeadlockSemantics:
    def test_deadlock_atom(self, fork):
        checker = ModelChecker(fork)
        assert checker.sat(parse("deadlock")) == frozenset({"end"})

    def test_deadlock_free(self, cycle, fork):
        assert check(cycle, parse("AG not deadlock")).holds
        assert not check(fork, parse("AG not deadlock")).holds

    def test_ax_vacuous_at_deadlock(self, fork):
        checker = ModelChecker(fork)
        assert "end" in checker.sat(parse("AX false"))

    def test_af_fails_at_deadlock_without_goal(self):
        automaton = build([("s0", (), ("o",), "end")], labels={})
        assert not check(automaton, parse("AF q")).holds

    def test_af_holds_at_deadlock_with_goal(self):
        automaton = build([("s0", (), ("o",), "end")], labels={"end": {"q"}})
        assert check(automaton, parse("AF q")).holds

    def test_eg_satisfied_by_deadlocking_path(self, fork):
        # s0 -> end is a maximal path; q holds only at end though, so use
        # a formula true along it.
        assert check(fork, parse("EG (not p)")).holds  # path s0, end


class TestBoundedOperators:
    def test_af_bounded_exact(self, cycle):
        assert check(cycle, parse("AF[1,1] q")).holds
        assert not check(cycle, parse("AF[2,2] q")).holds
        assert check(cycle, parse("AF[0,2] p")).holds

    def test_af_bounded_window_excludes_now(self, cycle):
        # p holds now but the window starts at 1.
        assert not check(cycle, parse("AF[1,1] p")).holds

    def test_ag_bounded(self, cycle):
        assert check(cycle, parse("AG[0,0] p")).holds
        assert check(cycle, parse("AG[1,1] q")).holds
        assert not check(cycle, parse("AG[0,1] p")).holds

    def test_ef_eg_bounded(self, cycle):
        assert check(cycle, parse("EF[1,2] q")).holds
        assert not check(cycle, parse("EF[1,1] p")).holds
        assert check(cycle, parse("EG[0,0] p")).holds

    def test_bounded_until(self, cycle):
        assert check(cycle, parse("A[p U[1,2] q]")).holds
        assert not check(cycle, parse("A[p U[2,2] q]")).holds
        assert check(cycle, parse("E[p U[1,1] q]")).holds

    def test_bounded_af_deadlock_before_window_fails(self):
        automaton = build([("s0", (), ("o",), "end")], labels={"end": {"q"}})
        # Path ends at step 1; a window [2,3] can never be met.
        assert not check(automaton, parse("AF[2,3] q")).holds

    def test_bounded_ag_vacuous_after_deadlock(self):
        automaton = build([("s0", (), ("o",), "end")], labels={"s0": {"p"}, "end": {"p"}})
        # Positions 2..5 do not exist on the only path: vacuously fine.
        assert check(automaton, parse("AG[0,5] p")).holds

    def test_bounded_response_pattern(self):
        # request at s0, response exactly two steps later.
        automaton = build(
            [
                ("s0", (), ("o",), "s1"),
                ("s1", (), ("o",), "s2"),
                ("s2", (), ("o",), "s0"),
            ],
            labels={"s0": {"req"}, "s2": {"resp"}},
        )
        assert check(automaton, parse("AG (req -> AF[1,2] resp)")).holds
        assert not check(automaton, parse("AG (req -> AF[1,1] resp)")).holds


class TestCheckerInfrastructure:
    def test_stats_dict_uses_checker_namespace(self, cycle):
        checker = ModelChecker(cycle)
        checker.sat(DEADLOCK_FREE)
        stats = checker.stats.as_dict()
        assert set(stats) == {
            "checker_successors_reused",
            "checker_sat_reused",
            "checker_sat_patched",
            "checker_sat_computed",
            "checker_affected_states",
            "checker_fixpoint_work",
        }
        assert stats["checker_sat_computed"] == 1

    def test_sat_is_memoised(self, cycle):
        checker = ModelChecker(cycle)
        formula = parse("AG (p or q)")
        assert checker.sat(formula) is checker.sat(formula)

    def test_check_result_truthiness(self, cycle):
        assert bool(check(cycle, parse("true")))
        assert not bool(check(cycle, parse("false")))

    def test_multiple_initial_states_all_must_satisfy(self):
        automaton = build(
            [("s0", (), ("o",), "s0"), ("s1", (), ("o",), "s1")],
            initial=("s0", "s1"),
            labels={"s0": {"p"}},
        )
        assert not check(automaton, parse("p")).holds
        assert check(automaton, parse("EF true")).holds
