"""The Phase B delivery rule, shared inboxes and the payload tally.

:func:`repro.sim.inbox.deliver` must hand every receiver exactly the
inbox the brute-force rule gives — every participant's payload unless
the receiver is in that sender's ``withheld`` set, and always the
receiver's own — while giving receivers that miss the same senders one
shared, read-only object.  :func:`repro.sim.inbox.tally` must count any
mapping the way a direct loop would.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import RandomCrashAdversary, TallyAttackAdversary
from repro.faultmodels import CrashFaultModel, LateFaultModel
from repro.protocols.base import ConsensusProtocol
from repro.protocols.synran import SynRanProtocol
from repro.sim.engine import Engine
from repro.sim.inbox import Inbox, deliver, tally
from repro.sim.model import FailureDecision, FaultModel

PIDS = st.integers(min_value=0, max_value=13)


@st.composite
def rounds(draw):
    """Participants, payloads, victims and an arbitrary withheld map.

    Withheld entries may be keyed by non-participants and may name the
    receiver itself or pids outside the round.
    """
    participants = sorted(draw(st.sets(PIDS, min_size=1, max_size=10)))
    # One fresh object per sender, from a small value pool, so payloads
    # repeat by value but never by identity.
    payloads = {
        s: ("BIT", draw(st.integers(0, 2))) for s in participants
    }
    victims = draw(st.sets(st.sampled_from(participants)))
    receivers = [p for p in participants if p not in victims]
    withheld = draw(
        st.dictionaries(PIDS, st.frozensets(PIDS), max_size=12)
    )
    return participants, payloads, receivers, withheld


def _brute_inbox(pid, participants, payloads, withheld):
    return {
        s: payloads[s]
        for s in participants
        if s == pid or pid not in withheld.get(s, ())
    }


def _missed(pid, participants, withheld):
    return frozenset(
        s for s in participants if s != pid and pid in withheld.get(s, ())
    )


def _brute_tally(mapping):
    out = {}
    for sender, payload in mapping.items():
        count, lowest = out.get(payload, (0, sender))
        out[payload] = (count + 1, min(lowest, sender))
    return out


class TestDeliver:
    @given(rounds())
    @settings(max_examples=300, deadline=None)
    def test_matches_brute_force_rule(self, case):
        participants, payloads, receivers, withheld = case
        inboxes = deliver(payloads, withheld, receivers)
        assert sorted(inboxes) == receivers
        for pid in receivers:
            inbox = inboxes[pid]
            expected = _brute_inbox(pid, participants, payloads, withheld)
            assert list(inbox) == list(expected)
            for sender, payload in expected.items():
                assert inbox[sender] is payload
            assert pid in inbox

    @given(rounds())
    @settings(max_examples=300, deadline=None)
    def test_equal_missed_sets_share_one_inbox(self, case):
        participants, payloads, receivers, withheld = case
        inboxes = deliver(payloads, withheld, receivers)
        for a in receivers:
            for b in receivers:
                same = _missed(a, participants, withheld) == _missed(
                    b, participants, withheld
                )
                assert (inboxes[a] is inboxes[b]) == same

    @given(rounds())
    @settings(max_examples=100, deadline=None)
    def test_inboxes_are_read_only(self, case):
        participants, payloads, receivers, withheld = case
        for pid, inbox in deliver(payloads, withheld, receivers).items():
            with pytest.raises(TypeError):
                inbox[pid] = ("BIT", 1)
            with pytest.raises(TypeError):
                del inbox[pid]
            with pytest.raises(TypeError):
                tally(inbox)[payloads[pid]] = (0, pid)

    def test_nothing_withheld_shares_the_full_inbox(self):
        payloads = {0: "a", 2: "b", 5: "a"}
        inboxes = deliver(payloads, {}, [0, 2, 5])
        assert inboxes[0] is inboxes[2] is inboxes[5]
        assert dict(inboxes[0]) == payloads


class TestTally:
    @given(
        st.dictionaries(
            PIDS, st.sampled_from(["x", "y", ("BIT", 0), frozenset({1})])
        )
    )
    def test_matches_brute_force_count(self, mapping):
        expected = _brute_tally(mapping)
        assert list(tally(mapping).items()) == list(expected.items())
        inbox = Inbox(dict(sorted(mapping.items())))
        ordered = _brute_tally(dict(sorted(mapping.items())))
        assert list(tally(inbox).items()) == list(ordered.items())

    def test_lowest_sender_is_the_minimum_not_the_first_seen(self):
        assert tally({7: "c", 2: "c", 4: "d"}) == {"c": (2, 2), "d": (1, 4)}

    def test_inbox_computes_its_tally_once(self):
        inbox = Inbox({0: "a", 1: "a"})
        assert tally(inbox) is tally(inbox)


class TestCrashWithheld:
    @given(rounds(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_set_difference_equals_the_per_pair_default(self, case, data):
        participants, _, _, _ = case
        victims = data.draw(st.sets(st.sampled_from(participants)))
        decision = FailureDecision.partial(
            {v: data.draw(st.frozensets(PIDS)) for v in victims}
        )
        receivers = [p for p in participants if p not in victims]
        for model in (CrashFaultModel(), LateFaultModel(lag=1)):
            fast = model.withheld(decision, participants, receivers)
            slow = FaultModel.withheld(model, decision, participants, receivers)
            assert list(fast.items()) == list(slow.items())


class _InboxRecorder(ConsensusProtocol):
    """Records which inbox object each process got, round by round."""

    name = "inbox-recorder"

    def __init__(self):
        self.seen = []

    def initial_state(self, pid, n, input_bit, rng):
        return SynRanProtocol().initial_state(pid, n, input_bit, rng)

    def send(self, state, round_index):
        return ("BIT", state.b)

    def receive(self, state, round_index, inbox):
        self.seen.append((round_index, state.pid, inbox))
        if round_index == 2:
            state.decide(state.b)
            state.halt()


class TestEngineDelivery:
    def test_receivers_run_in_pid_order_on_shared_inboxes(self):
        proto = _InboxRecorder()
        Engine(proto, TallyAttackAdversary(0), 9, seed=3).run([0, 1] * 4 + [1])
        assert [(r, pid) for r, pid, _ in proto.seen] == [
            (r, pid) for r in range(3) for pid in range(9)
        ]
        for r in range(3):
            objects = {id(inbox) for rr, _, inbox in proto.seen if rr == r}
            assert len(objects) == 1

    def test_split_round_matches_withheld(self):
        proto = _InboxRecorder()
        result = Engine(
            proto, RandomCrashAdversary(6, rate=0.5), 12, seed=5
        ).run([1] * 12)
        split = {id(inbox) for r, _, inbox in proto.seen if r == 0}
        assert len(split) > 1
        for record in result.trace:
            for r, pid, inbox in proto.seen:
                if r != record.index:
                    continue
                assert list(inbox) == list(
                    _brute_inbox(
                        pid,
                        record.senders,
                        record.payloads,
                        record.withheld,
                    )
                )

    def test_plain_dicts_still_drive_receive(self):
        proto = SynRanProtocol()
        state = proto.initial_state(0, 4, 1, random.Random(0))
        proto.receive(state, 0, {i: ("BIT", 1) for i in range(4)})
        assert state.n_hist[0] == 4 and state.b == 1
