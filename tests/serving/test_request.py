"""Tests for the serving request/sequence lifecycle and per-request metrics."""

import pytest

from repro.serving import Request, RequestState, Sequence


def make_request(**overrides):
    defaults = dict(request_id=0, arrival_time=0.0, prompt_tokens=8, max_new_tokens=4)
    defaults.update(overrides)
    return Request(**defaults)


class TestRequestValidation:
    def test_total_tokens(self):
        req = make_request(prompt_tokens=10, max_new_tokens=6)
        assert req.total_tokens == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prompt_tokens": 0},
            {"max_new_tokens": 0},
            {"prompt_tokens": -3},
            {"arrival_time": -1.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_request(**kwargs)

    def test_prefix_identity_accepted(self):
        req = make_request(prompt_tokens=16, prefix_id=3, prefix_tokens=8)
        assert (req.prefix_id, req.prefix_tokens) == (3, 8)
        assert make_request().prefix_id is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"prefix_tokens": 4},                                  # id missing
            {"prefix_id": -1, "prefix_tokens": 4},                 # bad id
            {"prefix_id": 0, "prefix_tokens": 0},                  # empty prefix
            {"prompt_tokens": 8, "prefix_id": 0, "prefix_tokens": 9},  # > prompt
        ],
    )
    def test_invalid_prefix_identity_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_request(**kwargs)


class TestSequenceLifecycle:
    def test_prefill_iteration_emits_first_token(self):
        seq = Sequence(request=make_request(arrival_time=1.0))
        seq.admit(now=2.0)
        assert not seq.prefill_done
        assert seq.tokens_this_iteration() == 8  # whole prompt in one iteration
        seq.advance(now=2.5)
        assert seq.prefill_done
        assert seq.generated_tokens == 1
        assert seq.first_token_time == 2.5
        assert seq.ttft == pytest.approx(1.5)  # includes queueing delay

    def test_decode_iterations_emit_one_token_each(self):
        seq = Sequence(request=make_request(max_new_tokens=3))
        seq.admit(now=0.0)
        seq.advance(now=1.0)
        assert seq.tokens_this_iteration() == 1
        seq.advance(now=2.0)
        seq.advance(now=3.0)
        assert seq.is_finished
        assert seq.finish_time == 3.0
        # Two decode gaps after the first token: (3.0 - 1.0) / 2.
        assert seq.tpot == pytest.approx(1.0)
        assert seq.e2e_latency == pytest.approx(3.0)

    def test_single_token_request_has_zero_tpot(self):
        seq = Sequence(request=make_request(max_new_tokens=1))
        seq.admit(now=0.0)
        seq.advance(now=0.7)
        assert seq.is_finished
        assert seq.tpot == 0.0

    def test_kv_tokens_held_matches_reservation(self):
        """Reservation-based admission: a running sequence holds its full extent."""
        seq = Sequence(request=make_request(prompt_tokens=8, max_new_tokens=4))
        assert seq.kv_tokens_held() == 0  # queued: holds nothing
        seq.admit(now=0.0)
        assert seq.kv_tokens_held() == 12
        seq.advance(now=1.0)  # prefill
        assert seq.kv_tokens_held() == 12  # reservation does not grow
        for now in (2.0, 3.0, 4.0):
            seq.advance(now=now)
        assert seq.is_finished
        assert seq.kv_tokens_held() == 0  # freed on finish

    def test_invalid_transitions_raise(self):
        seq = Sequence(request=make_request())
        with pytest.raises(RuntimeError):
            seq.advance(now=0.0)  # not admitted yet
        seq.admit(now=0.0)
        with pytest.raises(RuntimeError):
            seq.admit(now=0.0)  # double admit
        with pytest.raises(RuntimeError):
            seq.reject()  # already running

    def test_metrics_none_until_available(self):
        seq = Sequence(request=make_request())
        assert seq.ttft is None and seq.tpot is None and seq.e2e_latency is None
        assert seq.state is RequestState.QUEUED
