"""twofold.orbit.simulate: the orbit engine the simulate command writes out."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twofold import (Event, RegionKind, critical_h, find_cycle_newton, flow_X, flow_Y,
                     resonant_system, simulate)
from twofold.errors import DomainError, NoCycleError


@settings(max_examples=60, deadline=None)
@given(C=st.floats(0.05, 5.0), u=st.floats(0.02, 0.995), Lambda=st.floats(0.5, 2.0))
def test_simulate_closes_every_cycle(C, u, Lambda):
    # flown from a found cycle's p0, the crossing walk meets the plane at the
    # involution image (-y0, -x0) at t_x and back at p0 at T: the walk of
    # first_crossing against the closed-form branch of cycles, over wide C
    p = resonant_system(C, float(critical_h(C)) * u, Lambda)
    try:
        cycle = find_cycle_newton(p)
    except NoCycleError:
        assume(False)
    (x0, y0), T = cycle.p0, cycle.T
    events = [e for e in simulate(p, (x0, y0, 0.0), 1.25 * T, T) if type(e) is Event]
    first, second = events[:2]
    scale = math.hypot(x0, y0)
    for event, (x, y), t, field in ((first, (-y0, -x0), cycle.t_x, "X"),
                                    (second, (x0, y0), T, "Y")):
        assert (event.kind, event.region, event.field) == ("crossing", RegionKind.CROSSING, field)
        assert abs(event.x - x) <= 1e-12 * scale and abs(event.y - y) <= 1e-12 * scale
        assert abs(event.t - t) <= 1e-12 * T


def test_simulate_yields_runs_and_events_in_time_order(desk_params):
    # the desk orbit over 5001 samples: runs of one flight's samples, each a
    # slice of a block of at most 4096, every event right after its flight's
    # last run, and every sample its flow call at tau
    items = list(simulate(desk_params, [219.892, 8.431, 0.0], 50.0, 0.01))
    blocks, t_prev, t0, s, field = [], -1.0, 0.0, np.array([219.892, 8.431, 0.0]), "X"
    for item in items:
        if type(item) is Event:
            assert item.field == field and item.t >= t_prev
            t0, s, field = item.t, np.array([item.x, item.y, 0.0]), "Y" if field == "X" else "X"
            continue
        block, start, stop, run_field = item
        assert block.shape[1] == 4 and len(block) <= 4096 and 0 <= start < stop <= len(block)
        if not blocks or blocks[-1] is not block:
            blocks.append(block)
        rows = block[start:stop]
        assert run_field == field and rows[0, 0] > t_prev and np.all(np.diff(rows[:, 0]) > 0)
        t_prev = rows[-1, 0]
        flow = flow_X if field == "X" else flow_Y
        want = flow(desk_params, s, rows[:, 0] - t0)
        if rows[0, 0] == 0.0:
            want[0] = s
        assert rows[:, 1:].tobytes() == want.tobytes()
    assert [len(b) for b in blocks] == [4096, 905]
    assert sum(type(item) is Event for item in items) == 15


def test_simulate_from_a_sliding_start_is_one_terminal_event(desk_params):
    assert list(simulate(desk_params, (1.0, -2.0, 0.0), 5.0, 0.1)) == [
        Event(0.0, 1.0, -2.0, 0.0, None, "terminal", RegionKind.SLIDING, None)]


@pytest.mark.parametrize("s0, t_max, dt", [((1.0, 2.0), 1.0, 0.1),
                                           ((1.0, np.nan, 0.0), 1.0, 0.1),
                                           ((1.0, 2.0, 0.0), 0.0, 0.1),
                                           ((1.0, 2.0, 0.0), 1.0, np.inf),
                                           ((1.0, 2.0, 0.0), 1e300, 1e-300),
                                           # past NumPy's maximum array size
                                           ((1.0, 2.0, 0.0), 300.0, 1e-300)])
def test_simulate_input_errors_are_domain_errors(desk_params, s0, t_max, dt):
    with pytest.raises(DomainError):
        next(simulate(desk_params, s0, t_max, dt))
