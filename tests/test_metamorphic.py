"""Bit-exact metamorphic relations of the engine and the step test.

IEEE-754 round-to-nearest commutes with negation and with scaling by a
power of two, so these relations hold bit for bit and need no copy of the
physics to check them:

* **Sign.** At headroom exactly 0.5 the plant envelope is symmetric, and
  dp -> -dp negates the four power columns and maps (cmd_min, cmd_max) to
  (-cmd_max, -cmd_min). ``f_hz`` is f0 * (1 + df), which is not exactly
  odd about f0, so it is not compared.
* **Amplitude x4.** Scaling dp, both deadbands, ``available_power``,
  ``reserve_limit`` and ``rate_limit`` by 4 scales the power columns and
  the command range by exactly 4 and leaves ``t`` as it is.
* **Time x2.** Scaling every time (dt, t_end, sample_interval,
  rocof_window, t_event and each time constant), h_sys and k by 2, and
  halving ``rate_limit``, leaves ``f_hz``, the power columns and the
  command range as they are, doubles ``t`` and halves ROCOF.

One engine property rides along: the command range bounds every sampled
path request.

The step test's ZOH coefficients depend only on dt / T, so it keeps the
amplitude relation (with ``step_magnitude`` scaled too: y scales by 4) and
the time relation (with the step time doubled: y is unchanged, t doubles).
A run that diverges must diverge on both sides.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from gridfreq.compliance import ComplianceThresholds, run_step_test
from gridfreq.engine import run_simulation
from gridfreq.scenario import CONTROLLER_KINDS, scenario_from_dict

POWER = ("dp_gov_pu", "dp_pv_pu", "dp_pv_droop_pu", "dp_pv_inertia_pu")

AMPLITUDE = {"contingency.dp": 4.0, "controller.droop.deadband": 4.0,
             "controller.inertia.deadband": 4.0,
             "system.pv.available_power": 4.0,
             "system.governor.reserve_limit": 4.0,
             "system.pv.rate_limit": 4.0}
TIME = {"sim.dt": 2.0, "sim.t_end": 2.0, "sim.sample_interval": 2.0,
        "sim.rocof_window": 2.0, "contingency.t_event": 2.0,
        "controller.droop.t_lag": 2.0, "controller.inertia.t_lag": 2.0,
        "controller.inertia.t_washout": 2.0, "controller.inertia.k": 2.0,
        "system.pv.t_inv": 2.0, "system.governor.t_gov": 2.0,
        "system.h_sys": 2.0, "system.pv.rate_limit": 0.5}

# Few examples per relation keep this module near 1 s.
relation = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def documents(draw, kinds=CONTROLLER_KINDS):
    """A full scenario document: every field drawn, short horizon, every
    limit able to bind, the event before the last sample."""
    dt = draw(st.sampled_from((0.0025, 0.005, 0.01)))
    stride = draw(st.integers(1, 4))
    t_event = draw(st.floats(0.0, 0.5))
    n_samples = draw(st.integers(int((t_event + 2 * dt) / (stride * dt))
                                 + 3, int(2.0 / (stride * dt)) + 3))
    sign = draw(st.sampled_from((1.0, -1.0)))
    floats = st.floats
    return {
        "system": {
            "h_sys": draw(floats(0.5, 8.0)),
            "d_load": draw(floats(0.0, 2.0)),
            "f0": draw(floats(1.0, 100.0)),
            "governor": {"kappa": draw(floats(0.0, 1.0)),
                         "r_gov": draw(floats(0.02, 0.1)),
                         "t_gov": draw(floats(0.5, 10.0)),
                         "reserve_limit": draw(floats(0.0005, 0.05))},
            "pv": {"c_pv": draw(floats(0.05, 1.0)),
                   "headroom": draw(st.one_of(floats(0.0, 0.05),
                                              floats(0.0, 0.95))),
                   "available_power": draw(floats(0.2, 2.0)),
                   "t_inv": draw(floats(0.02, 0.2)),
                   "rate_limit": draw(st.one_of(st.none(),
                                                floats(0.005, 0.5)))}},
        "controller": {
            "kind": draw(st.sampled_from(kinds)),
            "droop": {"r": draw(floats(0.02, 0.1)),
                      "deadband": draw(floats(0.0, 0.002)),
                      "t_lag": draw(floats(0.05, 0.5))},
            "inertia": {"k": draw(floats(0.0, 15.0)),
                        "deadband": draw(floats(0.0, 0.002)),
                        "t_lag": draw(floats(0.02, 0.1)),
                        "t_washout": draw(floats(0.05, 0.3)),
                        "recovery_clamp": draw(st.booleans())}},
        "contingency": {"dp": sign * draw(floats(0.002, 0.06)),
                        "t_event": t_event},
        "sim": {"dt": dt, "t_end": n_samples * stride * dt,
                "sample_interval": stride * dt,
                "rocof_window": draw(floats(0.01, 0.5))},
    }


def scaled(doc: dict, factors: dict[str, float]) -> dict:
    """A copy of ``doc`` with the field at each dotted path multiplied by
    its factor; an unset optional field stays unset."""
    doc = copy.deepcopy(doc)
    for path, factor in factors.items():
        *sections, leaf = path.split(".")
        section = doc
        for name in sections:
            section = section[name]
        if section[leaf] is not None:
            section[leaf] *= factor
    return doc


def simulate(doc: dict):
    """The trace of ``doc``, or ``None`` when the run diverges."""
    try:
        return run_simulation(scenario_from_dict(doc))
    except ValueError as exc:
        assert "diverged" in str(exc)
        return None


def step_response(doc: dict, step_magnitude: float):
    """The step test of ``doc``'s controller and plant over its sim
    settings, with the step at its event time."""
    scenario = scenario_from_dict(doc)
    return run_step_test(
        scenario.controller, scenario.system.pv,
        ComplianceThresholds(step_magnitude=step_magnitude),
        sim=scenario.sim, step_time=scenario.contingency.t_event)


def columns(trace, names=POWER) -> list[list[float]]:
    return [list(getattr(trace, name)) for name in names]


class TestEngineRelations:
    @relation
    @given(doc=documents())
    def test_sign(self, doc):
        doc["system"]["pv"]["headroom"] = 0.5
        base = simulate(doc)
        flipped = simulate(scaled(doc, {"contingency.dp": -1.0}))
        assert (base is None) == (flipped is None)
        if base is None:
            return
        assert columns(flipped) == [[-v for v in col]
                                    for col in columns(base)]
        assert (flipped.cmd_min, flipped.cmd_max) == (-base.cmd_max,
                                                      -base.cmd_min)
        assert list(flipped.t) == list(base.t)

    @relation
    @given(doc=documents())
    def test_amplitude_times_four(self, doc):
        base = simulate(doc)
        big = simulate(scaled(doc, AMPLITUDE))
        assert (base is None) == (big is None)
        if base is None:
            return
        assert columns(big) == [[4.0 * v for v in col]
                                for col in columns(base)]
        assert (big.cmd_min, big.cmd_max) == (4.0 * base.cmd_min,
                                              4.0 * base.cmd_max)
        assert list(big.t) == list(base.t)

    @relation
    @given(doc=documents())
    def test_time_times_two(self, doc):
        base = simulate(doc)
        slow = simulate(scaled(doc, TIME))
        assert (base is None) == (slow is None)
        if base is None:
            return
        assert columns(slow, POWER + ("f_hz",)) == columns(
            base, POWER + ("f_hz",))
        assert (slow.cmd_min, slow.cmd_max) == (base.cmd_min, base.cmd_max)
        assert list(slow.t) == [2.0 * v for v in base.t]
        assert list(slow.rocof_hz_per_s) == [
            0.5 * v for v in base.rocof_hz_per_s]


class TestCommandRangeBound:
    @relation
    @given(doc=documents())
    def test_bounds_every_sampled_request(self, doc):
        """Each sample's path requests, except the last sample's, are
        requested again at the next step's first stage, so the command
        range bounds their sum (to rounding of the c_pv scaling)."""
        trace = simulate(doc)
        if trace is None:
            return
        pairs = list(zip(trace.dp_pv_droop_pu, trace.dp_pv_inertia_pu))[:-1]
        requests = [d + i for d, i in pairs]
        tol = 1e-12 * max(abs(d) + abs(i) for d, i in pairs)
        c_pv = doc["system"]["pv"]["c_pv"]
        assert c_pv * trace.cmd_min - tol <= min(requests)
        assert max(requests) <= c_pv * trace.cmd_max + tol


class TestStepTestRelations:
    @relation
    @given(doc=documents(CONTROLLER_KINDS[1:]),
           step_magnitude=st.floats(0.0005, 0.01))
    def test_amplitude_times_four(self, doc, step_magnitude):
        base = step_response(doc, step_magnitude)
        big = step_response(scaled(doc, AMPLITUDE), 4.0 * step_magnitude)
        assert big.y == [4.0 * v for v in base.y]
        assert big.t == base.t

    @relation
    @given(doc=documents(CONTROLLER_KINDS[1:]),
           step_magnitude=st.floats(0.0005, 0.01))
    def test_time_times_two(self, doc, step_magnitude):
        base = step_response(doc, step_magnitude)
        slow = step_response(scaled(doc, TIME), step_magnitude)
        assert slow.y == base.y
        assert slow.t == [2.0 * v for v in base.t]
