"""Deterministic fixed-step simulation of a frequency event.

The interconnection is reduced to one swing equation with load damping, a
partially responsive governor fleet modelled as a single first-order path,
and one equivalent PV plant. Deviations are per-unit on the system base;
frequency deviation is per-unit on the nominal frequency.
``steady_state_deviation`` is the closed-form balance the loop settles to.

One run integrates six coupled states with classical fourth-order
Runge-Kutta: frequency deviation, governor mechanical power, the droop-path
lag, the inertia-path lag and washout, and the inverter lag. Controller
nonlinearities (deadband, command clamp, recovery clamp) are evaluated
inside every RK4 stage from the stage states; discrete elements (the
governor reserve clamp and the optional PV rate limiter) update once per
full step. The contingency switches on at a step boundary, so the pre-event
trajectory is exactly flat. ``SimConfig.step_grid`` derives the step grid
of this loop and of the open-loop step test in ``gridfreq.compliance``: the
run ends at the last whole sample at or before ``t_end``, and an event time
that is negative, not finite, or would not switch on before that sample is
rejected.

The step loop is generated from one source template per controller variant:
droop and inertia path on or off, recovery clamp on or off and rate limiter
on or off. The clamp counts only with an inertia path and the rate limiter
only with a path to limit, so 12 configurations compile into 11 loops. The
template writes each control element once, as a block that one expander
inlines wherever it is used: ``stage`` (an RK4 stage, four per step),
``deadband``, ``command`` (the path requests with the recovery clamp),
``paths``, ``envelope`` (the plant's range-and-clamp) and ``record``. A
variant drops the lines of the elements it lacks; a path that is off keeps
its states at exactly 0.0. Each variant is compiled on first use and cached
for the process, so importing the package compiles none; its code object
is named after the variant (``<gridfreq rk4 combined+clamp+rate>``, say),
as tracebacks and profiles show. ``run_simulation`` validates the inputs,
hoists the coefficients and calls the loop. The tests check the loops
through ``run_simulation`` itself, not against a second copy: metamorphic
relations and a cross-implementation oracle against the step test's
controller (``tests/test_metamorphic.py``); closed forms of the
damping-only swing and the inertia washout, fourth-order convergence
where nothing switches, and the exact ramp of a bound rate limit
(``tests/test_engine.py``); the benchmark's seed-0 pins of every output
bit (``tests/test_perfbench.py``; its ``study`` pool runs all 11 loops);
and a ledger of the opcodes each loop executes per step.

Identical inputs produce bit-identical traces: the loop is plain scalar
float arithmetic in a fixed order with no threading and no platform-varying
reductions.
"""

from __future__ import annotations

import math
import re
from array import array
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import chain, islice, repeat
from operator import sub, truediv
from typing import Callable, Iterator

from .scenario import _KIND_PATHS, Scenario, SimConfig


# A trace column: 8 B per value, against 32 B for a float object in a list.
_column = partial(array, "d")


@dataclass
class Trace:
    """Uniformly sampled run record.

    Each of the seven columns is an ``array('d')`` holding one C double
    per sample, every value with its exact IEEE bits (``-0.0`` included),
    so a trace takes 56 B per sample: about 0.56 GB for a run sampled at
    every step of the 10**7-step budget. An array never equals a list:
    compare ``list(trace.t)`` with a list.

    ``rocof_hz_per_s[k]`` is the end-difference (f[k] - f[k-w]) /
    (t[k] - t[k-w]) where w = round(rocof_window / sample_interval); the
    window start saturates at sample 0 and rocof[0] is 0. The per-path
    columns are the droop and inertia command requests scaled to the system
    base before the plant envelope; the delivered total is ``dp_pv_pu``.

    ``cmd_min`` and ``cmd_max`` bound every plant-pu command requested
    before the envelope clamp, over all RK4 stages and rate-limiter
    updates. A run whose range lies inside [``pv.down_limit``,
    ``pv.up_limit``] never touched either limit, so any headroom whose
    envelope also contains the range gives the same trajectory.
    """

    t: array = field(default_factory=_column)
    f_hz: array = field(default_factory=_column)
    rocof_hz_per_s: array = field(default_factory=_column)
    dp_gov_pu: array = field(default_factory=_column)
    dp_pv_pu: array = field(default_factory=_column)
    dp_pv_droop_pu: array = field(default_factory=_column)
    dp_pv_inertia_pu: array = field(default_factory=_column)
    cmd_min: float = 0.0
    cmd_max: float = 0.0

    def __len__(self) -> int:
        return len(self.t)


def run_simulation(scenario: "Scenario", sim: SimConfig | None = None,
                   stop_below_hz: float | None = None) -> Trace:
    """Simulate ``scenario`` under its controller kind and return the
    sampled trace.

    ``sim``, when given, replaces ``scenario.sim``; nothing in the package
    passes it, and the benchmark harness in ``perfbench/`` still does.
    With ``stop_below_hz`` the run ends after the first sample whose
    frequency is below it, and the trace is an exact prefix of the full
    one. The step grid is ``SimConfig.step_grid``'s, so a contingency that
    would not switch on before the last sample raises ``ValueError``. A
    final state that is not finite raises ``ValueError`` naming
    ``sim.dt``; no simple bound on ``dt`` tells such a run in advance.
    """
    cfg = sim if sim is not None else scenario.sim
    system = scenario.system
    contingency = scenario.contingency
    n_steps, stride, k_event = cfg.step_grid(contingency.t_event,
                                             "contingency.t_event")

    dt = cfg.dt
    dcfg = scenario.controller.droop
    icfg = scenario.controller.inertia
    pv = system.pv
    gov = system.governor
    # The clamp needs an inertia path, the rate limiter a path's command.
    kind = scenario.controller.kind
    droop_on, inertia_on = _KIND_PATHS[kind]
    kernel = _compile_kernel(kind, inertia_on and icfg.recovery_clamp,
                             (droop_on or inertia_on)
                             and pv.rate_limit is not None)
    # The governor's discrete post-step clamp: its sign follows the event
    # direction and its magnitude stays within the fleet reserve.
    dp = contingency.dp
    reserve = gov.reserve_limit
    gov_lo = 0.0 if dp > 0.0 else -reserve
    gov_hi = 0.0 if dp < 0.0 else reserve

    trace = Trace()
    # Hoisted coefficients; the loop only reads them.
    c_lo, c_hi, state_sum = kernel(
        n_steps=n_steps, stride=stride, k_event=k_event, dt=dt,
        stop=-math.inf if stop_below_hz is None else stop_below_hz,
        w_d=dcfg.deadband, inv_rd=1.0 / dcfg.r, r_tld=1.0 / dcfg.t_lag,
        w_i=icfg.deadband, k_i=icfg.k, r_tli=1.0 / icfg.t_lag,
        r_tw=1.0 / icfg.t_washout, r_tinv=1.0 / pv.t_inv, c_pv=pv.c_pv,
        lo=pv.down_limit, hi=pv.up_limit, rate=pv.rate_limit,
        kappa_r=gov.kappa / gov.r_gov, r_tgov=1.0 / gov.t_gov,
        gov_lo=gov_lo, gov_hi=gov_hi, d_load=system.d_load,
        r_2h=1.0 / (2.0 * system.h_sys), f0=system.f0, dp=dp,
        t_out=trace.t, f_out=trace.f_hz, gov_out=trace.dp_gov_pu,
        pv_out=trace.dp_pv_pu, droop_out=trace.dp_pv_droop_pu,
        inertia_out=trace.dp_pv_inertia_pu)

    if not math.isfinite(state_sum):
        raise ValueError(
            f"simulation diverged to a non-finite state: sim.dt ({dt} s) "
            f"is too large for this scenario"
        )
    trace.cmd_min = c_lo
    trace.cmd_max = c_hi
    _fill_rocof(trace, cfg)
    return trace


def steady_state_deviation(scenario: "Scenario") -> float:
    """Quasi-steady frequency deviation (pu) after primary response settles.

    Analytic balance of ``scenario``'s contingency, neglecting deadbands
    and limits: delta_f = -dp / (kappa/r_gov + d_load [+ c_pv/r]), where
    the PV droop term, with the droop path's ``r``, counts when the
    controller kind is droop or combined. With no responsive resource the
    denominator is zero and ``ValueError`` is raised.
    """
    system = scenario.system
    denom = system.governor.kappa / system.governor.r_gov + system.d_load
    if _KIND_PATHS[scenario.controller.kind][0]:
        denom += system.pv.c_pv / scenario.controller.droop.r
    if denom == 0.0:
        raise ValueError(
            "no responsive resources: kappa/r_gov + d_load is zero"
        )
    return -scenario.contingency.dp / denom


# The step loop of every variant. The first three columns of a line are
# its tags, and a variant keeps the line only if every tag holds: "D" and
# "I" the droop or inertia path is on, "d" and "i" it is off, "C" the
# recovery clamp is on (inertia path only), "R" and "r" the rate limiter is
# on or off, "S" the stage is one of stages 2-4. Untagged lines are always
# kept. A line "@<block> name=text ..." expands that block of _BLOCKS at
# its indentation; a block's {name} fields take the line's names, then
# those of the block around it. Stages 2-4 name their states sdf ... sp.
#
# [lo_s, hi_s] is the step's command envelope, which the rate limiter may
# narrow each step, and [c_lo, c_hi] the range of commands requested.
_LOOP = """\
   def kernel(*, n_steps, stride, k_event, dt, stop, w_d, inv_rd, r_tld,
              w_i, k_i, r_tli, r_tw, r_tinv, c_pv, lo, hi, rate, kappa_r,
              r_tgov, gov_lo, gov_hi, d_load, r_2h, f0, dp, t_out, f_out,
              gov_out, pv_out, droop_out, inertia_out):
       lo_s = lo
       hi_s = hi
       c_lo = c_hi = w_lo = w_hi = 0.0
       df = dpm = ld = li = xw = p = 0.0
       prev_cmd = 0.0
       h2 = 0.5 * dt
       dt6 = dt / 6.0
R      max_delta = rate * dt
       @paths
       @record t=0.0
       if f < stop:
           n_steps = 0
       for k in range(1, n_steps + 1):
           dp_event = dp if k > k_event else 0.0
R          x = prev_cmd - max_delta
R          lo_s = x if x > lo else lo
R          x = prev_cmd + max_delta
R          hi_s = x if x < hi else hi
R          w_lo = c_lo if c_lo > lo_s else lo_s
R          w_hi = c_hi if c_hi < hi_s else hi_s
           @stage n=1
           @stage n=2 m=1 h=h2
           @stage n=3 m=2 h=h2
           @stage n=4 m=3 h=dt
           df += dt6 * (a1 + 2.0 * (a2 + a3) + a4)
           dpm += dt6 * (b1 + 2.0 * (b2 + b3) + b4)
D          ld += dt6 * (c1 + 2.0 * (c2 + c3) + c4)
I          li += dt6 * (e1 + 2.0 * (e2 + e3) + e4)
I          xw += dt6 * (g1 + 2.0 * (g2 + g3) + g4)
           p += dt6 * (p1 + 2.0 * (p2 + p3) + p4)
           if dpm < gov_lo:
               dpm = gov_lo
           elif dpm > gov_hi:
               dpm = gov_hi
R          @paths
R          cmd = cmd_d + cmd_i
R          @envelope
R          prev_cmd = cmd
           if k % stride == 0:
r              @paths
               @record t=k * dt
               if f < stop:
                   break
       return c_lo, c_hi, df + dpm + ld + li + xw + p
"""

_BLOCKS = {
    # The right-hand side at stage {n}: the slopes a, b, c, e, g and p of
    # df, dpm, ld, li, xw and p, taken at the stage states {df} ... {p}.
    # Stages 2-4 first form those from stage {m}'s slopes.
    "stage": """\
S  sdf = df + {h} * a{m}
S  sdpm = dpm + {h} * b{m}
SD sld = ld + {h} * c{m}
SI sli = li + {h} * e{m}
SI sxw = xw + {h} * g{m}
S  sp = p + {h} * p{m}
D  @deadband w=w_d
D  c{n} = (u - {ld}) * r_tld
I  @deadband w=w_i
I  e{n} = (u - {li}) * r_tli
   @command cmd=cmd ci=ci g=g{n}
I  cmd += ci
   @envelope
   p{n} = (cmd - {p}) * r_tinv
   a{n} = ({dpm} + c_pv * {p} - dp_event - d_load * {df}) * r_2h
   b{n} = (-kappa_r * {df} - {dpm}) * r_tgov
""",
    # A path's lag input u: {df} less its deadband {w}, continuous at +-{w}.
    "deadband": """\
   if {df} > {w}:
       u = {df} - {w}
   elif {df} < -{w}:
       u = {df} + {w}
   else:
       u = 0.0
""",
    # The path requests (plant pu): droop {cmd}, and the washout output {ci}
    # = -{g}, which the recovery clamp zeroes while it opposes recovery.
    "command": """\
D  {cmd} = -{ld} * inv_rd
d  {cmd} = 0.0
I  {g} = (k_i * {li} - {xw}) * r_tw
I  {ci} = -{g}
C  if {df} < 0.0:
C      if {ci} < 0.0:
C          {ci} = 0.0
C  elif {df} > 0.0:
C      if {ci} > 0.0:
C          {ci} = 0.0
""",
    # Per-path command requests at the state after a step.
    "paths": """\
   @command cmd=cmd_d ci=cmd_i g=cmd_i
i  cmd_i = 0.0
""",
    # The plant envelope: widen [c_lo, c_hi] to cmd, clamp cmd into [lo_s,
    # hi_s] (inside [lo, hi]). Each pass leaves w_lo = max(c_lo, lo_s) and
    # w_hi = min(c_hi, hi_s); one test skips a request in [w_lo, w_hi].
    "envelope": """\
   if not w_lo <= cmd <= w_hi:
       if cmd < c_lo:
           c_lo = cmd
       elif cmd > c_hi:
           c_hi = cmd
       w_lo = c_lo if c_lo > lo_s else lo_s
       w_hi = c_hi if c_hi < hi_s else hi_s
       if cmd < lo_s:
           cmd = lo_s
       elif cmd > hi_s:
           cmd = hi_s
""",
    # One sample at time {t}, after "@paths".
    "record": """\
   t_out.append({t})
   f = f0 * (1.0 + df)
   f_out.append(f)
   gov_out.append(dpm)
   pv_out.append(c_pv * p)
   droop_out.append(c_pv * cmd_d)
   inertia_out.append(c_pv * cmd_i)
""",
}

_STATES = ("df", "dpm", "ld", "li", "xw", "p")
# A directive's "name=text" pairs; a text runs to the next pair.
_PAIR = re.compile(r"(\w+)=(.*?)(?= \w+=|$)")


@cache
def _compile_kernel(kind: str, clamp_on: bool,
                    rate_on: bool) -> Callable[..., tuple]:
    """Generate and compile the step loop of one variant."""
    droop_on, inertia_on = _KIND_PATHS[kind]
    holds = {"D": droop_on, "d": not droop_on, "I": inertia_on,
             "i": not inertia_on, "C": clamp_on, "R": rate_on,
             "r": not rate_on}

    def expand(block: str, indent: str, names: dict) -> Iterator[str]:
        for line in block.splitlines():
            if not all(holds[tag] for tag in line[:3].strip()):
                continue
            line = indent + line[3:].format(**names)
            code = line.lstrip()
            if not code.startswith("@"):
                yield line
                continue
            sub, _, arg = code[1:].partition(" ")
            inner = {**names, **dict(_PAIR.findall(arg))}
            if sub == "stage":
                holds["S"] = "h" in inner
                inner |= {s: "s" * holds["S"] + s for s in _STATES}
            yield from expand(_BLOCKS[sub], line[:-len(code)], inner)

    name = kind + "+clamp" * clamp_on + "+rate" * rate_on
    source = "\n".join(expand(_LOOP, "", {s: s for s in _STATES}))
    namespace: dict[str, Callable[..., tuple]] = {}
    exec(compile(source, f"<gridfreq rk4 {name}>", "exec"), namespace)
    return namespace["kernel"]


def _fill_rocof(trace: Trace, cfg: SimConfig) -> None:
    # Sample k's window starts at k - w, or at sample 0 while k < w:
    # m - 1 starts at sample 0, then samples 0 .. n - m - 1 in turn. The
    # iterators are lazy, so no column is copied, and indexing an array
    # would box a new float for every read.
    w = max(1, round(cfg.rocof_window / cfg.sample_interval))
    t = trace.t
    f = trace.f_hz
    n = len(t)
    m = min(w, n)
    out = trace.rocof_hz_per_s
    out.append(0.0)

    def starts(column: array) -> Iterator[float]:
        return chain(repeat(column[0], m - 1), islice(column, 0, n - m))

    out.extend(map(truediv, map(sub, islice(f, 1, None), starts(f)),
                   map(sub, islice(t, 1, None), starts(t))))
