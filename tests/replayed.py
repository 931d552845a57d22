"""The grid points of a flow's steps, collected, for tests that read a run,
and the frozen flows the Monte Carlo sampler builds, recorded."""

from collections import namedtuple

import numpy as np

import mfsde.feynman_kac as feynman_kac
from mfsde import StreamedFlow

#: one pass: its times (n,), states (n, N, d), the increments of its steps
#: (n - 1, N, m) and its snapshots, one per grid point
Run = namedtuple("Run", "times states noise laws")


def replayed(flow, s=None, t=None):
    """The grid points of ``flow`` from s to t (by default its whole grid),
    collected from one pass over its steps."""
    s = flow.times[0] if s is None else s
    t = flow.times[-1] if t is None else t
    times, states, laws, noise = zip(*flow.steps(s, t))
    return Run(np.array(times), np.array(states), np.array(noise[:-1]), laws)


def recorded_flows(monkeypatch):
    """The list of the frozen flows the sampler builds from here on, in the
    order it builds them: a StreamedFlow patched into feynman_kac that keeps
    its coefficients, initial law and start, and the laws its steps yield."""
    flows = []

    class Recorded(StreamedFlow):
        def __init__(self, coeff, init, N, T, dt, seed, s=0.0):
            super().__init__(coeff, init, N, T, dt, seed, s)
            self.coeff, self.init, self.start, self.laws = coeff, init, s, []
            flows.append(self)

        def steps(self, s, t):
            def kept(point):
                self.laws.append(point[2])
                return point

            return map(kept, super().steps(s, t))

    monkeypatch.setattr(feynman_kac, "StreamedFlow", Recorded)
    return flows
