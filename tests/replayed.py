"""The grid points of a flow's steps, collected, for tests that read a run."""

from collections import namedtuple

import numpy as np

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
