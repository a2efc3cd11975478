"""Monte Carlo Gini oracle for the tests: the Gini of ``n`` draws of
``distributions.sample``, with a standard error from 20 batch means."""

import math

import numpy as np

from gb2fit import distributions as dist
from gb2fit.measures import weighted_gini

BATCHES = 20


def mc_gini(spec, n=1_000_000, seed=0):
    """(Gini, standard error) of ``n`` draws of ``spec`` at ``seed``."""
    x = dist.sample(spec, n, seed=seed)
    batch_ginis = [weighted_gini(b) for b in np.array_split(x, BATCHES)]
    return weighted_gini(x), float(np.std(batch_ginis, ddof=1) / math.sqrt(BATCHES))
