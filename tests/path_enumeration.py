"""Brute-force classical oracle shared by the classical and acceptance tests."""

import numpy as np


def enumerate_joint(kernel, record, prior, t):
    """p(x_t = x, O) by summing the weights of all hidden paths.

    Every path x_0 .. x_T is one row of an index array, in the order of
    itertools.product; its weight is prior[x_0] times F_y(x_{s+1} | x_s)
    over the record, multiplied in time order. Exponential in len(record),
    so for small instances only.
    """
    n = kernel.n_states
    steps = len(record)
    paths = np.indices((n,) * (steps + 1)).reshape(steps + 1, -1)
    w = np.asarray(prior, dtype=float)[paths[0]]
    for s in range(steps):
        w = w * kernel.matrix(record[s])[paths[s + 1], paths[s]]
    return np.bincount(paths[t], weights=w, minlength=n)
