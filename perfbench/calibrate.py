"""A fixed reference computation that measures how fast the machine runs now.

On a shared machine the same work can take from 0.8 to 1.5 times its usual
CPU time, for minutes at a time, depending on load from outside the process.
The runner times this kernel before the first and after every piece of work
(set-up or job) and scales the run's CPU times by REFERENCE_S over the
kernel's mean time in that run, so that such drift cancels out.  The kernel
uses plain Python, json and numpy only, never hsg, so a change to hsg cannot
change it.  Its mix of work resembles the lab's: LSTM-sized matrix-vector
products and elementwise numpy calls, ranking and counting of Python tuples
as in beam search and the metrics, a reverse sweep, and a JSON round trip.
"""

import json
import time

import numpy as np

# Kernel CPU seconds, roughly, on the machine the baseline was measured on
# (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6, one OpenBLAS thread).  A
# scaled time reads as CPU seconds on that machine; the value only sets the
# scale.
REFERENCE_S = 0.02


def kernel(steps=300, hidden=64):
    rng = np.random.default_rng(0)
    w = rng.uniform(-0.1, 0.1, (4 * hidden, 2 * hidden))
    x = rng.uniform(-1.0, 1.0, hidden)
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    tape = []
    counts = {}
    for t in range(steps):
        z = w @ np.concatenate([x, h])
        i = 1.0 / (1.0 + np.exp(-z[:hidden]))
        f = 1.0 / (1.0 + np.exp(-z[hidden:2 * hidden]))
        g = np.tanh(z[2 * hidden:3 * hidden])
        o = 1.0 / (1.0 + np.exp(-z[3 * hidden:]))
        c = f * c + i * g
        h = o * np.tanh(c)
        tape.append({"step": t, "c": c, "o": o})
        ranked = sorted((-float(s), (t % 7, k)) for k, s in enumerate(o))[:5]
        for _score, gram in ranked:
            counts[gram] = counts.get(gram, 0) + 1
    grad = np.ones(hidden)
    for node in reversed(tape):
        tc = np.tanh(node["c"])
        grad = w[3 * hidden:, hidden:].T @ (grad * node["o"] * (1.0 - tc * tc))
    text = json.dumps([[float(v) for v in node["c"]] for node in tape[:40]])
    return float(grad.sum()) + len(json.loads(text)) + len(counts)


def measure(repeats=8):
    """Mean CPU seconds of `repeats` kernel runs."""
    start = time.process_time()
    for _ in range(repeats):
        kernel()
    return (time.process_time() - start) / repeats
