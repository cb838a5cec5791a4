"""Reproducible random-number streams.

A master 64-bit seed is fanned out into named substreams via
SeedSequence spawn keys, so each consumer (sampler, perturbations,
nondivergence grid, ...) owns an independent Philox stream.  Monte
Carlo work is split into fixed-size chunks indexed by chunk number,
each chunk deriving its own stream from (seed, stream_id, chunk);
reductions run in chunk order, so results do not depend on how many
workers processed the chunks.
"""

import concurrent.futures

import numpy as np

# Fixed chunk size for worker-count-independent Monte Carlo splits.
CHUNK = 1 << 16


def stream(seed, stream_id, chunk=None):
    """Independent Generator for (seed, stream_id[, chunk])."""
    key = (int(stream_id),) if chunk is None else (int(stream_id), int(chunk))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def chunked_map(fn, n_total, seed, stream_id, threads=1):
    """Run fn(rng, count) over fixed chunks; return list in chunk order.

    The chunk grid depends only on n_total, never on `threads`, so the
    concatenated output is byte-identical for any worker count.  The
    caller checks n_total (`errors.require_int`).
    """
    chunks = [(i, min(CHUNK, n_total - i * CHUNK)) for i in range((n_total + CHUNK - 1) // CHUNK)]

    def run(arg):
        i, count = arg
        return fn(stream(seed, stream_id, i), count)

    if threads <= 1 or len(chunks) <= 1:
        return [run(c) for c in chunks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(run, chunks))
