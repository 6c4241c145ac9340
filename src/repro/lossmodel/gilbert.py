"""The Gilbert burst-loss process (Section 6 of the paper).

Each link fluctuates between a *good* state (no drops) and a *bad* state
(drops everything).  Following the paper (and Paxson's measurements), the
probability of remaining in the bad state is fixed at 0.35; the remaining
transition probabilities are chosen so the chain's stationary bad-state
probability equals the link's assigned average loss rate ``l``:

    P(bad -> good) = 1 - P(bad -> bad) = 0.65
    P(good -> bad) = 0.65 * l / (1 - l)

so that ``pi_bad = P(g->b) / (P(g->b) + P(b->g)) = l``.  Chains start in
their stationary distribution, making every snapshot's expected loss
fraction exactly ``l`` while consecutive probes see bursty correlations —
the variance signal LIA exploits.

The chain is realised 64 slots at a time on packed ``uint64`` words (the
layout of :meth:`~repro.lossmodel.processes.LossProcess.sample_packed`)
as an adder's carry chain; see :meth:`GilbertProcess._packed_blocks`.
The only Python loop runs over the ``ceil(num_probes / 64)`` words.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.lossmodel.processes import STREAMING_CHUNK, LossProcess, unpack_states
from repro.utils.rng import SeedLike, as_rng

#: Bits of the odd slots in a 64-slot word.
_ODD_BITS = np.uint64(0xAAAAAAAAAAAAAAAA)

#: Weight of each of a byte's eight slots, lowest slot first.
_BIT_WEIGHTS = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


def _pack_time_major(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(64 * words, num_links)`` boolean array into
    ``(words, num_links)`` ``uint64`` words, slot ``t`` at bit ``t % 64``.

    Each byte is the dot product of eight consecutive slots with the bit
    weights; ``np.packbits`` along axis 0 does the same several times
    slower.
    """
    words, num_links = bits.shape[0] // 64, bits.shape[1]
    octets = bits.view(np.uint8).reshape(words * 8, 8, num_links)
    packed = np.einsum("kil,i->kl", octets, _BIT_WEIGHTS)
    packed = packed.reshape(words, 8, num_links).transpose(0, 2, 1)
    return np.ascontiguousarray(packed).view("<u8")[..., 0].astype(
        np.uint64, copy=False
    )


class GilbertProcess(LossProcess):
    """Two-state on/off loss chains, vectorised across links."""

    def __init__(self, stay_bad: float = 0.35):
        if not 0 <= stay_bad < 1:
            raise ValueError(f"stay_bad must be in [0, 1), got {stay_bad}")
        self.stay_bad = float(stay_bad)

    def good_to_bad(self, loss_rates: np.ndarray) -> np.ndarray:
        """P(good -> bad) per link for target average loss rates.

        Valid for targets below the chain's reachable ceiling
        ``1 / (2 - stay_bad)``; :meth:`effective_parameters` handles the
        full [0, 1] range.
        """
        rates = np.minimum(np.asarray(loss_rates, dtype=np.float64), 1.0 - 1e-9)
        leave_bad = 1.0 - self.stay_bad
        return leave_bad * rates / (1.0 - rates)

    def effective_parameters(
        self, loss_rates: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Per-link ``(P(good->bad), P(bad->bad))`` hitting any target rate.

        With ``P(bad->bad)`` fixed the stationary loss tops out at
        ``1 / (1 + (1 - stay_bad))`` (~0.61 at the paper's 0.35) — below
        LLRD2's upper range.  Beyond the ceiling we pin ``P(good->bad)``
        at 1 and lengthen bursts instead: ``P(bad->good) = (1-l)/l`` gives
        stationary loss exactly ``l`` all the way to the absorbing case
        ``l = 1``.
        """
        rates = np.asarray(loss_rates, dtype=np.float64)
        leave_bad = 1.0 - self.stay_bad
        ceiling = 1.0 / (1.0 + leave_bad)
        g2b = np.minimum(self.good_to_bad(rates), 1.0)
        stay = np.full_like(rates, self.stay_bad)
        high = rates > ceiling
        if high.any():
            g2b = np.where(high, 1.0, g2b)
            with np.errstate(divide="ignore", invalid="ignore"):
                leave = np.where(
                    rates > 0, (1.0 - rates) / np.maximum(rates, 1e-12), 1.0
                )
            stay = np.where(high, 1.0 - np.minimum(leave, 1.0), stay)
        return g2b, stay

    def _packed_blocks(
        self, loss_rates: np.ndarray, num_probes: int, seed: SeedLike, block: int
    ) -> Iterator["tuple[np.ndarray, int]"]:
        """Yield ``(words, n)`` for consecutive blocks of *n* <= *block* slots.

        ``words`` is the block's ``(num_links, ceil(n / 64))`` packed drop
        matrix.  The chain draws its uniforms time-major: one
        ``num_links`` vector for the stationary start, then one row per
        transition, so drawing ``rng.random((n, num_links))`` block by
        block consumes the identical bitstream whatever *block* is.

        With ``a = u < stay`` and ``b = u < g2b``, the step
        ``s_t = s_{t-1} ? a_t : b_t`` is an adder's carry chain.  Where
        ``g2b <= stay``, ``b`` implies ``a`` and ``s_t = b_t | (a_t &
        s_{t-1})``: generate ``G = b``, propagate ``P = a``.  Where
        ``g2b > stay`` (targets above about 0.35), ``a`` implies ``b`` and
        ``s_t = a_t | (b_t & ~s_{t-1})``; the state complemented on odd
        slots then obeys a carry chain with ``G = a, P = b`` on even slots
        and ``G = ~b, P = ~a`` on odd ones, and XOR-ing the odd bits back
        recovers ``s``.  Per 64-slot word, ``cin = (P + G + carry) ^ P ^ G``
        is every bit's carry in and ``G | (P & cin)`` its carry out, which
        is the state; bit 63 carries into the next word.  The start state
        enters as ``G = P = s_0`` in slot 0.
        """
        rates = self._validated_rates(loss_rates)
        if num_probes <= 0:
            raise ValueError(f"num_probes must be positive, got {num_probes}")
        if block <= 0:
            raise ValueError(f"chunk_size must be positive, got {block}")
        rng = as_rng(seed)
        g2b, stay = self.effective_parameters(rates)
        lower = np.minimum(g2b, stay)
        upper = np.maximum(g2b, stay)
        alternating = np.flatnonzero(g2b > stay)
        num_links = rates.shape[0]

        def blocks() -> Iterator["tuple[np.ndarray, int]"]:
            start_state = rng.random(num_links) < rates
            # s at the last slot of the previous block, one 0/1 word per link.
            previous = None
            emitted = 0
            while emitted < num_probes:
                n = min(block, num_probes - emitted)
                words = -(-n // 64)
                generate = np.zeros((words * 64, num_links), dtype=bool)
                propagate = np.zeros((words * 64, num_links), dtype=bool)
                first = 0
                if previous is None:
                    generate[0] = propagate[0] = start_state
                    first = 1
                uniforms = rng.random((n - first, num_links))
                np.less(uniforms, lower, out=generate[first:n])
                np.less(uniforms, upper, out=propagate[first:n])
                G = _pack_time_major(generate)
                P = _pack_time_major(propagate)
                flip = np.full((words, 1), _ODD_BITS, dtype=np.uint64)
                if alternating.size:
                    # A padding slot past n has g = p = 0, so its odd bits
                    # come out of the chain set and the XOR back below
                    # clears them: padding stays zero.
                    g, p = G[:, alternating], P[:, alternating]
                    G[:, alternating] = (g & ~flip) | (~p & flip)
                    P[:, alternating] = (p & ~flip) | (~g & flip)
                carry = np.zeros(num_links, dtype=np.uint64)
                if previous is not None:
                    carry[:] = previous
                    carry[alternating] ^= np.uint64(1)
                states = np.empty_like(G)
                for w in range(words):
                    g, p = G[w], P[w]
                    carry_in = (p + g + carry) ^ p ^ g
                    states[w] = g | (p & carry_in)
                    carry = states[w] >> np.uint64(63)
                if alternating.size:
                    states[:, alternating] ^= flip
                previous = (states[-1] >> np.uint64((n - 1) % 64)) & np.uint64(1)
                yield np.ascontiguousarray(states.T), n
                emitted += n

        return blocks()

    def sample_packed(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """The chain's packed drop words, drawn ``STREAMING_CHUNK`` slots
        at a time so the uniforms never exceed one block."""
        blocks = [
            words
            for words, _ in self._packed_blocks(
                loss_rates, num_probes, seed, STREAMING_CHUNK
            )
        ]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    def iter_state_chunks(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
        chunk_size: int = STREAMING_CHUNK,
    ) -> Iterator[np.ndarray]:
        """True chunked realisation, bit-identical to the unchunked one:
        only the chain state crosses chunk boundaries."""
        blocks = self._packed_blocks(loss_rates, num_probes, seed, chunk_size)
        return (unpack_states(words, n) for words, n in blocks)

    def sample_states(
        self,
        loss_rates: np.ndarray,
        num_probes: int,
        seed: SeedLike = None,
    ) -> np.ndarray:
        return unpack_states(
            self.sample_packed(loss_rates, num_probes, seed=seed), num_probes
        )

    def burst_length_mean(self) -> float:
        """Expected bad-state sojourn (in probes): 1 / P(bad -> good)."""
        return 1.0 / (1.0 - self.stay_bad)
