"""Cut Hamiltonian tables, symbolic mixer commutators, and step-size norm bounds.

The cut operator for a graph is diagonal: entry x counts edges whose endpoint
bits differ in x. That table drives both phase evolution and expectations, and
its max is the exact operator norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .graphs import Graph, GraphError, cut_table
from .statevector import STATE_CAP_DEFAULT, ObservableTerms, PauliTerm, cap_message


@dataclass(frozen=True)
class MaxCutHamiltonian:
    graph: Graph
    diag: np.ndarray  # uint16 cut counts, length 2^n
    m: int

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def hf_norm(self) -> float:
        """Exact spectral norm: max over the diagonal, computed on first use."""
        return float(self.diag.max())


@dataclass(frozen=True)
class NormBounds:
    """The step-size constants A, B, C of max_step_size, from the exact norm of H_f (the diagonal max)
    and triangle-inequality upper bounds on the mixer and full norms summed from per-term coefficients.
    Upper-bounding only shrinks the admissible step, so the error guarantee survives."""

    A: float
    B: float
    C: float


def build_maxcut(g: Graph, cap: int = STATE_CAP_DEFAULT) -> MaxCutHamiltonian:
    """Wrap the per-basis cut table of g."""
    if g.n > cap:
        raise GraphError(cap_message(g.n, cap))
    return MaxCutHamiltonian(graph=g, diag=cut_table(g), m=g.m)


def commutator_terms(mixer: ObservableTerms, h: MaxCutHamiltonian) -> ObservableTerms:
    """Symbolic Pauli expansion of i[mixer, H_f].

    Supports mixer terms of shape X_j or Y_j Z_k; pure-Z terms commute and
    contribute nothing. The result is a Hermitian sum whose expectation equals
    the commutator expectation on every state.
    """
    acc: dict[tuple[tuple[int, str], ...], float] = {}

    def add(coeff: float, ops: dict[int, str]) -> None:
        key = tuple(sorted(ops.items()))
        acc[key] = acc.get(key, 0.0) + coeff

    adjacency = h.graph.adjacency
    for term in mixer.terms:
        letters = sorted(p for _, p in term.ops)
        if letters and all(p == "Z" for p in letters):
            continue
        if letters == ["X"]:
            (j, _), = term.ops
            # i[X_j, H_f] = -sum over edges (j, w) of Y_j Z_w
            for w in adjacency[j]:
                add(-term.coefficient, {j: "Y", w: "Z"})
        elif letters == ["Y", "Z"]:
            j = next(q for q, p in term.ops if p == "Y")
            k = next(q for q, p in term.ops if p == "Z")
            # i[Y_j Z_k, H_f] = +sum over edges (j, w) of X_j Z_k Z_w, with Z_k Z_k = I
            for w in adjacency[j]:
                if w == k:
                    add(term.coefficient, {j: "X"})
                else:
                    add(term.coefficient, {j: "X", k: "Z", w: "Z"})
        else:
            raise ValueError(f"unsupported mixer term shape {term.ops}")

    terms = tuple(
        PauliTerm(coefficient=c, ops=key) for key, c in sorted(acc.items()) if c != 0.0
    )
    return ObservableTerms(terms=terms)


def error_constants(
    h: MaxCutHamiltonian,
    mixer_coefficients: Sequence[float],
    eta_coefficients: Sequence[float],
) -> NormBounds:
    """Step-size constants from triangle-inequality norm bounds.

    The commuting part carries coefficients eta_k on unit-norm per-edge
    operators, the mixer coefficients sit on unit-norm Pauli strings. The B
    constant keeps the printed structure in which the mixer sum stops one
    term short and the remainder is folded into the final difference.
    """
    hf = h.hf_norm
    eta_sum = float(sum(abs(c) for c in eta_coefficients))
    mixer_sum = float(sum(abs(c) for c in mixer_coefficients))
    mixer_but_last = mixer_sum - (abs(float(mixer_coefficients[-1])) if len(mixer_coefficients) else 0.0)
    full = eta_sum + mixer_sum
    combined_bound = eta_sum + mixer_but_last
    return NormBounds(
        A=2.0 * hf * mixer_sum * full,
        B=2.0 * hf * (eta_sum + mixer_but_last + combined_bound),
        C=full,
    )
