"""Trainable parameters and sequential layer stacks.

A :class:`LayerStack` owns its parameters (created at construction from a
seeded generator), validates shape contracts once up front, and threads an
optional GRU hidden state through forward/backward. Gradient accumulation is
additive: grads are zeroed only by an explicit ``zero_grad``/``zero_grads``
call or by an :class:`redloco.nn.optim.Adam` step. An optimizer rebinds each
parameter's ``values`` and ``grad`` to views of its flat arena, so code
writes ``p.values[...]`` and never rebinds either.

Concurrency contract: forward/backward over independent inputs may run in
parallel, but accumulation into one TensorParam must be single-writer, and
optimizer steps are exclusive. The trainer relies on this: its autoencoder
update runs on a worker thread while PPO and the estimator update run on the
calling thread. The two lanes share no parameter, optimizer or generator,
and both only read the rollout, so each parameter has one writer.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterator

import numpy as np

from ..errors import ContractError
from . import layers as L


@dataclass
class TensorParam:
    """A dense trainable array, its gradient and its optimizer step count."""

    name: str
    values: np.ndarray
    grad: np.ndarray = dc_field(init=False)
    step_count: int = 0

    def __post_init__(self) -> None:
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0


@dataclass
class Tape:
    """Activation record of one forward pass; consumed by ``backward``.

    Reusable: backing a second backward through the same tape accumulates
    gradients again (additive semantics).
    """

    owner: "LayerStack"
    records: list
    batch: int
    out_shape: tuple[int, ...]


class LayerStack:
    """An ordered stack of float64 layers with seeded init.

    At most one ``gru_cell`` is supported; its hidden state is passed to
    ``forward`` and returned updated.
    """

    def __init__(self, descs: list[L.LayerDesc], input_shape: tuple[int, ...],
                 rng: np.random.Generator) -> None:
        self.descs = list(descs)
        self.input_shape = tuple(input_shape)
        shapes = [self.input_shape]
        gru_count = 0
        for d in self.descs:
            shapes.append(L.infer_shape(d, shapes[-1]))
            gru_count += d.kind == "gru_cell"
        if gru_count > 1:
            raise ContractError("at most one gru_cell per stack")
        self.has_gru = gru_count == 1
        self.gru_hidden_size = next(
            (d.n_hidden for d in self.descs if d.kind == "gru_cell"), 0)
        self.shapes = shapes
        self.output_shape = shapes[-1]
        self.layer_params: list[dict[str, TensorParam]] = []
        for i, d in enumerate(self.descs):
            raw = L.init_params(d, rng)
            self.layer_params.append(
                {k: TensorParam(f"L{i}.{k}", v) for k, v in raw.items()})

    # -- parameter plumbing ------------------------------------------------
    def params(self) -> Iterator[TensorParam]:
        for pd in self.layer_params:
            yield from pd.values()

    def zero_grads(self) -> None:
        for p in self.params():
            p.zero_grad()

    # -- execution ---------------------------------------------------------
    def forward(self, x: np.ndarray, hidden: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray | None, Tape]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != len(self.input_shape) + 1 or x.shape[1:] != self.input_shape:
            raise ContractError(
                f"input shape {x.shape[1:]} does not match stack contract {self.input_shape}")
        if not np.isfinite(x).all():
            raise ContractError("non-finite input rejected")
        if self.has_gru:
            if hidden is None:
                raise ContractError("stack contains a gru_cell: hidden state required")
            hidden = np.asarray(hidden, dtype=np.float64)
            if hidden.shape != (x.shape[0], self.gru_hidden_size):
                raise ContractError(
                    f"hidden shape {hidden.shape} != {(x.shape[0], self.gru_hidden_size)}")
        elif hidden is not None:
            raise ContractError("stack has no gru_cell: hidden state must be omitted")
        records = []
        new_hidden = None
        for d, P in zip(self.descs, self.layer_params):
            x, h_out, rec = L.forward(d, P, x, hidden if d.kind == "gru_cell" else None)
            if d.kind == "gru_cell":
                new_hidden = h_out
            records.append(rec)
        return x, new_hidden, Tape(self, records, x.shape[0], x.shape[1:])

    def backward(self, tape: Tape, output_grad: np.ndarray,
                 hidden_grad: np.ndarray | None = None, need_input_grad: bool = True
                 ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Accumulate parameter grads; returns (input_grad, prev_hidden_grad).

        A caller that discards the input grad passes ``need_input_grad=False``:
        the first layer then skips it where it can, and None is returned in
        its place. Parameter grads are the same either way."""
        if tape.owner is not self:
            raise ContractError("tape was produced by a different stack")
        g = np.asarray(output_grad, dtype=np.float64)
        if g.shape != (tape.batch,) + tape.out_shape:
            raise ContractError(
                f"output_grad shape {g.shape} != {(tape.batch,) + tape.out_shape}")
        prev_hidden_grad = None
        for i in reversed(range(len(self.descs))):
            d = self.descs[i]
            if d.kind == "gru_cell" and hidden_grad is not None:
                g = g + hidden_grad
            g, gh = L.backward(d, self.layer_params[i], tape.records[i], g,
                               need_input_grad or i > 0)
            if d.kind == "gru_cell":
                prev_hidden_grad = gh
        return (g if need_input_grad else None), prev_hidden_grad

    def zero_hidden(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.gru_hidden_size))
