"""Dense tensors and a reverse-mode gradient tape.

Values are numpy arrays stored row-major, float32 or float64 in native byte
order; ``Tensor()`` rejects any other dtype.  Differentiable kernels live in
:mod:`patchbank.ops`; while a :class:`GradTape` is active in the current
thread they append one record per executed operation, and ``backward``
replays those records in exact reverse execution order, accumulating
gradients per tensor identity.
"""

from __future__ import annotations

import threading

import numpy as np

DTYPES = {"f32": np.float32, "f64": np.float64}


def resolve_dtype(dtype) -> np.dtype:
    """Map a dtype spec ("f32"/"f64", numpy dtype, or None for f64) to a numpy dtype."""
    if isinstance(dtype, str) and dtype in DTYPES:
        return np.dtype(DTYPES[dtype])
    dt = np.dtype(dtype)
    if dt not in DTYPES.values():
        raise ValueError(f"unsupported dtype {dtype!r}; use 'f32' or 'f64'")
    return dt


class Tensor:
    """Dense N-dimensional real array, the value carrier for every kernel.

    ``data`` is a C-contiguous native float32 or float64 ndarray: f4/f8 input
    keeps its width unless ``dtype`` ("f32"/"f64") is given, and any other dtype
    raises ValueError.  All extents must be >= 1 (rank-0 scalars are allowed).
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)  # a Tensor's __array__ returns its data uncopied
        if arr.dtype != np.float32 and arr.dtype != np.float64:
            native = arr.dtype.newbyteorder("=")
            if native not in DTYPES.values():
                raise ValueError(f"tensor data must be float32 or float64, got dtype {arr.dtype}")
            arr = arr.astype(native)
        if dtype is not None:
            arr = arr.astype(resolve_dtype(dtype), copy=False)
        if arr.size == 0:
            raise ValueError(f"tensor extents must all be >= 1, got shape {arr.shape}")
        # ascontiguousarray would promote rank-0 scalars to rank 1.
        self.data = np.ascontiguousarray(arr) if arr.ndim else arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __array__(self, dtype=None, copy=None):
        """``data`` itself, unless ``copy`` is True or ``dtype`` differs.

        Follows the NumPy 2 protocol: ``copy=False`` raises ValueError
        when the dtype change needs a copy.
        """
        if dtype is not None and np.dtype(dtype) != self.data.dtype:
            if copy is False:
                raise ValueError(
                    f"converting a {self.data.dtype} Tensor to {np.dtype(dtype)} needs a copy"
                )
            return self.data.astype(dtype)
        return self.data.copy() if copy else self.data

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{grad})"


_ACTIVE = threading.local()


def active_tape():
    """The GradTape currently recording in this thread, or None."""
    return getattr(_ACTIVE, "tape", None)


class GradTape:
    """Ordered record of executed differentiable operations.

    Gradients are accumulated additively into a map keyed by tensor
    identity, so a tensor feeding several consumers receives the sum of
    the incoming gradients.  One tape serves one forward/backward cycle;
    build a fresh tape for the next step: ``backward`` releases each record
    once it has run, so an activation is freed after its last reader.
    """

    def __init__(self):
        self._records: list[tuple[tuple[Tensor, ...], Tensor, object] | None] = []
        # id -> (tensor, gradient): holding the tensor keeps its id unique.
        self._grads: dict[int, tuple[Tensor, np.ndarray]] = {}

    def __enter__(self) -> "GradTape":
        if active_tape() is not None:
            raise RuntimeError("a GradTape is already active in this thread")
        _ACTIVE.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _ACTIVE.tape = None
        return False

    def record(self, inputs: tuple[Tensor, ...], output: Tensor, backward) -> None:
        """Append one operation record.

        ``backward(g_out)`` must return a tuple aligned with ``inputs``
        holding one gradient array per input, or None where computing it
        can be skipped.  The tape keeps only the gradients of inputs that
        require grad, each a buffer it may keep but never mutates in place.
        """
        self._records.append((tuple(inputs), output, backward))

    def __len__(self) -> int:
        return len(self._records)

    def backward(self, output: Tensor, seed=None) -> None:
        """Propagate gradients from ``output`` back through the records.

        ``output`` must be the output of an operation recorded on this
        tape; anything else would leave every gradient None.  ``seed`` (all
        ones by default) is a float array of its shape, as ``Tensor`` requires.
        It runs once per tape, because it releases the records it runs.
        """
        if self._records and self._records[-1] is None:  # backward releases it first
            raise ValueError("this tape's backward already ran; record a fresh tape")
        if not any(out is output for _, out, _ in self._records):
            raise ValueError(
                f"backward from {output!r}, which is not the output of an operation "
                "recorded on this tape"
            )
        if seed is None:
            g0 = np.ones_like(output.data)
        else:
            g0 = Tensor(seed, dtype=output.dtype).data
            if g0.shape != output.data.shape:
                raise ValueError(
                    f"seed gradient shape {g0.shape} != output shape {output.data.shape}"
                )
            if not np.isfinite(g0).all():
                raise ValueError("seed gradient has NaN or inf values")
        self._grads[id(output)] = (output, g0)
        for i in reversed(range(len(self._records))):
            inputs, out, backward = self._records[i]
            self._records[i] = None
            # Records run in reverse order, so every consumer of ``out`` has
            # added to its gradient by now; free it once it is used.
            entry = self._grads.pop(id(out), None)
            if entry is None:
                continue
            in_grads = backward(entry[1])
            for tensor, g in zip(inputs, in_grads):
                if g is None or not tensor.requires_grad:
                    continue
                if g.shape != tensor.data.shape:
                    raise AssertionError(
                        f"gradient shape {g.shape} != tensor shape {tensor.data.shape}"
                    )
                cur = self._grads.get(id(tensor))
                # "cur + g" allocates; never mutate a stored buffer in place.
                self._grads[id(tensor)] = (tensor, g if cur is None else cur[1] + g)

    def grad(self, tensor: Tensor) -> Tensor | None:
        """Accumulated gradient of leaf ``tensor`` from the last backward, or None.

        A leaf is a tensor that no recorded op produced, such as a
        parameter or an input.  The gradient of an op's output is freed
        once its op has used it, so for such a tensor this returns None.
        """
        entry = self._grads.get(id(tensor))
        return None if entry is None else Tensor(entry[1])
