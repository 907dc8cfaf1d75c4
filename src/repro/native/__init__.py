"""The stepping kernel's array code, compiled from ``kernel.c`` at first use.

:func:`library` compiles ``kernel.c`` once per machine with the C compiler on
``PATH`` (``cc``, else ``gcc``) into a cache next to the source, loads it
through :mod:`ctypes` and declares its routines.  The library's file name
carries a hash of the source and of the flags, so an edited source builds
anew and a build never loads a stale one.  A build is written to a
temporary name and moved into place with :func:`os.replace`, so pool
workers and concurrent processes never load a partial file.

The flags (:data:`FLAGS`) keep every double operation the IEEE operation
NumPy performs: ``-ffp-contract=off`` forbids fused multiply-adds, and no
``-ffast-math``, ``-Ofast`` or ``-march=native`` may reassociate or
contract.

:class:`Table` is the one way Python hands arrays to the C: an *address
table* of int64 slots, laid out as the C declares it (the ``nk_*_slots``
strings of ``kernel.c``), checked slot by slot when built.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import struct
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["FLAGS", "NativeBuildError", "SOURCE", "Table", "address", "build", "library"]

#: The kernel's C source, shipped as package data.
SOURCE = Path(__file__).with_name("kernel.c")

#: Compiler flags of every build.
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

#: Where builds are cached (ignored by git).
CACHE_DIR = Path(__file__).with_name("_build")

#: The C compilers looked for on ``PATH``, in order.
COMPILERS = ("cc", "gcc")


class NativeBuildError(RuntimeError):
    """The stepping kernel could not be compiled."""


def find_compiler() -> str:
    """The first of :data:`COMPILERS` on ``PATH``."""
    for name in COMPILERS:
        path = shutil.which(name)
        if path is not None:
            return path
    raise NativeBuildError(
        "the stepping kernel needs a C compiler on PATH; looked for "
        + " and ".join(repr(name) for name in COMPILERS)
    )


def library_path(cache_dir: Path) -> Path:
    """The cached library of the current source and flags."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(" ".join(FLAGS).encode())
    return Path(cache_dir) / f"kernel-{digest.hexdigest()[:16]}.so"


def build(cache_dir: Path = CACHE_DIR) -> Path:
    """Compile ``kernel.c`` into ``cache_dir`` unless it is there already;
    returns the library's path."""
    path = library_path(cache_dir)
    if path.exists():
        return path
    compiler = find_compiler()
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, partial = tempfile.mkstemp(prefix=path.stem + ".", suffix=".partial",
                                   dir=path.parent)
    os.close(fd)
    try:
        done = subprocess.run([compiler, *FLAGS, "-o", partial, str(SOURCE)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise NativeBuildError(
                f"compiling {SOURCE.name} with {compiler} failed:\n{done.stderr}"
            )
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return path


_P = ctypes.c_void_p
_I = ctypes.c_int64
#: Argument and result types of every exported routine.
_SIGNATURES = {
    "nk_row_sums": ([_P, _I, _I, _P], None),
    "nk_bincount": ([_P, _P, _I, _P, _I], None),
    "nk_maximum": ([_P, _P, _I, _P], None),
    "nk_minimum": ([_P, _P, _I, _P], None),
    "nk_admit": ([_P] * 7, None),
    "nk_drain": ([_P, _P], None),
    "nk_note_step": ([_P, _P, ctypes.c_double], None),
    "nk_law": ([_P] * 5, None),
    "nk_commit": ([_P] * 5, None),
    "nk_record_step": ([_P] * 7, None),
    "nk_window_update": ([_P] * 8, _I),
    "nk_window_hazard": ([_P], _I),
    "nk_workload_mix": ([_P], None),
    "nk_drain_phase": ([_P], None),
    "nk_offer": ([_P], _I),
    "nk_gate": ([_P], _I),
    "nk_gate_collapse": ([_P], None),
    "nk_count_timeouts": ([_P], None),
    "nk_collapse": ([_P] * 4, None),
    "nk_admission": ([_P], None),
    "nk_window_dynamics": ([_P], _I),
    "nk_accounting": ([_P], None),
    "nk_completion": ([_P, _P], _I),
}

_LIBRARY: Optional[ctypes.CDLL] = None


def load(cache_dir: Path = CACHE_DIR) -> ctypes.CDLL:
    """Build (if needed) and load the library in ``cache_dir``, with its
    routines declared."""
    lib = ctypes.CDLL(str(build(cache_dir)))
    for name, (argtypes, restype) in _SIGNATURES.items():
        routine = getattr(lib, name)
        routine.argtypes = argtypes
        routine.restype = restype
    return lib


def library() -> ctypes.CDLL:
    """The process's kernel library, loaded on first use."""
    global _LIBRARY
    if _LIBRARY is None:
        _LIBRARY = load()
    return _LIBRARY


# ---------------------------------------------------------------------- #
# Address tables
# ---------------------------------------------------------------------- #

#: Array slot types of the C declarations.
_DTYPES = {"F": np.dtype(np.float64), "I": np.dtype(np.int64),
           "B": np.dtype(np.bool_), "C": np.dtype(np.int8)}

_LAYOUTS: Dict[str, List[Tuple[str, str, str]]] = {}


def _layout(kind: str) -> List[Tuple[str, str, str]]:
    """``(type, name, length)`` of each slot of a ``kind`` table."""
    layout = _LAYOUTS.get(kind)
    if layout is None:
        spec = ctypes.c_char.in_dll(library(), f"nk_{kind}_slots")
        text = ctypes.string_at(ctypes.addressof(spec)).decode()
        layout = _LAYOUTS[kind] = [tuple(slot.split(":")) for slot in text.split()]
    return layout


class Table:
    """An address table of a ``kind`` that ``kernel.c`` declares.

    ``values`` names every slot: an array (checked for its slot's dtype,
    C-contiguity and length, ``lengths[<its lane kind>]``), an int, a float
    or another :class:`Table`.  The table keeps its arrays alive; they must
    not be replaced while a routine may be handed the table (the kernel
    builds its tables once per generation, whose arrays keep their
    addresses).  :attr:`address` is what a routine takes.
    """

    __slots__ = ("slots", "address", "_keep")

    def __init__(self, kind: str, lengths: Dict[str, int], **values) -> None:
        layout = _layout(kind)
        names = {name for _, name, _ in layout}
        if set(values) != names:
            raise ValueError(
                f"{kind} table: missing {sorted(names - set(values))}, "
                f"unknown {sorted(set(values) - names)}"
            )
        self.slots = np.zeros(len(layout), dtype=np.int64)
        self._keep = []
        for k, (code, name, size) in enumerate(layout):
            value = values[name]
            if code == "i":
                self.slots[k] = int(value)
            elif code == "f":
                self.slots[k] = struct.unpack("<q", struct.pack("<d", float(value)))[0]
            elif code == "T":
                if not isinstance(value, Table):
                    raise TypeError(f"{kind} table: slot {name!r} takes a table")
                self.slots[k] = value.address
                self._keep.append(value)
            else:
                if not (isinstance(value, np.ndarray) and value.dtype == _DTYPES[code]
                        and value.flags.c_contiguous and value.ndim == 1
                        and value.shape[0] == lengths[size]):
                    raise TypeError(
                        f"{kind} table: slot {name!r} needs a contiguous "
                        f"{_DTYPES[code]} array of {lengths[size]} {size} lanes"
                    )
                self.slots[k] = value.ctypes.data
                self._keep.append(value)
        self.address = self.slots.ctypes.data


def address(array: Optional[np.ndarray]) -> Optional[int]:
    """The data address of a contiguous array (``None`` stays ``None``)."""
    return None if array is None else array.ctypes.data
