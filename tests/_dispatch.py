"""numpy's CPU dispatch family, for the goldens whose bits depend on it.

numpy picks a SIMD loop per CPU at import. ``power``, ``exp``, ``log`` and
``log10`` round differently in the AVX-512 (``X86_V4``) and AVX2
(``X86_V3``) families, so a digest of their outputs is recorded per family.
With ``NPY_DISABLE_CPU_FEATURES`` set to ``AVX2_ONLY`` in its environment,
a process on an AVX-512 host runs the ``X86_V3`` family.
"""

import pytest
from numpy._core._multiarray_umath import __cpu_features__

FAMILIES = ("X86_V4", "X86_V3")

AVX2_ONLY = "AVX512_SPR AVX512_ICL X86_V4"


def dispatch_family() -> str:
    """The widest family in ``FAMILIES`` this process dispatches to."""
    return next((f for f in FAMILIES if __cpu_features__.get(f)), "none of " + "/".join(FAMILIES))


def golden(digests: dict, what: str) -> str:
    """The entry of ``digests`` for this process's family; fails the test,
    naming the family, when none is recorded."""
    family = dispatch_family()
    if family not in digests:
        pytest.fail(f"no {what} recorded for the CPU dispatch family {family}")
    return digests[family]
