"""Process-wide counters used to audit the offline/online split.

The benchmark timing contract is that no factorization or index selection
happens inside a timed online section, and that the online reduced-Jacobian
work is independent of the full problem dimension.  The counters below make
both properties checkable: heavyweight offline kernels bump their counter on
every call, and the sampling/product kernels tally the floating point
multiplies they actually perform.
"""

from contextlib import contextmanager

_COUNTERS = {
    "thin_svd_calls": 0,
    "leading_svd_calls": 0,
    "deim_select_calls": 0,
    "sample_flops": 0,
    "reduced_jacobian_flops": 0,
}


def bump(name, amount=1):
    _COUNTERS[name] += amount


def snapshot():
    return dict(_COUNTERS)


class OfflineCallInOnlineSection(RuntimeError):
    pass


@contextmanager
def online_section():
    """Fail loudly if an offline-only kernel runs inside the guarded block."""
    before = snapshot()
    yield
    for name in ("thin_svd_calls", "leading_svd_calls", "deim_select_calls"):
        if _COUNTERS[name] != before[name]:
            raise OfflineCallInOnlineSection(
                f"{name} changed inside an online section "
                f"({before[name]} -> {_COUNTERS[name]})"
            )
