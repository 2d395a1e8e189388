"""The ``@guarded_by`` caller-contract marker, importable at no cost.

The serving layer decorates its lock-held helpers with
:func:`guarded_by`; the DT7xx analyzer (:mod:`repro.devtools.lockset`)
reads the decorator off the AST.  The marker lives here, in a module
that imports nothing, so that runtime processes — every broker, every
forked encode worker — do not load the analyzers to get a no-op.
"""

__all__ = ["guarded_by"]


def guarded_by(*locks: str):
    """Declare that callers invoke this method only while holding the
    named lock attribute(s) (e.g. ``@guarded_by("_lock")``).

    At runtime this is a no-op marker (the names are recorded on
    ``__guarded_by__``); the static analyzer reads the decorator and
    checks the body with those locks in the held set — and checks every
    internal call site actually holds them.
    """
    if not locks or not all(isinstance(name, str) for name in locks):
        raise TypeError("guarded_by takes one or more lock attribute names")

    def mark(fn):
        fn.__guarded_by__ = tuple(locks)
        return fn

    return mark
