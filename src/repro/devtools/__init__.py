"""Repo-specific correctness tooling: static analysis + runtime lock tracing.

The serving stack is genuinely concurrent — broker pump threads,
condition-variable channels, retrying connections, daemon accept and
handshake threads — which is exactly the code where Python's dynamism
hides deadlocks, thread leaks, and silently-swallowed errors until they
bite under load.  This package keeps that debt from accumulating:

- :mod:`repro.devtools.core` — what every static pass shares: the
  ``Finding`` record, the parsed-once ``SourceFile``, the file walk, the
  ``# lint: disable=`` pragma, the one baseline file, the report
  formats and the ``repro lint`` driver;
- :mod:`repro.devtools.lint` — the repo-specific ``DT1xx``–``DT6xx``
  AST rules, and ``repro lint`` / ``make lint``: the driver over all
  four passes (a new finding fails CI);
- :mod:`repro.devtools.lockset` — an interprocedural static lockset
  race analyzer (Eraser/RacerD style, rules ``DT701``–``DT704``);
- :mod:`repro.devtools.resource_flow` — an exception-edge-aware
  resource-lifecycle analyzer (rules ``DT801``–``DT804``);
- :mod:`repro.devtools.protoflow` — wire-schema and endpoint-automata
  conformance against ``repro.daemon.protocol_spec`` (rules
  ``DT901``–``DT904``);
- :mod:`repro.devtools.locktrace` — instrumented lock wrappers that
  record the lock-acquisition graph at runtime, detect lock-order
  inversions and locks held across blocking channel operations, plus
  thread-leak guards the integration suite runs under;
- :mod:`repro.devtools.guards` / :mod:`repro.devtools.waiting` — the
  two helpers runtime code imports (``@guarded_by``, ``wait_until``).

Nothing is imported here: the runtime packages import ``guards`` and
``waiting`` from this package and must not pay for the analyzers.

See ``docs/devtools.md`` for the rule catalogue and report format.
"""
