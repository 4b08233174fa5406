"""Goal-oriented semantic evidence selection.

The package is organised around one pipeline:

* :mod:`semcom.logic` -- Q-sentences and hypotheses over T predicate slots.
* :mod:`semcom.oracle` -- exact inductive probabilities over constituents,
  by brute-force enumeration at tiny T and by closed forms above that.
* :mod:`semcom.selection` -- budgeted evidence selection via the symbolic
  lexicographic key, plus the uniform-random baseline.
* :mod:`semcom.world` -- a deterministic grid-world traffic simulator that
  grounds (ego, entity) observations into Q-sentences over its one fixed
  language of ten predicates.
* :mod:`semcom.comms` -- the three communication architectures.
* :mod:`semcom.metrics` -- H-DSR / A-DSR episode metrics and sweep tables.
* :mod:`semcom.cli` -- the ``semcom`` command line entry point.
"""

__version__ = "0.1.0"
