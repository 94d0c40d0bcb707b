"""Executable constructions for Zariski-type topologies on groups.

Submodules:

* ``perm``     -- finitely supported permutations of N and ``extend``;
* ``ragged``   -- ragged matrix pairs of positive words, row evaluation,
  basic open sets, normal forms;
* ``words``    -- group words, their evaluation, and the rotate-and-split
  reduction of a group inequation to a one-row matrix pair;
* ``witness``  -- hyperconnectedness witnesses via partial-bijection extension;
* ``sepgroup`` -- the countable abelian group separating bounded Zariski
  topologies, with exact normal-form arithmetic and solvers;
* ``symtop``   -- constructive symmetric-group lemmas (stabilizers,
  maximal-subsemigroup decomposition);
* ``finite``   -- exhaustive oracles on small finite groups;
* ``cli``      -- seeded, reproducible experiment runner.

Permutations are dicts of moved points, and the few loops that work on
those dicts directly live beside their callers (``perm``, ``ragged`` and
``witness``).  Only ``finite`` uses numpy, over a group's multiplication
table for its families and its sweep of the word reduction, and imports
it on the first such call: ``witness``, ``normalize``, ``intersect``,
``separate`` and ``symcheck`` never load it, and a ``witness`` run on a
small pair takes about 0.1 s from start to exit.  The ``finite``
docstring explains how its families reduce every word to a*t*b.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
