"""Executable constructions for Zariski-type topologies on groups.

Submodules:

* ``perm``     -- finitely supported permutations of N and ``extend``;
* ``words``    -- group/semigroup words, evaluation, degree-3 reduction;
* ``ragged``   -- ragged matrix pairs, basic open sets, normal forms;
* ``witness``  -- hyperconnectedness witnesses via partial-bijection extension;
* ``sepgroup`` -- the countable abelian group separating bounded Zariski
  topologies, with exact normal-form arithmetic and solvers;
* ``symtop``   -- constructive symmetric-group lemmas (stabilizers,
  maximal-subsemigroup decomposition);
* ``finite``   -- exhaustive oracles on small finite groups;
* ``cli``      -- seeded, reproducible experiment runner.

Permutations are dicts of moved points, and the few loops that work on
those dicts directly live beside their callers (``perm``, ``ragged`` and
``witness``).  Only ``finite`` uses numpy, for its families over a group's
multiplication table.  It builds the value vectors of the words with
leading coefficient 1 only, from the identity row up, and moves every
constant left factor a to the other side: a*w differs from f, or from 1,
where w differs from a^-1*f, or from a^-1.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
