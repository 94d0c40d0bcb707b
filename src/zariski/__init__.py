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
``witness``).  The one array computation is the witness's forbidden set,
which is counted with numpy on an image table over the support of the
entry set C.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
