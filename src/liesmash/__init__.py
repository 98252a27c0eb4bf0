"""liesmash: iterated analytic smash-product decompositions, exactly verified.

The pipeline starts from a solvable complex Lie algebra given by exact
structure constants, computes its nilpotent and exponential radicals and the
iterated semidirect chain through an intermediate ideal, and realizes the
corresponding smash-product factorization on exact truncated Hopf models.
Weight descriptors, series norms and Cayley-graph word metrics provide the
sampled and exact checks for the analytic side of the construction.

The API is imported from the submodules.  liesmash.report runs the pipeline:
decompose (from a JSON file) and decompose_algebra (from a LieAlgebra), and
build_chain_model and check_chain_model for the Hopf model of a chain.
liesmash.cli.main is the command line, also run as python -m liesmash.
"""

__version__ = "0.1.0"
