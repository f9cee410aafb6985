"""Deciding and constructing 1-factorizations of level-restricted subset families.

The family binom([n], L) of all subsets of {1..n} whose sizes lie in a level
set L is 1-factorable when it can be partitioned into factors, each factor a
partition of {1..n}.  This package decides factorability, constructs explicit
factorizations via an integral max-flow evolution, and produces exact Farkas
certificates for the infeasible cases.  Every name is imported from its
submodule, e.g. ``from hyperfactor.decide import decide``; this root binds none.
"""
