"""Reference implementations kept only to prove the fast paths exact.

Each oracle restates one semantics the way it was first written --
objects, one instruction at a time, live state -- so the equivalence
tests can compare the optimised implementation in ``src/`` against it.
Nothing in ``src/`` imports from here.
"""
