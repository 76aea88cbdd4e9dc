"""Discrete-time quantum walks on a programmable beamsplitter mesh.

Simulates single-walker transport through a staggered light cone of SU(2)
cells under static and dynamic phase disorder: deterministic parallel
disorder ensembles, and transport metrics and fits.  The package binds no
names: the CLI is :mod:`meshwalk.cli`, and Python callers import from
:mod:`.lattice`, :mod:`.programs`, :mod:`.ensemble` and :mod:`.analysis`.
"""
