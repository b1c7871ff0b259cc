"""Solver for decentralized discounted stochastic games whose players value
outcomes and probabilities through prospect-style distortion functions.

The package computes distorted discounted payoffs from per-player marginal
tables, exact best responses by backward induction, and certified Markov
epsilon-equilibria by grid or sampled search over simplex lattices; a
smart-grid prosumer application ships as a ready-made game builder and the
``ptgames`` command line drives everything from JSON configs.
"""
from . import game, marginals, criterion, best_response, search, smartgrid
from .game import *
from .marginals import *
from .criterion import *
from .best_response import *
from .search import *
from .smartgrid import *

__version__ = "0.1.0"

__all__ = [
    *game.__all__,
    *marginals.__all__,
    *criterion.__all__,
    *best_response.__all__,
    *search.__all__,
    *smartgrid.__all__,
]
