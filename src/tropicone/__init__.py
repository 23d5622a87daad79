"""Monomial graphs over reduced words and their tropicalized string cones."""

from .rootsystem import CartanData, CartanType, cartan_matrix
from .wordtools import ReducedWord, enumerate_w0_words, parse_word, validate_word
from .monomial import a_monomial, lowest_term, render
from .decograph import DecoGraph, SupportStatus, build_graph, supported, verify_graph
from .stringcone import ConeSystem, string_cone, weight_census

__all__ = [
    "CartanData",
    "CartanType",
    "cartan_matrix",
    "ReducedWord",
    "enumerate_w0_words",
    "parse_word",
    "validate_word",
    "a_monomial",
    "lowest_term",
    "render",
    "DecoGraph",
    "SupportStatus",
    "build_graph",
    "supported",
    "verify_graph",
    "ConeSystem",
    "string_cone",
    "weight_census",
]

__version__ = "0.1.0"
