"""Exact computer algebra for Artinian local Q-algebras and Milnor symbols."""
