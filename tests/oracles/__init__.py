"""Frozen reference implementations the equivalence tests compare against."""
