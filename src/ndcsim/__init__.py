"""Desk-scale nonlocal dispersion cancellation experiment toolkit."""

__version__ = "0.1.0"
