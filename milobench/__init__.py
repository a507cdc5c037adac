"""milobench: one benchmark for the MiLo serving simulator and compressor.

Run it as ``python3 -m milobench`` from the repository root (see README.md).
This package must import nothing at load time: ``__main__`` caps the BLAS
threads before numpy is first imported.
"""
