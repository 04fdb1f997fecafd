"""Layered benchmark harness for cregcert.

The harness lives outside the program: it drives the command line in
child processes, checks every output against gates and an independent
oracle, and (in traced runs) times calls into each module's public
functions by wrapping them at every site that imported them.
"""
