"""The VXA architecture core beneath the :mod:`repro.api` facade.

Extension headers, decoder storage, the VM reuse policy, integrity checking
and the result types the facade shares.
"""
