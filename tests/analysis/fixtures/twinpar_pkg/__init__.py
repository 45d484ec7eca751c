"""Adversarial twin-parity package (RPR6xx).

Every defect is born in a different module than the one the finding
lands in: the scalar classes (``cluster``, ``engine``) define the
members and signatures the batch modules drift from.
"""
