"""Functional fault models, fault-primitive engine and fault simulator.

Implements the classical memory fault taxonomy (stuck-at, transition,
coupling, address-decoder, read-disturb families, data retention), the
``<S/F/R>`` fault-primitive notation including dynamic (multi-operation)
faults, a functional fault simulator driven by the march sequencer, and
coverage analysis over enumerated fault-class universes.
"""
