"""Haptic localization for legged robots: a particle filter that fuses
foot-contact geometry and tactile terrain classes against prior maps,
plus the synthetic gait simulator and evaluation harness around it."""

__version__ = "0.1.0"
