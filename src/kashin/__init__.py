"""Tight frames, uncertainty-principle calibration, conversion to
uniformly spread (Kashin) representations, and robust vector
quantization experiments.

Every public name lives in its module and is imported from there, as in
``from kashin import conversion, frames``; importing ``kashin`` alone
loads none of them."""
