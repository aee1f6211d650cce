"""Simulator and exact-analysis toolkit for adaptive carrier-sense scheduling.

Nodes on a conflict graph transmit via carrier sensing with exponential
backoff; the feasible schedules are the graph's independent sets.  The
package simulates the continuous-time schedule dynamics exactly, computes the
product-form stationary law in exact mode, fits backoff vectors to target
service rates, runs the queue-driven and price-driven adaptation rules, and
certifies their guarantees (capacity membership, fixed-point fits, utility
gaps) against small-scale exact computations.
"""
__version__ = "0.1.0"
