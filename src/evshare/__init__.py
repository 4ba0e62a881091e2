"""Bi-objective integer programming toolkit for collaborative EV charging.

Exact Pareto frontiers via rectangle subdivision (plus two reduced-frontier
variants), cooperative bargaining over the result, and an end-to-end EV
charging pipeline: scenario generation, model build, frontier computation,
agreement selection, validated schedules and metric reports.
"""

__version__ = "0.1.0"
