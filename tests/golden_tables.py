"""Hard-coded golden fixtures for the two time-reversal state tables.

These are transcriptions kept deliberately separate from the derivation
logic so that transcription errors and logic drift are caught
independently.  Cell order: growing r=0, growing r=1, decaying r=0,
decaying r=1.  Half-domains are normalized to closed halves (t = 0 belongs
to both).

The benchmark reads this file without running it: ``load_golden`` in
``perfbench/checks.py`` evaluates every top-level assignment with
``ast.literal_eval`` and files the value under its ``"arrow"``.  So each
assignment here is one table literal with an ``"arrow"`` key, and nothing
else is assigned; ``tests/test_transform.py`` checks this.
"""

PREPARATION_REGISTRATION_TABLE = {
    "arrow": "preparation_registration",
    "cells": [
        {"row": "growing", "regime": 0, "bracket": "<phi,r=0|Z_R*,r=0>",
         "domain": "t<=0", "orientation": "-inf->0", "branch": "4a"},
        {"row": "growing", "regime": 1, "bracket": "<psi,r=1|Z_R,r=1>",
         "domain": "t>=0", "orientation": "0<-inf", "branch": "10"},
        {"row": "decaying", "regime": 0, "bracket": "<psi,r=0|Z_R,r=0>",
         "domain": "t>=0", "orientation": "0->inf", "branch": "4b"},
        {"row": "decaying", "regime": 1, "bracket": "<phi,r=1|Z_R*,r=1>",
         "domain": "t<=0", "orientation": "-inf<-0", "branch": "11"},
    ],
}

EXCITATION_DEEXCITATION_TABLE = {
    "arrow": "excitation_deexcitation",
    "cells": [
        {"row": "growing", "regime": 0, "bracket": "<phi_+,r=0|Z_R*,r=0>",
         "domain": "t<=0", "orientation": "-inf->0", "branch": "12"},
        {"row": "growing", "regime": 1, "bracket": "<phi_-,r=1|Z_R,r=1>",
         "domain": "t>=0", "orientation": "0<-inf", "branch": "13"},
        {"row": "decaying", "regime": 0, "bracket": "<phi_-,r=0|Z_R,r=0>",
         "domain": "t>=0", "orientation": "0->inf", "branch": "5b"},
        {"row": "decaying", "regime": 1, "bracket": "<phi_+,r=1|Z_R*,r=1>",
         "domain": "t<=0", "orientation": "-inf<-0", "branch": "5a"},
    ],
}
