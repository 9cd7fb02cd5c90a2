"""The inputs each workload loads and validates before its first command,
and the code that loads them, as both run.py and setup_probe.py use it.

This module imports nothing beyond importlib, os and sys, so that
setup_probe.py can time the whole import of hopfcyclic, the stdlib modules
it pulls in included.  Relative input paths are read from the repository
root.
"""

import importlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
CYCLOTOMIC_INPUT = "bench/work/qz4-cyclotomic.json"
MODULES = ["cli", "fields", "hopf", "enveloping", "cyclic_ops", "cohomology",
           "linalg", "actions", "reports", "presentations"]

# what each workload loads and validates before its first command (setup_s):
# ("hopf", builtin name or file, character) | ("lie"|"gamma"|"pair", file)
INPUTS = {
    "sweedler-cohomology": [("hopf", "sweedler", "delta")],
    "cyclotomic-lambda": [("hopf", CYCLOTOMIC_INPUT, "delta")],
    "relation-checks": [("lie", "data/axb-lie.json"),
                        ("hopf", "sweedler", "delta"),
                        ("hopf", "qz2", "counit"),
                        ("gamma", "data/gamma-translation.json"),
                        ("pair", "data/pair-qz2.json")],
}


def import_package():
    """Import every hopfcyclic module from the checkout's src/."""
    sys.path.insert(0, SRC)
    return {name: importlib.import_module(f"hopfcyclic.{name}")
            for name in MODULES}


def load_inputs(hc, workload):
    """Load and validate the workload's inputs the way its commands do."""
    hopf, presentations = hc["hopf"], hc["presentations"]
    for kind, source, *rest in INPUTS[workload]:
        if kind == "hopf":
            H = (hopf.BUILTIN_BUILDERS[source]()
                 if source in hopf.BUILTIN_BUILDERS
                 else presentations.load_hopf(source))
            H.counit_character() if rest[0] == "counit" else H.character(rest[0])
        elif kind == "lie":
            presentations.load_lie(source).modular_character()
        elif kind == "gamma":
            presentations.load_gamma_input(source)
        else:
            presentations.load_pairing_input(source)
