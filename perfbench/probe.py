"""Set-up probe: what every gmetric CLI call pays before any work.

Imports the package, loads one run config and resolves its space and map,
then exits.  The benchmark times this whole process from outside.

    PYTHONPATH=src python3 perfbench/probe.py <config.json>
"""
import sys

from gmetric import cli

cfg = cli.load_config(sys.argv[1])
if "space" in cfg:
    space = cli.resolve_space(cfg)
    if "map" in cfg:
        cli.resolve_map(cfg, space)
