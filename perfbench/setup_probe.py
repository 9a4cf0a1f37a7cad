"""Set-up probe: import hfstab, read flags and config, build the model.

Prints ``ready`` once the model exists; the benchmark times a fresh
interpreter from start to that line.

    PYTHONPATH=src python3 perfbench/setup_probe.py analyze --model water-waves
"""

import sys

from hfstab import cli, config

args = cli.build_parser().parse_args(sys.argv[1:])
cfg = config.apply_flags(config.load_config(args.config), args)
config.build_model(cfg)
sys.stdout.write("ready\n")
sys.stdout.flush()
