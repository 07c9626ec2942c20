"""Build the problem of every config named on the command line.

Run by ``run.py`` in a fresh interpreter, with ``src`` on PYTHONPATH, and
timed from outside: import of ``poisson_grad.cli``, then ``load_config`` and
the ``build_*`` steps, as ``poisson-grad solve`` does before it descends.
The build runs under a ``refspeed.Speedometer``; the last line of output is
its handler time and mean kernel time, as JSON, for scaling the outside time
to reference speed.
"""

import json
import sys

from refspeed import Speedometer


def main(paths: list[str]) -> None:
    with Speedometer() as speed:
        from poisson_grad import cli

        for path in paths:
            cfg = cli.load_config(path)
            spec = cli.build_grid(cfg)
            pot = cli.build_potential(cfg, spec)
            cli.build_sampler(cfg, spec)
            cli.build_solver_config(cfg, None)
            cli.build_init(cfg, spec, pot, None)
    print(json.dumps({"handler_s": speed.handler_s, "kernel_s": speed.kernel_s}))


if __name__ == "__main__":
    main(sys.argv[1:])
