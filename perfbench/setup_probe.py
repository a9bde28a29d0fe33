"""Set-up only: what a sweep invocation does before its first trial.

Usage: ``python3 perfbench/setup_probe.py GRID_JSON WORKERS INDEX...``

Imports the CLI, builds every listed grid point of the
:class:`~repro.service.grid.SweepGrid` (topology, task, executor) and
creates the runner the CLI would, then exits without running a trial.
The benchmark times this process from launch to exit as ``setup_s``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)


def main(argv: list[str]) -> int:
    import repro.cli  # noqa: F401  (the import cost every invocation pays)
    from repro.parallel import make_runner
    from repro.service.grid import SweepGrid

    grid = SweepGrid.from_json(argv[0])
    for index in argv[2:]:
        grid.build_point(grid.ns[int(index)])
    make_runner(int(argv[1]), backend="auto").close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
