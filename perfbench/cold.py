"""One cold CLI job: import ``stockflow.cli`` and run one job's commands.

Usage: ``python3 cold.py SRC_DIR CMD... [:: CMD...]``.  Prints the CPU and
the wall seconds from before the import to after the last command, then the
exit codes.  Only ``sys`` and ``time`` are imported before the clocks start,
so every module the CLI needs is paid for inside the measurement.
"""
import sys
import time

cpu, wall = time.process_time(), time.perf_counter()
src = sys.argv[1]
sys.path.insert(0, src)
import stockflow.cli  # noqa: E402

codes = []
command: list[str] = []
for word in sys.argv[2:] + ["::"]:
    if word != "::":
        command.append(word)
        continue
    codes.append(stockflow.cli.run(command))
    command = []
cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
if not stockflow.cli.__file__.startswith(src):
    sys.exit(f"stockflow was imported from {stockflow.cli.__file__}, not {src}")
print(repr(cpu), repr(wall), *codes)
