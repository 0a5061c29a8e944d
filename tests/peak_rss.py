"""Run a command and fail when its peak resident set size reaches a bound.

    python tests/peak_rss.py LIMIT_MB CMD [ARG...]

CMD must exit 0.  Its peak is the largest ru_maxrss (Linux, in KB) among
the processes this one waited for and those they waited for in turn, so a
CMD run under `timeout` is measured too.  Not a test module: pytest does
not collect it.
"""
import resource
import subprocess
import sys


def main(argv):
    limit, *command = argv
    subprocess.run(command, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if peak >= float(limit):
        sys.exit(f"{' '.join(command)} peaked at {peak:.1f} MB, not under {limit} MB")


if __name__ == "__main__":
    main(sys.argv[1:])
