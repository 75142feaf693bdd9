import gc
import os
import sys


def console() -> None:
    gc.disable()  # before numpy and the package load, which run about 34 collections otherwise
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read as numpy loads; no command uses BLAS
    from . import cli
    try:
        code = cli.main()
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early: devnull takes the exit's flush, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    # every output file is closed; frozen, the exit's full collections skip what numpy and the
    # package left (about 20 ms). Streams still flush and atexit handlers run; only cyclic garbage
    # goes unfinalized, for the OS to reclaim. cli.main never freezes: it also runs in-process
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    console()
