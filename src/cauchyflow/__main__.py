import gc
import os


def console() -> None:
    gc.disable()  # before numpy and the package load, which run about 34 collections otherwise
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read as numpy loads; no command uses BLAS
    from . import cli
    cli.console()


if __name__ == "__main__":
    console()
