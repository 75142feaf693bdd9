import os


def console() -> None:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # read as numpy loads; no command uses BLAS
    from . import cli
    cli.console()


if __name__ == "__main__":
    console()
