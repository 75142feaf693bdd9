from .cli import console

if __name__ == "__main__":
    console()
