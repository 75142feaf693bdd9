"""dataio._fast_floats reads a block of JSON numbers bit for bit as float() reads each token, or returns None.

It returns None for a block with a token it cannot prove: a k outside
[_TEN_MIN, _TEN_MAX] or a value near a rounding midpoint (an exact tie).
tests/test_number_text.py reads back everything it formats; this module adds
the tokens the writer never prints and the blocks the fast path must refuse.
"""

import json
import random
import warnings

import numpy as np
import pytest

from cauchyflow import Dataset, dataio, read_dataset, write_dataset
from helpers import exact_tie, in_proof, read_block, sine_patch


def assert_reads(tokens, fast=True):
    """The tokens joined by ", " read through the reader's block path as float() reads each, bit for bit:
    through _fast_floats if `fast`, else through raw_decode, _fast_floats giving None; the count read."""
    got, took_fast = read_block(", ".join(tokens))
    assert took_fast == fast
    want = np.array([float(token) for token in tokens])
    bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
    assert bad.size == 0, [(tokens[i], got[i], want[i]) for i in bad[:3]]
    return len(tokens)


def split(tokens):
    """(the tokens _fast_floats proves, the others): those with a k outside [_TEN_MIN, _TEN_MAX] or an exact tie."""
    proven = [in_proof(token) and not exact_tie(token) for token in tokens]
    return ([token for token, ok in zip(tokens, proven) if ok],
            [token for token, ok in zip(tokens, proven) if not ok])


def test_fromstring_leniencies_the_fast_path_relies_on():
    # np.fromstring(..., dtype=np.int64, sep=",") reads the digit runs; each
    # leniency below is one _fast_floats refuses before the call or catches after it
    def parse(text):
        return np.fromstring(text, dtype=np.int64, sep=",").tolist()

    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with pytest.raises((ValueError, DeprecationWarning)):  # numpy 2 raises, 1.24 warns
            parse("1, 2, x")
    assert parse("1, 2,") == [1, 2]  # a trailing separator
    assert parse("+5, 007") == [5, 7]  # a leading + and leading zeros
    assert parse(" 1 ,  2") == [1, 2]  # whitespace around a separator
    for literal in ("99999999999999999999", "-99999999999999999999"):
        assert abs(parse(literal)[0]) >= 2 ** 63 - 1  # an overflow saturates
    for text in ["1, 2, x", "1, 2,", "+5, 7", "5, 007", "1 , 2", "1,  2", "1,\t2", "99999999999999999999, 1",
                 "-99999999999999999999, 1", "1234567890123456789, 1"]:
        assert dataio._fast_floats(text) is None, text


@pytest.mark.parametrize("text", [
    "1,2", ", 1", "1, ", "1, , 2", "-, 1", "--1", "1-", "+1", "01", "-01", "00", "1.", ".5", "1.e5", "1e", "1e+",
    "1e5.0", "1.2.3", "1e1e1", "1e12345", "1ee5", "1E+-5", "0x10", "1_000", "NaN", "Infinity", "-Infinity",
    "true", '"1"', "[1]", "1]", "1\n", "1\r, 2", "¹", "١", "1e400", "-1e400", "1e99999",
])
def test_blocks_outside_the_grammar_or_the_float_range_give_none(text):
    assert dataio._fast_floats(f"0.5, {text}, 2.5") is None


def test_eighteen_digit_mantissas_at_every_exponent():
    rng = np.random.default_rng(4611)
    mantissas = rng.integers(10 ** 17, 10 ** 18, 200_000).tolist()
    ks = rng.integers(-340, 291, len(mantissas)).tolist()
    points = rng.integers(0, 19, len(mantissas)).tolist()
    tokens = []
    for n, k, at in zip(mantissas, ks, points):
        digits = str(n)
        tokens.append(f"{digits[:at] or '0'}{'.' + digits[at:] if at < 18 else ''}e{k + 18 - at}")
    # k below _TEN_MIN, about a tenth of the tokens, sends a block to raw_decode, and so does an
    # exact tie among the integers
    proven, others = split(tokens)
    assert sum(assert_reads(proven[i:i + 4096]) for i in range(0, len(proven), 4096)) > 179_000
    assert sum(assert_reads(others[i:i + 4096], fast=False) for i in range(0, len(others), 4096)) > 20_000


def test_exact_binary_ties_and_their_neighbours():
    # a midpoint between two doubles rounds half to even; here each is a
    # decimal of at most 18 digits, so the product sees it, and a block that
    # holds one goes to raw_decode; its neighbours read through the fast path
    ties, neighbours = [], []
    rng = np.random.default_rng(4612)
    for j in range(51, 60):  # binades [2^j, 2^(j+1)), all below 10^18
        for m in rng.integers(0, 2 ** 52, 400).tolist():
            # four times 2^j + (m + 1/2) ulp, ulp = 2^(j - 52): an integer from j = 51
            whole, quarter = divmod(2 ** (j + 2) + m * 2 ** (j - 50) + 2 ** (j - 51), 4)
            text = f"{whole}{['', '.25', '.5', '.75'][quarter]}"
            if len(text.replace(".", "")) <= 18:
                last = int(text[-1])
                ties += [text, "-" + text]
                neighbours.append(text[:-1] + str(last - 1 if last else 1))
    ties += ["9007199254740993", "4503599627370496.5", "18014398509481986", "9.007199254740993e15",
             "90071992547409930e-1", "-9007199254740993", "9007199254740995", "2251799813685248.25"]
    assert assert_reads(ties, fast=False) > 6000
    assert assert_reads(neighbours) > 3000
    for tie in ties:  # each tie alone sends a block of proven values to raw_decode
        assert dataio._fast_floats(", ".join(neighbours[:20] + [tie])) is None, tie


def test_values_next_to_the_exponent_limits_of_the_proof():
    rng = np.random.default_rng(4613)
    tokens = []
    for k in (dataio._TEN_MIN - 2, dataio._TEN_MIN - 1, dataio._TEN_MIN, dataio._TEN_MIN + 1,
              dataio._TEN_MAX - 1, dataio._TEN_MAX, dataio._TEN_MAX + 1, dataio._TEN_MAX + 2):
        top = 10 ** 18 if k <= dataio._TEN_MAX else 10 ** (308 - k)  # every value finite
        for n in rng.integers(1, top, 2000, dtype=np.uint64).tolist():
            tokens += [f"{n}e{k}", f"-{n}e{k}", f"{n // 10}.{n % 10}e{k + 1}"]
    tokens += ["1e-275", "1e-276", "999999999999999999e290", "1e308", "17976931348623157e292"]
    inside, outside = split(tokens)
    assert assert_reads(inside) == 24_002
    assert assert_reads(outside, fast=False) == 24_003
    for token in outside[::500]:  # one k out of range sends a block of proven values to raw_decode
        assert dataio._fast_floats(", ".join(inside[:20] + [token])) is None, token


def test_subnormals_the_largest_doubles_zeros_integers_and_exponent_forms():
    tiny = np.nextafter(0.0, 1.0)
    rng = np.random.default_rng(4614)
    values = [tiny, 3 * tiny, np.finfo(float).tiny, np.nextafter(np.finfo(float).tiny, 0), np.finfo(float).max,
              np.nextafter(np.finfo(float).max, 0), *(rng.uniform(0, 1, 1000) * np.finfo(float).tiny),
              *(rng.uniform(0.5, 1, 1000) * np.finfo(float).max)]
    tokens = ["%.17g" % v for v in values] + ["-%.17g" % v for v in values]
    tokens += ["-0", "0", "-0.0", "0.0", "0e0", "-0e-0", "0E+00", "1", "-1", "10", "1E5", "1e+5", "1e-0", "1E-0",
               "2.5E+3", "7e0007", "123456789012345678", "-123456789012345678", "4.9406564584124654e-324",
               "2.2250738585072009e-308", "1.7976931348623157e308", "0.000000000000000000000000000001",
               "1e-400", "-1e-400", "0e400"]
    tokens += [str(v) for v in rng.integers(-10 ** 17, 10 ** 17, 5000).tolist()]
    # the subnormals, the largest doubles, 1e-400 and 0e400 have a k out of the proof's range,
    # and some integers beyond 2^53 are exact ties
    proven, others = split(tokens)
    assert assert_reads(proven) > 4000
    assert assert_reads(others, fast=False) > 4000
    back = dataio._fast_floats(", ".join(["-0", "0", "-0e5", "-0.0"] * 100))
    assert np.signbit(back).tolist() == [True, False, True, True] * 100


def _reader_floats(text):
    """What the reader makes of a block without the fast path: its floats, or None if it refuses."""
    try:
        values = json.loads("[" + text + "]", parse_int=dataio._parse_int, parse_constant=dataio._reject_constant)
        return dataio._floats(values, "x")
    except ValueError:
        return None


def test_edited_blocks_read_as_json_loads_or_give_none():
    # one or two random byte edits of a written block: the fast path agrees
    # with json.loads bit for bit, or hands the block back
    rng = np.random.default_rng(4615)
    values = rng.standard_normal(600) * 10.0 ** rng.integers(-12, 20, 600)
    values[::5] = np.rint(values[::5])
    text = dataio._fmt_g17(values)
    alphabet = "0123456789019,  --+..eEx\n\té]"
    pick = random.Random(4616)
    accepted = 0
    for _ in range(3000):
        edited = text
        for _ in range(pick.choice((1, 2))):
            at = pick.randrange(len(edited))
            edited = pick.choice([
                edited[:at] + pick.choice(alphabet) + edited[at + 1:],
                edited[:at] + pick.choice(alphabet) + edited[at:],
                edited[:at] + edited[at + 1:],
            ])
        got = dataio._fast_floats(edited)
        if got is not None:
            want = _reader_floats(edited)
            assert want is not None and got.tobytes() == want.tobytes(), edited
            accepted += 1
    assert accepted > 600  # many edits leave a valid block: a changed digit, a dropped sign


@pytest.mark.parametrize("n, fast", [(64, False), (60, False), (4096, True)])
def test_long_arrays_take_the_fast_path_and_short_ones_raw_decode(tmp_path, monkeypatch, n, fast):
    # cli-small's arrays of 60 and 64 values stay on raw_decode; every array
    # of a 4096-node file, the all-integer mu = 1 included, takes the fast path
    calls = []
    fast_floats = dataio._fast_floats
    monkeypatch.setattr(dataio, "_fast_floats", lambda text: calls.append(fast_floats(text)) or calls[-1])
    rng = np.random.default_rng(n)
    arrays = {name: rng.standard_normal(n) for name in ("u1", "u2", "dnu1", "dnu2", "p", "t1", "t2")}
    path = tmp_path / "d.json"
    write_dataset(path, Dataset(patch=sine_patch(n), data_kind="both", **arrays))
    back = read_dataset(path)
    assert all(getattr(back, name).tobytes() == arr.tobytes() for name, arr in arrays.items())
    assert back.patch.mu.tolist() == [1.0] * n
    assert (len(calls) >= 11 and all(c is not None for c in calls)) if fast else calls == []
