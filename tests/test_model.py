import contextlib
import math
import os
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lindbladff import InvariantError, ValidationError, model

from conftest import PAULI_X, PAULI_Z, dilate, random_hermitian, random_state
from oracles import kron_pauli_sum

DATA = os.path.join(os.path.dirname(__file__), "data")


@st.composite
def pauli_sums(draw):
    """1-8-qubit sums over every letter, coefficients of magnitude 1e-4 to 1e4,
    with repeated terms and exactly cancelling pairs mixed in."""
    width = draw(st.integers(1, 8))
    strings = st.text(alphabet="IXYZ", min_size=width, max_size=width)
    coeffs = st.builds(lambda sign, mag: sign * mag, st.sampled_from((-1.0, 1.0)),
                       st.floats(1e-4, 1e4))
    terms = draw(st.lists(st.tuples(coeffs, strings), min_size=1, max_size=8))
    for coeff, string in draw(st.lists(st.sampled_from(terms), max_size=4)):
        terms.insert(draw(st.integers(0, len(terms))), draw(st.sampled_from(
            [(coeff, string), (-coeff, string)])))
    return terms


class TestPauliSum:
    def test_single_z(self):
        assert np.allclose(model.parse_pauli_sum("1.0 Z"), np.diag([1.0, -1.0]))

    def test_two_terms(self):
        got = model.parse_pauli_sum("0.5 XX\n0.5 ZZ")
        want = 0.5 * np.kron(PAULI_X, PAULI_X) + 0.5 * np.kron(PAULI_Z, PAULI_Z)
        assert np.allclose(got, want)
        assert set(np.round(np.unique(np.abs(got)), 12)) == {0.0, 0.5}

    def test_invalid_letter_reports_line(self):
        with pytest.raises(ValidationError, match="line 1"):
            model.parse_pauli_sum("1.0 Q")

    def test_inconsistent_lengths(self):
        with pytest.raises(ValidationError, match="length"):
            model.parse_pauli_sum("1.0 Z\n1.0 ZZ")

    def test_non_real_coefficient(self):
        with pytest.raises(ValidationError, match="coefficient"):
            model.parse_pauli_sum("1j Z")

    def test_comments_and_blanks(self):
        got = model.parse_pauli_sum("# comment\n\n1.0 Z  # trailing\n")
        assert np.allclose(got, np.diag([1.0, -1.0]))

    @settings(max_examples=200, deadline=None)
    @given(terms=pauli_sums())
    def test_scatter_matches_kron_bytes(self, terms):
        text = "".join(f"{coeff!r} {string}\n" for coeff, string in terms)
        assert model.parse_pauli_sum(text).tobytes() == kron_pauli_sum(terms).tobytes()

    @pytest.mark.parametrize("name", sorted(f for f in os.listdir(DATA) if f.endswith(".pauli")))
    def test_data_files_match_kron_bytes(self, name):
        with open(os.path.join(DATA, name)) as fh:
            text = fh.read()
        lines = [line.split("#")[0].split() for line in text.splitlines()]
        terms = [(float(c), s) for c, s in filter(None, lines)]
        assert model.parse_pauli_sum(text).tobytes() == kron_pauli_sum(terms).tobytes()


class TestDenseFormat:
    def test_round_trip(self, rng):
        a = random_hermitian(rng, 3)
        again = model.parse_dense_matrix(model.format_dense_matrix(a))
        assert np.allclose(a, again, atol=0)

    def test_malformed_entry(self):
        with pytest.raises(ValidationError, match="re,im"):
            model.parse_dense_matrix("1.0 2.0")

    def test_sniffing(self):
        assert model.load_hamiltonian_text("1.0 Z").shape == (2, 2)
        assert model.load_hamiltonian_text("0,0 1,0\n1,0 0,0").shape == (2, 2)

    def test_dense_comments(self):
        got = model.parse_dense_matrix("# header\n0,0 1,0  # row\n1,0 0,0\n")
        assert np.allclose(got, PAULI_X)


# ---------------------------------------------------------------------------
# Dense text oracles: one entry at a time, as the format is specified
# ---------------------------------------------------------------------------

def format_entrywise(a):
    a = np.asarray(a, dtype=complex)
    lines = []
    for row in a:
        lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
    return "\n".join(lines) + "\n"


def parse_entrywise(text):
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        entries = []
        for tok in line.split():
            try:
                re_s, im_s = tok.split(",")
                entries.append(complex(float(re_s), float(im_s)))
            except ValueError:
                raise ValidationError(f"line {lineno}: malformed entry {tok!r}, expected 're,im'") from None
        rows.append(entries)
    if not rows:
        raise ValidationError("empty dense-matrix file")
    if len({len(r) for r in rows}) != 1:
        raise ValidationError("rows have inconsistent lengths")
    return np.array(rows, dtype=complex)


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, math.copysign(math.nan, -1.0), 5e-324,
               -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1,
               1.0 / 3.0, 1e-6, -1e17, 99999999999999984.0, 0.5]
ENTRY = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=True, allow_infinity=True))
MATRICES = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: hnp.arrays(float, (shape[0], 2 * shape[1]), elements=ENTRY)
).map(lambda re_im: re_im.view(complex))


def same_bits(a, b):
    return a.shape == b.shape and a.view(float).tobytes() == b.view(float).tobytes()


def outcome(parse, text):
    """The parsed array, or the ValidationError message."""
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


@st.composite
def decorated_text(draw, pauli=False):
    """A formatted matrix with comments, blank lines and extra whitespace; with
    ``pauli``, as often a Pauli sum's lines and the matrix they stand for."""
    if pauli and draw(st.booleans()):
        terms = draw(pauli_sums())
        a, body = kron_pauli_sum(terms), "".join(f"{c!r} {s}\n" for c, s in terms)
    else:
        a = draw(MATRICES)
        body = format_entrywise(a)
    space = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = []
    for row in body.splitlines():
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "# comment", "  #0,0 1,1"])))
        tokens = row.split(" ")
        line = draw(space).join(tokens) if len(tokens) > 1 else tokens[0]
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line
                     + draw(st.sampled_from(["", "  ", " # trailing", "#x,y"])))
    return a, "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


def assert_same_text(got, want):
    """got == want, reported at the first entry that differs: pytest's diff of
    two multi-megabyte strings would take minutes."""
    if got != want:
        for i, pair in enumerate(zip(got.split(" "), want.split(" "))):
            assert (i, pair[0]) == (i, pair[1])
        assert len(got) == len(want)


def _bit_patterns(rng, low=0, high=2047):
    """2^20 doubles of random sign and mantissa, exponent field in [low, high]."""
    size = 1 << 20
    sign = rng.integers(0, 2, size, dtype=np.uint64) << np.uint64(63)
    exponent = rng.integers(low, high, size, endpoint=True).astype(np.uint64) << np.uint64(52)
    return (sign | exponent | rng.integers(0, 1 << 52, size, dtype=np.uint64)).view(float)


def _ties(rng):
    """x * 10^k exactly halfway between integers for k = 1..22, x in
    [10^(16-k), 10^(17-k)): the 17-digit rounding ties, odd multiples of 2^-(k+1)."""
    parts = []
    for k in range(1, 23):
        scale = 2 ** (k + 1)
        lo = scale * 10 ** 16 // 10 ** k // 2
        hi = min(scale * 10 ** 17 // 10 ** k, 2 ** 53) // 2
        parts.append((2 * rng.integers(lo, hi, 1000) + 1) / scale)
    return np.concatenate(parts)


def _powers_of_ten():
    """The double nearest 10^k and both its neighbours, k = -8..18, both signs."""
    p = np.array([float(f"1e{k}") for k in range(-8, 19)])
    p = np.concatenate([np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)])
    return np.concatenate([p, -p])


KERNEL_CASES = {
    "random bits": lambda rng: _bit_patterns(rng),
    "random bits in 2^-20..2^57": lambda rng: _bit_patterns(rng, 1023 - 20, 1023 + 57),
    "powers of ten": lambda rng: _powers_of_ten(),
    "edge floats": lambda rng: np.array(EDGE_FLOATS),
    "half-integers": lambda rng: rng.integers(-(1 << 52), 1 << 52, 1 << 16) + 0.5,
    "dyadic": lambda rng: rng.integers(-1024, 1024, 1 << 16) * 2.0 ** rng.integers(-80, 80, 1 << 16),
    "17-digit ties": _ties,
    "log-wide": lambda rng: rng.choice([-1.0, 1.0], 1 << 16) * 10.0 ** rng.uniform(-30, 30, 1 << 16),
}


class TestDenseTextCompatibility:
    @settings(max_examples=300, deadline=None, database=None)
    @given(MATRICES)
    def test_format_bytes_match_entrywise(self, a):
        assert model.format_dense_matrix(a).decode("ascii") == format_entrywise(a)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_format_bytes_match_entrywise_on(self, case, rng):
        values = KERNEL_CASES[case](rng)
        a = values.reshape(-1, 2).view(complex).reshape(-1, 8 if values.size % 16 == 0 else 1)
        assert_same_text(model.format_dense_matrix(a).decode("ascii"), format_entrywise(a))

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_format_exponent_one_off_is_corrected(self, shift, rng, monkeypatch):
        """The kernel's first exponent, floor(log10 |x|), is one off where
        log10 rounds across an integer; a log10 that puts every value one
        decade off shows that the correction alone sets the exponent."""
        def log10(x):       # the exponent of '%.16e', which %.17g uses, moved by shift
            return np.array([int(("%.16e" % y).split("e")[1]) + shift + 0.5 for y in x.tolist()])

        a = np.concatenate([_powers_of_ten(), _bit_patterns(rng, 1023 - 20, 1023 + 57)[:1 << 14]])
        a = a.reshape(-1, 2).view(complex)
        monkeypatch.setattr(np, "log10", log10)
        assert_same_text(model.format_dense_matrix(a).decode("ascii"), format_entrywise(a))

    @pytest.mark.parametrize("shape", [
        (3 * model._BLOCK // 16 + 5, 8),      # more rows than one block holds
        (1, model._BLOCK),                   # one row, twice a block's doubles
        (3, model._BLOCK // 2 + 1),          # every row a block of its own
    ])
    def test_format_blocks_match_entrywise(self, shape, rng):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert_same_text(model.format_dense_matrix(a).decode("ascii"), format_entrywise(a))

    @pytest.mark.parametrize("shape,text", [((0, 3), "\n"), ((0, 0), "\n"), ((3, 0), "\n\n\n")])
    def test_format_empty_shapes(self, shape, text):
        """One newline per row, and one for no rows: the bytes these shapes always had."""
        assert model.format_dense_matrix(np.zeros(shape, dtype=complex)) == text.encode()

    @settings(max_examples=300, deadline=None, database=None)
    @given(MATRICES)
    def test_parse_round_trip_bits(self, a):
        text = format_entrywise(a)
        got = model.parse_dense_matrix(text)
        assert same_bits(got, parse_entrywise(text))
        # %.17g round-trips every double but nan, which loses its sign and payload
        kept = ~np.isnan(a.view(float))
        assert got.view(float)[kept].tobytes() == a.view(float)[kept].tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(decorated_text())
    def test_parse_comments_blanks_and_spaces(self, case):
        a, text = case
        got = model.parse_dense_matrix(text)
        assert same_bits(got, parse_entrywise(text))
        assert got.shape == a.shape

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.text(alphabet="0123456789.,-+e nai#\t\n", max_size=40))
    def test_any_text_parses_or_fails_as_entrywise(self, text):
        got, want = outcome(model.parse_dense_matrix, text), outcome(parse_entrywise, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert same_bits(got, want)

    @pytest.mark.parametrize("text,message", [
        ("1.0 2.0", "line 1: malformed entry '1.0', expected 're,im'"),
        ("0,0 1,2,3\n", "line 1: malformed entry '1,2,3', expected 're,im'"),
        ("1 2,3,4", "line 1: malformed entry '1', expected 're,im'"),  # four numbers, two entries
        ("# header\n0,0\n1,x\n", "line 3: malformed entry '1,x', expected 're,im'"),
        ("0,0 1, 2,0", "line 1: malformed entry '1,', expected 're,im'"),
        ("0,0 ,1", "line 1: malformed entry ',1', expected 're,im'"),
        ("", "empty dense-matrix file"),
        ("# nothing\n\n   \n", "empty dense-matrix file"),
        ("1,0 0,0\n0,0", "rows have inconsistent lengths"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            model.parse_dense_matrix(text)
        assert outcome(parse_entrywise, text) == message


# ---------------------------------------------------------------------------
# The whole-file dense parser against the row-wise one it replaced
# ---------------------------------------------------------------------------

def parse_rowwise(text):
    """The row-wise dense parser, transcribed: each row one numpy conversion of
    its 2n numbers; a row that fails it or whose comma count is off parsed
    again entry by entry, which names the first malformed entry."""
    rows = []
    for lineno, line in model._strip(text):
        tokens = line.split()
        try:
            row = np.array(line.replace(",", " ").split(), dtype=float)
        except ValueError:
            row = None
        if row is None or row.size != 2 * len(tokens) or any(tok.count(",") != 1 for tok in tokens):
            for tok in tokens:
                try:
                    re_s, im_s = tok.split(",")
                    float(re_s), float(im_s)
                except ValueError:
                    raise ValidationError(f"line {lineno}: malformed entry {tok!r}, expected 're,im'") from None
            raise InvariantError(f"line {lineno}: row refused as a whole but every entry parses")
        rows.append(row)
    if not rows:
        raise ValidationError("empty dense-matrix file")
    if len({r.size for r in rows}) != 1:
        raise ValidationError("rows have inconsistent lengths")
    return np.stack(rows).view(complex)


def result(parse, text):
    """The parsed array, or the type and message of the error."""
    try:
        return parse(text)
    except (ValidationError, InvariantError) as exc:
        return type(exc), str(exc)


SPECIAL_NUMBERS = ["0", "-0", "0.0", "-0.0", "+0", "nan", "-nan", "NaN", "+nan", "inf", "-inf",
                   "Infinity", "-INF", "5e-324", "-4.9e-324", "2.2250738585072009e-308",
                   "2.225073858507201e-308", "1e400", "-1e400", "1e-400", "-1e-400", "1.", ".5", "1E5"]
NUMBER = st.one_of(
    st.sampled_from(SPECIAL_NUMBERS),
    st.builds(lambda fmt, x: fmt(x), st.sampled_from([lambda x: "%.17g" % x, repr, lambda x: "%.3g" % x]),
              st.floats(allow_nan=True, allow_infinity=True)),
)
# Entries that break the "re,im" layout, or that only ``float`` reads
MUTATIONS = ["1,", ",1", "1,2,3", "1,,2", "1 2", "1_0,2", "\u0661\u0662,1", "0x10,1", "1,2\x1f3,4",
             "1\x1f,2", "1,2\u30003,4", "1e,1", "--1,1", "1,nan(1)", "1,\ud800", "\ud8001,2"]


@st.composite
def dense_files(draw):
    """Dense text with its numbers in %.17g, repr or short decimals and special
    values; tabs, runs of blanks, comments, blank lines and CRLF; and maybe one
    mutation: a malformed or ``float``-only entry, or a row one entry short."""
    shape = draw(st.tuples(st.integers(1, 5), st.integers(1, 5)))
    entries = [[f"{draw(NUMBER)},{draw(NUMBER)}" for _ in range(shape[1])] for _ in range(shape[0])]
    mutation = draw(st.sampled_from([None, "short row"] + MUTATIONS))
    i, j = draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))
    if mutation == "short row":
        del entries[i][j]
    elif mutation is not None:
        entries[i][j] = mutation
    blank = st.sampled_from([" ", " ", " ", "  ", "\t", " \t "])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in entries:
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "   ", "# comment", " #0,0 1,1"])))
        line = "".join(draw(blank) + e if k else e for k, e in enumerate(row))
        lines.append(draw(st.sampled_from(["", "", " ", "\t"])) + line
                     + draw(st.sampled_from(["", "", "  ", " # trailing", "#x,y"])))
    return end.join(lines) + draw(st.sampled_from(["", end]))


class TestWholeFileParse:
    @settings(max_examples=300, deadline=None, database=None)
    @given(dense_files())
    def test_matches_the_rowwise_parser(self, text):
        got, want = result(model.parse_dense_matrix, text), result(parse_rowwise, text)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert isinstance(got, np.ndarray) and same_bits(got, want)

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_each_mutation_matches_the_rowwise_parser(self, mutation):
        for text in (f"0,1 {mutation}\n2,3 4,5\n", f"{mutation}\r\n0,0 1,1\r\n",
                     f"# c\n0,0\t1,1\n2,2   {mutation}"):
            got, want = result(model.parse_dense_matrix, text), result(parse_rowwise, text)
            assert got == want if isinstance(want, tuple) else same_bits(got, want)

    @pytest.mark.parametrize("text,whole", [
        ("1,2 3,4\n5,6\t7,8", False), ("-nan,Infinity", True), ("1,2", True), ("1,2  3,4", False),
        ("1,2 \t 3,4\n5,6   7,8", False), ("1,2 3,4\n5,6", False), ("1, 2,3", False), (",1", False),
        ("1,2,3 4", False), ("1,2 3", False), ("0,1 1 2", False), ("1\x1f,2", False), ("0x1,2", False),
        ("1_0,2", False), ("\u0661,1", False), ("1,\ud800", False),
    ])
    def test_c_reader_converts_where_the_separators_alternate(self, text, whole, monkeypatch):
        # entries of one comma among number bytes alone, one blank between
        # them, are converted by np.loadtxt, which refuses what the check lets
        # through (an empty field); the rest (tabs and runs of blanks among it)
        # is read by float
        converted = []
        loadtxt = np.loadtxt

        def counted(*args, **kwargs):
            out = loadtxt(*args, **kwargs)
            converted.append(text)
            return out

        monkeypatch.setattr(np, "loadtxt", counted)
        got, want = result(model.parse_dense_matrix, text), result(parse_rowwise, text)
        assert got == want if isinstance(want, tuple) else same_bits(got, want)
        assert len(converted) == whole

    def test_nan_sign_and_float_only_digits_keep_their_bits(self):
        got = model.parse_dense_matrix("-nan,nan 1_0,\u0661\u0662\n-0,1e-400 1e400,5e-324")
        want = np.array([[complex(-math.nan, math.nan), 10 + 12j],
                         [complex(-0.0, 0.0), complex(math.inf, 5e-324)]])
        assert got.view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
        assert math.copysign(1.0, got.real[0, 0]) == -1.0

    def test_spectral_sized_files_match_bitwise(self, rng):
        # a 256 x 256 matrix written by repr and by %.17g
        a = rng.standard_normal((256, 512)).view(complex)
        for text in (format_entrywise(a), "\n".join(" ".join(f"{z.real!r},{z.imag!r}" for z in row)
                                                    for row in a.tolist())):
            assert same_bits(model.parse_dense_matrix(text), parse_rowwise(text))



@contextlib.contextmanager
def c_reader_conversions():
    """The shapes of what ``np.loadtxt`` returns while the block runs; a call
    that refuses its text adds nothing."""
    shapes, loadtxt = [], np.loadtxt

    def counted(*args, **kwargs):
        out = loadtxt(*args, **kwargs)
        shapes.append(out.shape)
        return out

    np.loadtxt = counted
    try:
        yield shapes
    finally:
        np.loadtxt = loadtxt


WRITTEN_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -4e-320,
                     2.2250738585072009e-308, 1e300, -1e300, 1e-300, -1e-300]),
    st.floats(allow_nan=True, allow_infinity=True))
WRITTEN = st.integers(1, 6).flatmap(lambda n: st.sampled_from([(1, n), (n, 1), (n, 3)])).flatmap(
    lambda shape: hnp.arrays(float, (shape[0], 2 * shape[1]), elements=WRITTEN_ENTRY)
).map(lambda re_im: re_im.view(complex))

def _comma_moved_on_the_last_line(text):
    """'a,b c,d' -> 'a b,c,d' on the last line, which loses its newline: every
    row still has its numbers and its commas, and the last row has one entry
    with no comma and one with two."""
    head, last = text[:-1].rsplit("\n", 1)
    re_s, rest = last.split(",", 1)
    im_s, rest = rest.split(" ", 1)
    return f"{head}\n{re_s} {im_s},{rest}"


# Files a blank, a byte or a line away from the written layout, made from its text
NEAR_WRITTEN = {
    "comma_moved_on_the_last_line": _comma_moved_on_the_last_line,
    "trailing_blank": lambda text: text.replace("\n", " \n", 1),
    "tab": lambda text: text.replace(" ", "\t", 1),
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "comment_line": lambda text: "# written by hand\n" + text,
    "blank_line": lambda text: text.replace("\n", "\n\n", 1),
    "blank_inside_an_entry": lambda text: text.replace(",", ", ", 1),     # "1, 2,3"
    "empty_real_part": lambda text: "," + text.split(",", 1)[1],         # ",1"
}


class TestWrittenLayout:
    """Text in the layout ``format_dense_matrix`` writes takes one ``np.loadtxt``
    call on the whole file; any other layout is read by ``float``."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(WRITTEN, st.booleans())
    def test_written_files_take_one_c_reader_call(self, a, final_newline):
        text = model.format_dense_matrix(a).decode("ascii")
        text = text if final_newline else text[:-1]
        want = parse_rowwise(text)
        for parse in (model.parse_dense_matrix, model.load_hamiltonian_text):
            for data in (text, text.encode()):
                with c_reader_conversions() as shapes:
                    got = parse(data)
                assert shapes == [a.view(float).shape]
                assert same_bits(got, want)
        kept = ~np.isnan(a.view(float))
        assert got.view(float)[kept].tobytes() == a.view(float)[kept].tobytes()

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1)])
    def test_written_state_takes_one_c_reader_call(self, shape, rng):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        with c_reader_conversions() as shapes:
            got = model.parse_state_vector(model.format_dense_matrix(v))
        assert shapes == [v.view(float).shape]
        assert got.tobytes() == (v.reshape(-1) / np.linalg.norm(v)).tobytes()

    @pytest.mark.parametrize("case", sorted(NEAR_WRITTEN))
    def test_near_written_files_take_the_float_loop(self, case, rng):
        written = model.format_dense_matrix(rng.standard_normal((3, 6)).view(complex)).decode("ascii")
        text = NEAR_WRITTEN[case](written)
        want = result(parse_rowwise, text)
        for data in (text, text.encode()):
            with c_reader_conversions() as shapes:
                got = result(model.parse_dense_matrix, data)
            assert shapes == []
            assert got == want if isinstance(want, tuple) else same_bits(got, want)

    @pytest.mark.parametrize("parse,data,offset", [
        (model.parse_dense_matrix, b"1,0 0,0\n0,0 \xff1,0\n", 12),
        (model.load_hamiltonian_text, b"1,0 0,0\n0,0 \xff1,0\n", 12),
        (model.load_hamiltonian_text, b"1.0 Z\xe9\n", 5),
        (model.parse_pauli_sum, b"# \xc3\n1.0 Z\n", 2),
        (model.parse_state_vector, b"\x800.6,0 0,0.8\n", 0),
        (model.parse_jump_list, b"z.pauli 0.5\n\xfe.pauli\n", 12),
        (model.parse_oracle, b"0 1 \xed\xa0\x80 1\n", 4),      # a surrogate's UTF-8 bytes
    ])
    def test_bytes_that_are_not_utf8_name_their_offset(self, parse, data, offset):
        with pytest.raises(ValidationError, match=f"^byte {offset}: not UTF-8 text$"):
            parse(data)

    def test_utf8_bytes_read_as_their_text(self):
        text = "# \u00e9t\u00e9\n1,0 0,0\n0,0 \u0661,0\n"
        assert same_bits(model.parse_dense_matrix(text.encode()), model.parse_dense_matrix(text))


def picked_parser(text):
    """The parser that the first line with content picks, found by its own scan."""
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            return model.parse_dense_matrix if "," in tokens[0] else model.parse_pauli_sum
    return None


class TestLoadHamiltonianText:
    @settings(max_examples=300, deadline=None, database=None)
    @given(decorated_text(pauli=True))
    def test_decorated_files_load_as_their_parser(self, case):
        a, text = case
        got = model.load_hamiltonian_text(text)
        assert same_bits(got, picked_parser(text)(text))
        assert got.shape == a.shape

    @settings(max_examples=500, deadline=None, database=None)
    @given(st.text(alphabet="0123456789.,-+e naifIXYZz#\t\n", max_size=40))
    def test_any_text_loads_or_fails_as_its_parser(self, text):
        assume(not re.search("[IXYZiz]{11}", text))  # a wide string would allocate 2^n x 2^n
        got, parse = outcome(model.load_hamiltonian_text, text), picked_parser(text)
        want = "empty Hamiltonian file" if parse is None else outcome(parse, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert same_bits(got, want)

    @pytest.mark.parametrize("text,message", [
        ("nan Z", "line 1: coefficient 'nan' is not a finite real number"),
        ("1 ZZ\n-inf XZ", "line 2: coefficient '-inf' is not a finite real number"),
        ("1e400 Z", "line 1: coefficient '1e400' is not a finite real number"),
        ("1j Z", "line 1: coefficient '1j' is not a finite real number"),
        ("# only a comment\n", "empty Hamiltonian file"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            model.load_hamiltonian_text(text)


class TestJumpList:
    @pytest.mark.parametrize("text,message", [
        ("z.pauli nan", "line 1: rate 'nan' is not a finite number >= 0"),
        ("z.pauli 1\nz.pauli inf", "line 2: rate 'inf' is not a finite number >= 0"),
        ("z.pauli -0.5", "line 1: rate '-0.5' is not a finite number >= 0"),
        ("z.pauli abc", "line 1: rate 'abc' is not a finite number >= 0"),
        ("z.pauli 0.5 extra", "line 1: expected 'path [rate]', got 'z.pauli 0.5 extra'"),
        ("# only a comment\n\n", "empty jump list"),
    ])
    def test_error_messages(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            model.parse_jump_list(text)


class TestNumberList:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                              st.integers(-10 ** 6, 10 ** 6).map(str), st.just(""),
                              st.just(" 2 ")), max_size=6))
    def test_valid_lists_read_as_float_and_int_did(self, items):
        text = ",".join(items)
        want = [float(x) for x in text.split(",") if x.strip()]
        assert np.array(model.parse_number_list("--t", text)).tobytes() == \
            np.array(want, dtype=float).tobytes()
        if all(re.fullmatch(r" ?-?\d* ?", x) for x in items):
            assert model.parse_number_list("--N-grid", text, integer=True) == [
                int(x) for x in text.split(",") if x.strip()]

    @pytest.mark.parametrize("option,text,integer,message", [
        ("--beta", "1,abc", False, "--beta: value 'abc' is not a finite real number"),
        ("--c-grid", "0.1, nan", False, "--c-grid: value 'nan' is not a finite real number"),
        ("--t", "-inf", False, "--t: value '-inf' is not a finite real number"),
        ("--t", "1e400", False, "--t: value '1e400' is not a finite real number"),
        ("--N-grid", "10,1e3", True, "--N-grid: value '1e3' is not an integer"),
        ("--N-grid", "10.0", True, "--N-grid: value '10.0' is not an integer"),
        ("--N-grid", "inf", True, "--N-grid: value 'inf' is not an integer"),
    ])
    def test_error_names_the_option(self, option, text, integer, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            model.parse_number_list(option, text, integer)


class TestStateVector:
    @pytest.mark.parametrize("text", ["0.6,0 0,0.8\n", "0.6,0\n0,0.8\n"])
    def test_row_or_column(self, text):
        assert model.parse_state_vector(text).tobytes() == np.array([0.6, 0.8j]).tobytes()

    @pytest.mark.parametrize("text,shape,norm", [
        ("0,0 0,0", (1, 2), "0.0"),
        ("nan,0 0,0", (1, 2), "nan"),
        ("inf,0\n0,0", (2, 1), "inf"),
        ("1,0 0,0\n0,0 0,0", (2, 2), "1.0"),
    ])
    def test_rejects_zero_non_finite_and_matrices(self, text, shape, norm):
        with pytest.raises(ValidationError, match=re.escape(f"got shape {shape}, norm {norm}")):
            model.parse_state_vector(text)


class TestNormalizeSpectrum:
    def test_affine_endpoints(self):
        ham = model.normalize_spectrum(np.diag([-2.0, 2.0]))
        assert np.allclose(ham.eigenvalues, [0.0, 1.0])
        assert ham.spectrum_map.scale == 4.0
        assert ham.spectrum_map.shift == -2.0

    def test_already_normalized_unchanged(self):
        ham = model.normalize_spectrum(np.diag([0.0, 0.3, 1.0]))
        assert np.allclose(ham.eigenvalues, [0.0, 0.3, 1.0])
        assert ham.spectrum_map.scale == 1.0 and ham.spectrum_map.shift == 0.0

    def test_degenerate_eigenvalue_shares_projector(self):
        ham = model.normalize_spectrum(np.diag([0.0, 0.5, 0.5, 1.0]))
        assert ham.n_levels == 3
        assert np.array_equal(np.bincount(ham.levels), [1, 2, 1])
        assert ham.dim > ham.n_levels

    def test_clusters_span_at_most_the_tolerance(self):
        # ten eigenvalues 0.6 tol apart: each gap is below tol, the run spans 5.4 tol
        tol = model.CLUSTER_RTOL * 1.0
        eigs = 1.0 - 0.6 * tol * np.arange(10)[::-1]
        ham = model.normalize_spectrum(np.diag(eigs))
        assert ham.dim > ham.n_levels > 1
        for level in range(ham.n_levels):
            members = eigs[ham.levels == level]
            assert members.max() - members.min() <= tol

    def test_zero_width_flagged(self):
        ham = model.normalize_spectrum(2.5 * np.eye(3))
        assert ham.n_levels == 1
        assert np.allclose(ham.eigenvalues, [0.0])
        assert np.isclose(ham.spectrum_map.to_original(0.0), 2.5)

    def test_reconstruction(self, rng):
        ham = model.normalize_spectrum(random_hermitian(rng, 6))
        v = ham.vectors
        rebuilt = (v * ham.eigenvalues[ham.levels]) @ v.conj().T
        assert np.max(np.abs(rebuilt - ham.matrix)) <= 1e-8

    def test_projector_completeness_orthogonality(self, rng):
        # eigenspace projectors V_k V_k^dag resolve the identity and are
        # mutually orthogonal exactly when V is unitary
        ham = model.normalize_spectrum(random_hermitian(rng, 5))
        v = ham.vectors
        assert np.max(np.abs(v.conj().T @ v - np.eye(5))) <= 1e-9
        assert np.max(np.abs(v @ v.conj().T - np.eye(5))) <= 1e-9
        assert np.array_equal(ham.levels, np.arange(5))

    def test_spectrum_map_round_trip(self, rng):
        raw = random_hermitian(rng, 5)
        original = np.linalg.eigvalsh(raw)
        ham = model.normalize_spectrum(raw)
        back = ham.spectrum_map.to_original(ham.eigenvalues)
        assert np.max(np.abs(np.sort(back) - np.sort(original))) <= 1e-9


class TestSpectralGap:
    def test_middle_eigenvalue(self):
        ham = model.normalize_spectrum(np.diag([0.0, 0.3, 1.0]))
        assert np.isclose(model.spectral_gap(ham, 1), 0.3)

    def test_endpoints(self):
        ham = model.normalize_spectrum(np.diag([0.0, 1.0]))
        assert np.isclose(model.spectral_gap(ham, 0), 1.0)

    def test_small_gap(self):
        ham = model.normalize_spectrum(np.diag([0.2, 0.5, 0.6]))
        assert np.isclose(model.spectral_gap(ham, 1), 0.1)

    def test_single_eigenvalue_error(self):
        ham = model.normalize_spectrum(0.5 * np.eye(2))
        with pytest.raises(ValidationError, match="single-eigenvalue"):
            model.spectral_gap(ham, 0)


class TestDilate:
    def test_scalar(self):
        assert np.allclose(dilate(np.array([[2.0]])), [[0, 2], [2, 0]])

    def test_identity_becomes_x_tensor(self):
        want = np.kron(PAULI_X, np.eye(2))
        assert np.allclose(dilate(np.eye(2)), want)

    def test_norm_preserved(self, rng):
        f = random_hermitian(rng, 3)
        tilde = dilate(f)
        assert np.isclose(
            np.max(np.abs(np.linalg.eigvalsh(tilde))),
            np.max(np.abs(np.linalg.eigvalsh(f))),
        )

    def test_square_is_block_diagonal(self, rng):
        f = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        tilde = dilate(f)
        sq = tilde @ tilde
        want = np.zeros_like(sq)
        want[:3, :3] = f.conj().T @ f
        want[3:, 3:] = f @ f.conj().T
        assert np.max(np.abs(sq - want)) <= 1e-10


class TestDecomposeState:
    def test_eigenstate(self):
        ham = model.normalize_spectrum(np.diag([0.0, 1.0]))
        st = model.decompose_state(np.array([0.0, 1.0], dtype=complex), ham)
        assert np.allclose(st.coeffs, [0.0, 1.0])

    def test_plus_state(self):
        ham = model.normalize_spectrum(np.diag([0.0, 1.0]))
        st = model.decompose_state(np.array([1.0, 1.0]) / np.sqrt(2), ham)
        assert np.allclose(st.coeffs, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_parseval(self, rng):
        ham = model.normalize_spectrum(random_hermitian(rng, 6))
        st = model.decompose_state(random_state(rng, 6), ham)
        assert abs(np.sum(st.weights) - 1.0) <= 1e-9

    def test_dim_mismatch(self, rng):
        ham = model.normalize_spectrum(np.diag([0.0, 1.0]))
        with pytest.raises(ValidationError):
            model.decompose_state(random_state(rng, 3), ham)

