"""Fuzz the command line with malformed input.

Every run must end in a clean exit code (2 usage or validation, 3 I/O,
4 protocol precondition) with an `error:` line on stderr, never a traceback:
an exception escaping `main` fails the test with the drawn argv.  Each
`@example` is a case that once crashed, hung or exited 0, and runs every time.

Only malformed or out-of-range values are drawn.  A valid but huge work size
(`--trials 100000000000`) would just run for a very long time, so no strategy
here can produce one; every other flag keeps a small default.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpke.attacks import FORWARD_SEARCH_CHUNK
from qpke.cli import CCA_USES_CAP, SWEEPS, main
from qpke.protocol import MAX_KEY_LENGTH
from qpke.security_analysis import MI_COPIES_CAP, MI_TRIALS_CAP

FUZZ = settings(max_examples=40, deadline=None)

# no digit in the alphabet, so int() and float() reject every draw
NOT_A_NUMBER = st.text(alphabet="abxyz:.,_- ", max_size=8)
NOT_POSITIVE = st.integers(max_value=0)
BAD_PRECISION = st.one_of(st.integers(max_value=0), st.integers(min_value=63))
_VALID_MESSAGE = re.compile(r"[01]+|0[xX][0-9a-fA-F]+")
BAD_MESSAGE = st.text(max_size=12).filter(
    lambda s: not _VALID_MESSAGE.fullmatch(s) and "\x00" not in s
)
KEY_LENGTH = 4


def bad_range(lo_floor: int = 1, hi_ceiling: int | None = None) -> st.SearchStrategy:
    """LOW:HIGH text that is not a range, or whose bounds are out of order or
    below lo_floor (or above hi_ceiling, when the command has one)."""
    inverted = st.tuples(st.integers(lo_floor, 10**6), st.integers(1, 10**6)).map(
        lambda t: (t[0], t[0] - t[1])
    )
    low = st.tuples(st.integers(max_value=lo_floor - 1), st.integers())
    bounds = [inverted, low]
    if hi_ceiling is not None:
        bounds.append(
            st.tuples(st.integers(lo_floor, hi_ceiling), st.integers(min_value=hi_ceiling + 1))
        )
    return st.one_of(
        NOT_A_NUMBER,
        st.one_of(bounds).map(lambda t: f"{t[0]}:{t[1]}"),
    )


def flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    """`--name=value`; the = form hands negative numbers to the program."""
    return values.map(lambda v: [f"--{name}={v}"])


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_failure(argv: list[str]) -> None:
    code, err = run(argv)
    assert code in (2, 3, 4), (argv, code, err)
    assert "error" in err, (argv, err)
    assert "Traceback" not in err, (argv, err)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    key = root / "key.json"
    argv = ["keygen", "--n", "40", "--N", str(KEY_LENGTH), "--seed", "1", "--out", str(key)]
    assert run(argv)[0] == 0
    return root


def _json_values() -> st.SearchStrategy:
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=6)
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)
        ),
        max_leaves=8,
    )


# one key-file field replaced by a value of the wrong type or range
_BAD_FIELD = st.one_of(
    st.tuples(st.just("version"), _json_values().filter(lambda v: v != 1)),
    st.tuples(
        st.just("n"),
        st.one_of(
            _json_values().filter(lambda v: type(v) is not int),
            st.integers().filter(lambda v: not 1 <= v <= 62),
        ),
    ),
    st.tuples(
        st.just("s"),
        st.one_of(
            _json_values().filter(lambda v: not isinstance(v, list)),
            st.just([]),
            st.lists(st.integers(max_value=-1), min_size=1, max_size=4),
            st.lists(st.integers(min_value=1 << 40), min_size=1, max_size=4),
            st.lists(NOT_A_NUMBER, min_size=1, max_size=4),
        ),
    ),
    st.tuples(
        st.just("perm"),
        st.one_of(
            _json_values().filter(lambda v: not isinstance(v, list)),
            st.lists(st.integers(), max_size=6).filter(
                lambda v: sorted(v) != list(range(KEY_LENGTH))
            ),
        ),
    ),
)

MALFORMED_KEY_TEXT = st.one_of(
    st.binary(max_size=64),
    _json_values().map(lambda v: json.dumps(v).encode()),
    _BAD_FIELD.map(
        lambda field: json.dumps(
            {"version": 1, "n": 40, "s": ["1"] * KEY_LENGTH, field[0]: field[1]}
        ).encode()
    ),
    st.integers(2, 5000).map(lambda depth: b"[" * depth),
    st.integers(1, 50000).map(lambda depth: b"[" * depth + b"]" * depth),
)


@FUZZ
@given(
    args=st.one_of(
        flag("n", BAD_PRECISION),
        flag("n", NOT_A_NUMBER),
        flag("n-range", bad_range(1, 62)),
        st.tuples(
            flag("n", st.integers(1, 62)),
            flag("N", st.one_of(NOT_POSITIVE, st.integers(min_value=MAX_KEY_LENGTH + 1))),
        ).map(lambda t: t[0] + t[1]),
        st.just(["--n", "8", "--n-range", "8:9"]),
        st.just([]),
    )
)
@example(args=["--n", "8", "--N=1000000000000"])
def test_keygen_rejects_malformed_flags(workdir, args):
    assert_clean_failure(["keygen", "--N", "2", "--out", str(workdir / "k.json")] + args)


@FUZZ
@given(content=MALFORMED_KEY_TEXT)
@example(content=b"[" * 100_000)
def test_roundtrip_rejects_malformed_key_files(workdir, content):
    path = workdir / "bad-key.json"
    path.write_bytes(content)
    assert_clean_failure(["roundtrip", "--key", str(path), "--message", "01", "--seed", "1"])


@FUZZ
@given(
    args=st.one_of(
        flag("message", BAD_MESSAGE),
        st.integers(1, 40).map(lambda extra: [f"--message={'1' * (KEY_LENGTH + extra)}"]),
        st.tuples(st.just(["--message", "01"]), flag("alpha", NOT_POSITIVE)).map(
            lambda t: t[0] + t[1]
        ),
        st.tuples(st.just(["--message", "01"]), flag("alpha", NOT_A_NUMBER)).map(
            lambda t: t[0] + t[1]
        ),
    ),
    missing_key=st.booleans(),
)
def test_roundtrip_rejects_malformed_flags(workdir, args, missing_key):
    key = workdir / ("absent.json" if missing_key else "key.json")
    assert_clean_failure(["roundtrip", "--key", str(key), "--seed", "1"] + args)


@FUZZ
@given(
    args=st.one_of(
        st.tuples(
            st.just(["--attack", "forward-search", "--trials", "10"]),
            st.one_of(
                flag("alpha", st.one_of(NOT_POSITIVE, st.integers(FORWARD_SEARCH_CHUNK + 1))),
                flag("trials", NOT_POSITIVE),
                flag("n", BAD_PRECISION),
            ),
        ),
        st.tuples(
            st.just(["--attack", "cpa"]),
            st.one_of(
                flag("n", st.one_of(st.integers(max_value=0), st.integers(min_value=13))),
                flag("N", NOT_POSITIVE),
                flag("alpha", NOT_POSITIVE),
                flag("N", st.integers(min_value=9)),
            ),
        ),
        st.tuples(
            st.just(["--attack", "cca"]),
            st.one_of(
                flag("k", st.one_of(NOT_POSITIVE, st.integers(CCA_USES_CAP + 1))),
                flag("N", NOT_POSITIVE),
                flag("n", BAD_PRECISION),
            ),
        ),
        st.tuples(st.just([]), flag("attack", NOT_A_NUMBER)),
        st.tuples(st.just(["--attack", "forward-search"]), flag("rule", NOT_A_NUMBER)),
        st.tuples(st.just(["--attack", "cca"]), flag("trials", NOT_A_NUMBER)),
    ).map(lambda t: t[0] + t[1])
)
@example(args=["--attack=--"])
@example(args=["--attack", "cpa", "--N=-9223372036854775809"])
@example(args=["--attack", "cpa", "--N=10000000000"])
@example(args=["--attack", "forward-search", "--trials", "10", "--n=1000000000000000000"])
@example(args=["--attack", "forward-search", "--alpha=1000000000000", "--trials", "1"])
@example(args=["--attack", "cca", "--k=100000000000", "--n", "8", "--N", "2"])
def test_attack_rejects_malformed_flags(args):
    assert_clean_failure(["attack", "--seed", "1"] + args)


@FUZZ
@given(
    args=st.one_of(
        flag("threshold", st.one_of(st.sampled_from(["nan", "inf", "-inf"]), st.floats(max_value=0.0))),
        flag("n-range", bad_range(1)),
        flag("N", NOT_POSITIVE),
        flag("k", st.integers(max_value=-1)),
        st.tuples(
            st.sampled_from([["--mi-strategy", "fixed"], ["--mi-strategy", "random"]]),
            st.one_of(
                flag("mi-n", st.one_of(st.integers(max_value=0), st.integers(min_value=17))),
                flag("mi-copies", st.one_of(NOT_POSITIVE, st.integers(MI_COPIES_CAP + 1))),
                flag("trials", st.one_of(st.integers(max_value=1), st.integers(MI_TRIALS_CAP + 1))),
            ),
        ).map(lambda t: t[0] + t[1]),
        flag("mi-strategy", NOT_A_NUMBER),
    )
)
@example(args=["--threshold=nan"])
@example(args=["--threshold=inf"])
@example(args=["--mi-strategy", "fixed", "--mi-copies=1000000000000", "--trials=2"])
@example(args=["--mi-strategy", "fixed", "--trials=1000000000000"])
@example(args=["--k", "1" + "0" * 400])
@example(args=["--N", "1" + "0" * 400])
@example(args=["--n-range", "1:1" + "0" * 400])
@example(args=["--n-range", f"1:{10**300}", "--N", str(10**300), "--k", "1"])
def test_analyze_rejects_malformed_flags(workdir, args):
    assert_clean_failure(["analyze", "--seed", "1", "--json", str(workdir / "a.json")] + args)
    assert not list(workdir.glob("a.json*"))


# every sweep experiment and the flag, without its dashes, that carries its grid
SWEEP_GRIDS = [(name, grid_flag[2:]) for name, (grid_flag, _, _) in SWEEPS.items()]


@FUZZ
@given(
    args=st.one_of(
        st.sampled_from(SWEEP_GRIDS).flatmap(
            lambda e: st.tuples(st.just(["--experiment", e[0]]), flag(e[1], bad_range(1)))
        ),
        st.tuples(st.sampled_from(SWEEP_GRIDS), st.integers(10_001, 10**30)).map(
            lambda t: (["--experiment", t[0][0]], [f"--{t[0][1]}=1:{t[1]}"])
        ),
        st.tuples(
            st.just(["--experiment", "forward-search", "--alphas", "1:2"]),
            flag("trials", NOT_POSITIVE),
        ),
    ).map(lambda t: t[0] + t[1])
)
@example(args=["--experiment", "forward-search", "--alphas=1:1000000000000"])
def test_sweep_rejects_malformed_flags(workdir, args):
    assert_clean_failure(["sweep", "--seed", "1", "--out", str(workdir / "sweep")] + args)
