"""Fuzzing of ``cli.main``: no input reaches a traceback, every run ends in
exit 0, 1 or 2."""

import contextlib
import io
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from boxball.cli import main
from conftest import INTRO_K1_TEXT, INTRO_K2_TEXT, SPECTRUM_TEXTS, THREE_SOLITON_TEXT

# Even with database=None, hypothesis caches the literals of local source files
# under its home directory, ./.hypothesis by default, as soon as pytest has
# collected a property test; keep that cache out of the working tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

_STATE_TEXTS = [
    text.encode()
    for text in (THREE_SOLITON_TEXT, INTRO_K1_TEXT, INTRO_K2_TEXT, *SPECTRUM_TEXTS.values())
]
# Bytes that keep a mutated file close to the state format, beside arbitrary
# ones (everything from 0x80 up breaks UTF-8).
_STATE_BYTES = st.sampled_from(b"0123456789/. \n") | st.integers(0, 255)
_FUZZ = settings(max_examples=150, database=None, derandomize=True, deadline=None)


@st.composite
def _mutated_state(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(_STATE_TEXTS)))
    for _ in range(draw(st.integers(0, 3))):
        # pick the header or the rest first, since small positions dominate
        body = data.find(b"\n") + 1
        pos = draw(st.integers(0, body) | st.integers(body, len(data)))
        edit = draw(st.sampled_from(("insert", "delete", "substitute")))
        if edit == "insert":
            data.insert(pos, draw(_STATE_BYTES))
        elif pos < len(data):
            if edit == "delete":
                del data[pos]
            else:
                data[pos] = draw(_STATE_BYTES)
    return bytes(data)


def _state_argv(draw, path: str) -> list[str]:
    command = draw(st.sampled_from(("evolve", "energy", "spectrum", "scatter")))
    argv = [command, "--input", path]
    if command != "spectrum":
        argv += ["--l", str(draw(st.integers(1, 4)))]
    if command in ("evolve", "scatter"):
        steps = draw(st.none() | st.integers(0, 3))
        if steps is not None:
            argv += ["--steps", str(steps)]
    if command == "evolve" and draw(st.booleans()):
        argv.append("--render")
    return argv


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@_FUZZ
@given(data=st.data())
def test_mutated_state_files(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "state.txt"
    path.write_bytes(data.draw(_mutated_state()))
    assert _exit_code(_state_argv(data.draw, str(path))) in (0, 1, 2)


_OPERAND = st.text(st.sampled_from("0123456789 /") | st.characters(), max_size=16)


@_FUZZ
@given(left=_OPERAND, right=_OPERAND, n=st.none() | st.integers(-1, 10))
def test_rmatrix_operands(left, right, n):
    argv = ["rmatrix", "--left", left, "--right", right]
    if n is not None:
        argv += ["--n", str(n)]
    assert _exit_code(argv) in (0, 1, 2)
