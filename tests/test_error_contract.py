"""Property tests of the CLI's error contract on hostile inputs.

Every input ends in exit 0, 3 (data error) or 4 (numeric error). A failure
prints exactly one ``error:`` line, and no input raises past ``run`` or
emits a RuntimeWarning. Two strategies build the inputs: JSON documents
with the documented keys holding hostile values, fed to ``check`` and
``ik --pose``, and session CSVs with edited rows, fed to ``check`` and
``stats --data``.
"""

import contextlib
import io
import json
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pytest

from wristkin import SyntheticConfig, reference_surface, save_session, synthesize_session
from wristkin.cli import run

# derandomized, so every run draws the same examples
CONTRACT = settings(max_examples=100, deadline=None, derandomize=True)

NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e200, -1e200, 1.7976931348623157e308, 5e-324, 0.0, -0.0]),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.booleans(),
)
SCALARS = st.one_of(NUMBERS, st.none(), st.text(max_size=4))
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)

# one valid document of each JSON kind that check knows; "pose" also goes
# to ik
VALID = {
    "surface": {"numerator": [20.0, 0, 0, 0, 0, 0], "denominator": [0.0] * 5,
                "angle_unit": "rad"},
    "fit report": {"sse": 1.5, "rmse": 0.5, "r": 0.9, "r_squared": 0.81, "n": 6},
    "validation report": {"n_subjects": 2, "n_total": 12, "pooled_mean_mm": 0.1,
                          "pooled_sd_mm": 0.4},
    "session metadata": {"subject_id": "s", "a4_mm": 100.0, "p_lorg_mm": [0.0, 0.0, 0.0],
                         "handedness": "right", "protocol": {"cycles": 2, "duration_s": 6.0}},
    "manifest": {"command": "fk", "version": "0.1.0", "parameters": {}, "inputs": [],
                 "outputs": ["pose.json"]},
    "stats": {"pooled": {"n": 12, "slope_mm_per_rad": -20.0, "intercept_mm": 18.0,
                         "spearman": -0.9},
              "per_subject": [{"subject_id": "s", "n": 12, "slope_mm_per_rad": -20.0,
                               "intercept_mm": 18.0, "spearman": 0.5}]},
    "pose": {"n": [1, 0, 0], "o": [0, 1, 0], "a": [0, 0, 1], "p": [0, 0, 100]},
    "joint state": {"angle_unit": "deg", "theta3": 7.0, "beta3": 97.0, "theta4": -9.0,
                    "beta4": -9.0, "d2_mm": 12.5},
}


def _hostile(value):
    """A value of the same shape as ``value`` with hostile numbers, or any
    hostile JSON value."""
    if isinstance(value, list):
        return st.one_of(st.tuples(*map(_hostile, value)).map(list), VALUES)
    if isinstance(value, dict):
        return st.one_of(st.fixed_dictionaries({k: _hostile(v) for k, v in value.items()}),
                         VALUES)
    return st.one_of(st.just(value), NUMBERS, VALUES)


@st.composite
def json_documents(draw):
    """A valid document with one to three of its keys made hostile, and
    maybe a key dropped."""
    doc = dict(VALID[draw(st.sampled_from(sorted(VALID)))])
    for key in draw(st.lists(st.sampled_from(sorted(doc)), min_size=1, max_size=3,
                             unique=True)):
        doc[key] = draw(_hostile(doc[key]))
    if draw(st.booleans()):
        doc.pop(draw(st.sampled_from(sorted(doc))))
    return doc


# a valid 6-sample session, one CSV line per sample
_SESSION = synthesize_session(
    SyntheticConfig(ground_truth=reference_surface(), n_subjects=1,
                    duration_s=0.1, noise_sigma_mm=0.5),
    0,
)
FIELDS = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "1e200", "-1e200", "1e308", "-1e308",
                     "1e400", "-1e400", "1e-320", "0", "-0", "", " ", "x", "1,2"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)


@st.composite
def session_lines(draw, rows):
    """The data lines of a valid session, after one to three edits: a
    field replaced, a field dropped or added, a time moved back, a row
    deleted or repeated."""
    header, *rows = rows
    rows = list(rows)
    for _ in range(draw(st.integers(1, 3))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        fields = rows[i].split(",")
        edit = draw(st.sampled_from(["field", "cosine", "width", "time", "delete", "repeat"]))
        if edit in ("field", "cosine"):
            j = draw(st.integers(4, 12) if edit == "cosine" else st.integers(0, len(fields) - 1))
            fields[j] = draw(FIELDS)
        elif edit == "width":
            if draw(st.booleans()):
                fields.pop(draw(st.integers(0, len(fields) - 1)))
            else:
                fields.append(draw(FIELDS))
        elif edit == "time":
            fields[0] = repr(float(fields[0]) - draw(st.floats(0.0, 1.0)))
        if edit == "delete":
            del rows[i]
        else:
            rows[i] = ",".join(fields)
            if edit == "repeat":
                rows.insert(i, rows[i])
    return [header, *rows]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@pytest.fixture(scope="module")
def session_pair(workdir):
    """Text of a valid session's data and metadata files."""
    data, meta = workdir / "valid.csv", workdir / "valid.meta.json"
    save_session(_SESSION, data, meta)
    return data.read_text().splitlines(), meta.read_text()


def assert_contract(argv) -> None:
    """Run argv; its exit code and stderr keep the contract, with no warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = run(argv)
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 3, 4), (code, err.getvalue())
    lines = err.getvalue().splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    else:
        assert not lines, lines


class TestErrorContract:
    @CONTRACT
    @given(doc=json_documents())
    # a huge finite direction cosine overflows the pose's Gram matrix
    @example(doc={**VALID["pose"], "n": [1e200, 0, 0]})
    @example(doc={**VALID["pose"], "n": [-1e200, 0, 0]})
    def test_json_documents(self, workdir, doc):
        path = workdir / "doc.json"
        path.write_text(json.dumps(doc))
        assert_contract(["check", str(path)])
        assert_contract(["ik", "--pose", str(path), "--a4", "100"])

    @CONTRACT
    @given(data=st.data())
    def test_session_rows(self, workdir, session_pair, data):
        lines, meta = session_pair
        cohort = workdir / "cohort"
        cohort.mkdir(exist_ok=True)
        (cohort / "s.csv").write_text("\n".join(data.draw(session_lines(lines))) + "\n")
        (cohort / "s.meta.json").write_text(meta)
        assert_contract(["check", str(cohort / "s.csv")])
        assert_contract(["stats", "--data", str(cohort), "--out", str(workdir / "stats")])
