import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootsource import dataio
from rootsource.bench import BenchReport, BenchRow
from rootsource.dataio import (
    RawComment,
    ingest,
    read_config,
    read_events,
    read_params,
    read_raw_comments,
    read_rootprob,
    read_truth,
    tokenize,
    write_bench,
    write_eval,
    write_events,
    write_params,
    write_rootprob,
    write_trace,
    write_truth,
)
from rootsource.errors import ValidationError
from rootsource.metrics import EvalReport, evaluate_root_probabilities
from rootsource.model import EventSequence, ModelParams
from rootsource.rootprob import RootProbMatrix, root_probabilities
from rootsource.simulate import make_synthetic_config, simulate
from util import (random_instance, reference_read_events, reference_read_rootprob,
                  reference_read_truth, reference_write_events, reference_write_rootprob,
                  reference_write_truth)


@pytest.fixture(scope="module")
def sim():
    cfg = make_synthetic_config(T=30.0, seed=0, S=3, V=50)
    return simulate(cfg)


def test_events_round_trip(sim):
    events, _ = sim
    buf = io.StringIO()
    write_events(events, buf)
    buf.seek(0)
    back = read_events(buf)
    np.testing.assert_array_equal(back.times, events.times)
    np.testing.assert_array_equal(back.sources, events.sources)
    np.testing.assert_array_equal(back.tok_index, events.tok_index)
    np.testing.assert_array_equal(back.tok_count, events.tok_count)
    assert (back.T, back.S, back.V) == (events.T, events.S, events.V)


def test_events_file_uses_one_based_sources(sim):
    events, _ = sim
    buf = io.StringIO()
    write_events(events, buf)
    lines = buf.getvalue().splitlines()
    head = json.loads(lines[0])
    assert head["schema"] == "events-v1"
    first = json.loads(lines[1])
    assert first["s"] == events.sources[0] + 1
    assert set(first) == {"i", "t", "s", "x"}
    # an empty mark serializes as an empty object
    k = int(np.argmax(events.lengths == 0))
    if events.lengths[k] == 0:
        assert json.loads(lines[k + 1])["x"] == {}


def test_events_read_errors():
    with pytest.raises(ValidationError, match="header"):
        read_events(io.StringIO(""))
    with pytest.raises(ValidationError, match="schema"):
        read_events(io.StringIO('{"schema": "nope", "T": 1, "S": 1, "V": 0}\n'))
    head = '{"schema": "events-v1", "T": 5.0, "S": 2, "V": 3}\n'
    with pytest.raises(ValidationError, match="line 2"):
        read_events(io.StringIO(head + "not json\n"))
    with pytest.raises(ValidationError, match="line 3"):
        read_events(io.StringIO(
            head + '{"i": 1, "t": 1.0, "s": 1, "x": {}}\n{"i": 2, "t": 2.0}\n'))
    with pytest.raises(ValidationError, match="1-based"):
        read_events(io.StringIO(head + '{"i": 1, "t": 1.0, "s": 0, "x": {}}\n'))
    # a token key that is no integer, a count that is no number, an "x"
    # that is no object
    for x in ('{"a": 1}', '{"1": "two"}', '[1, 2]'):
        with pytest.raises(ValidationError, match="line 3: malformed event record"):
            read_events(io.StringIO(
                head + '{"i": 1, "t": 1.0, "s": 1, "x": {"0": 2}}\n'
                f'{{"i": 2, "t": 2.0, "s": 1, "x": {x}}}\n'))
    # a JSON boolean, which int() and float() would read as 1
    for record, what in (('"t": true, "s": 1, "x": {}', "field 't' is not a number: True"),
                         ('"t": 1.0, "s": true, "x": {}', "field 's' is not an integer: True"),
                         ('"t": 1.0, "s": 1, "x": {"0": true}',
                          "a count in field 'x' is not a number: True")):
        with pytest.raises(ValidationError,
                           match=rf"line 2: malformed event record \({re.escape(what)}\)"):
            read_events(io.StringIO(head + f'{{"i": 1, {record}}}\n'))
    # labels too large for an integer array
    for s, x in (("Infinity", "{}"), ("1e30", "{}"), (str(10 ** 20), "{}"),
                 ("1", '{"4294967296": 1}')):
        with pytest.raises(ValidationError, match="event record"):
            read_events(io.StringIO(head + f'{{"i": 1, "t": 1.0, "s": {s}, "x": {x}}}\n'))
    # a time that is no number, which every comparison passes, named by its
    # line also after blank lines
    for t, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf")):
        for gap, line in (("", 3), ("\n", 4), ("\n \n", 5)):
            records = [f'{{"i": {i}, "t": {v}, "s": 1, "x": {{}}}}\n'
                       for i, v in enumerate((1.0, t, 3.0, t), start=1)]
            with pytest.raises(ValidationError, match=rf"line {line}: malformed event record "
                                                      rf"\(field 't' is not finite: {shown}\)"):
                read_events(io.StringIO(head + records[0] + gap + "".join(records[1:])))
    # blank lines after the bad record do not move it
    with pytest.raises(ValidationError, match="line 3: .* not finite"):
        read_events(io.StringIO(head + '{"t": 1.0, "s": 1}\n{"t": NaN, "s": 1}\n\n\n'
                                       '{"t": 3.0, "s": 1}\n'))


def _same_events(got, want):
    """Bit for bit, dtypes included."""
    assert (got.T, got.S, got.V) == (want.T, want.S, want.V)
    assert type(got.S) is type(want.S) and type(got.V) is type(want.V)
    for name in ("times", "sources", "tok_indptr", "tok_index", "tok_count"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


_BLANK = st.sampled_from(["", " ", "\t", " \t  "])


@st.composite
def _event_files(draw):
    """The text of an events file as other writers may lay it out: one source
    or no vocabulary, empty or missing marks, integral times and labels, counts
    written as 2.0, keys in any order, unknown keys, whitespace around and
    inside records, blank lines, CRLF endings, no newline at the end."""
    S, V, T = draw(st.integers(1, 3)), draw(st.integers(0, 5)), 20.0
    times = sorted(draw(st.lists(st.floats(1e-3, T), unique=True, max_size=8)))
    lines = [json.dumps({"schema": "events-v1", "T": T, "S": S, "V": V})]
    lines += [draw(_BLANK) for _ in range(draw(st.integers(0, 2)))]
    for k, t in enumerate(times):
        tokens = draw(st.lists(st.integers(0, V - 1), unique=True, max_size=4)) if V else []
        x = {str(v): draw(st.sampled_from([1, 2, 12, 2.0, 3.0])) for v in tokens}
        s = draw(st.integers(1, S))
        fields = {"t": int(t) if t.is_integer() and draw(st.booleans()) else t,
                  "s": float(s) if draw(st.booleans()) else s}
        if x or draw(st.booleans()):
            fields["x"] = x
        if draw(st.booleans()):
            fields["i"] = k + 1
        if draw(st.booleans()):
            fields["note"] = draw(st.sampled_from(["true", [1, {"a": None}], False, "x y"]))
        order = draw(st.permutations(list(fields)))
        sep = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,\t", " : ")]))
        lines.append(draw(_BLANK) + json.dumps({key: fields[key] for key in order},
                                               separators=sep) + draw(_BLANK))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(_BLANK))
    lines += [draw(_BLANK) for _ in range(draw(st.integers(0, 2)))]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_event_files())
def test_events_reader_matches_the_record_by_record_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("events") / "events.jsonl"
    path.write_bytes(text.encode())
    with open(path) as fp:
        _same_events(read_events(path), reference_read_events(fp))
    _same_events(read_events(io.StringIO(text)), reference_read_events(io.StringIO(text)))


HEAD = '{"schema": "events-v1", "T": 5.0, "S": 2, "V": 3}\n'


@pytest.mark.parametrize("body", [
    '{"t": 1.0, "s": 1,\n "x": {}}\n',                       # a record over two lines
    '{"t": 1.0, "s": 1} {"t": 2.0, "s": 1}\n',               # two records on one line
    '{"t": 1.0, "s": 1}, \n',                                # text after a record
    '{"t": 1.0, "s": 1} x\n',
    '{"t": 1.0, "s": 1}\x0c\n',                             # whitespace, but not JSON's
    '\x0b{"t": 1.0, "s": 1}\n',
    # two valid records, were the lines joined into one JSON array
    '{"t": 1, "s": 1, "x": {}}, {"t": 2, "s": 1, "x": {}, "y": [{}\n{}]}\n',
])
def test_events_reader_refuses_what_is_not_one_record_a_line(body):
    text = HEAD + '{"t": 0.5, "s": 1}\n\n' + body
    with pytest.raises(ValidationError) as want:
        reference_read_events(io.StringIO(text))
    assert str(want.value).startswith("line 4: malformed event record")
    with pytest.raises(ValidationError, match="^line 4: malformed event record"):
        read_events(io.StringIO(text))


@pytest.mark.parametrize("record, message", [
    ('"s": 1, "x": {"1": 1, "01": 2}', "token indices not sorted/unique within an event"),
    ('"s": 1, "x": {"0": 1, "3": 1}', "token indices out of range"),
    ('"s": 3', "source labels out of range"),
    ('"s": 1, "x": {"0": 0}', "stored token counts must be positive"),
    ('"s": 1, "x": {"0": -2}', "stored token counts must be positive"),
    ('"s": 1, "x": {"0": 1.5}', "token counts must be finite integers"),
    ('"t": 6.0, "s": 1', "event timestamps must lie in (0, T]"),
    ('"t": -1.0, "s": 1', "event timestamps must lie in (0, T]"),
    ('"t": 0.5, "s": 1', "timestamps must be strictly increasing; tie or inversion at "
                         "events 1 and 2"),
    ('"t": 1.0, "s": 1', "timestamps must be strictly increasing; tie or inversion at "
                         "events 1 and 2"),
])
def test_events_record_faults_name_their_line(record, message):
    # faults that only EventSequence sees, in the second record (line 4)
    if '"t"' not in record:
        record = '"t": 2.0, ' + record
    text = HEAD + '{"t": 1.0, "s": 1, "x": {"0": 1}}\n\n' + f'{{{record}}}\n{{"t": 4.0, "s": 2}}\n'
    with pytest.raises(ValidationError, match=f"^{re.escape(f'line 4: {message}')}$") as err:
        read_events(io.StringIO(text))
    assert err.value.event == 1


def test_events_reader_names_the_first_fault_of_a_column():
    # the second record in fault is named, after blank lines and good records
    good = '{"t": 1.0, "s": 1, "x": {"0": 1}}\n'
    for bad, what in (('{"t": "2", "s": 1}', r"field 't' is not a number: '2'"),
                      ('{"t": 2.0, "s": "1"}', r"field 's' is not an integer: '1'"),
                      ('{"t": 2.0, "s": 1.5}', r"field 's' is not an integer: 1.5"),
                      ('{"t": 2.0, "s": 1, "x": {"1": "2"}}',
                       r"a count in field 'x' is not a number: '2'"),
                      ('{"t": 2.0, "s": 1, "x": {"1": NaN}}',
                       r"a count in field 'x' is not finite: nan"),
                      ('{"t": 2.0, "s": 1, "x": {"1": 1e999}}',
                       r"a count in field 'x' is not finite: inf"),
                      ('{"t": 2.0, "s": 1, "x": {"1": %d}}' % 10 ** 400,
                       "int too large to convert to float"),
                      ('{"t": 2.0, "s": 1, "x": {"x1": 1}}',
                       "invalid literal for int() with base 10: 'x1'")):
        text = HEAD + good + "\n \n" + bad + "\n" + bad + "\n"
        with pytest.raises(ValidationError,
                           match=rf"^line 5: malformed event record \({re.escape(what)}\)$"):
            read_events(io.StringIO(text))
    for bad in ('{"t": 2.0, "s": 100000000000000000000}',
                '{"t": 2.0, "s": 1, "x": {"0": 1, "4294967296": 1}}'):
        with pytest.raises(ValidationError, match="^line 5: event record label out of range"):
            read_events(io.StringIO(HEAD + good + "\n \n" + bad + "\n"))


@pytest.mark.parametrize("record", ['{"i": 1, "parent": Infinity, "root": 1}',
                                    '{"i": 1, "parent": 0, "root": 100000000000000000000}'])
def test_truth_record_label_overflow(record):
    with pytest.raises(ValidationError, match="truth record"):
        read_truth(io.StringIO('{"schema": "truth-v1"}\n' + record + "\n"))


@pytest.mark.parametrize("field, value", [("S", 2.7), ("V", 3.9)])
def test_events_header_fractional_count(field, value):
    # int() would read 2.7 sources as 2
    header = {"schema": "events-v1", "T": 5.0, "S": 2, "V": 3, field: value}
    with pytest.raises(ValidationError, match=f"line 1: header: malformed field '{field}' "
                                              rf"\(value is not an integer: {value}\)"):
        read_events(io.StringIO(json.dumps(header) + "\n"))


def test_events_fractional_source_label():
    head = '{"schema": "events-v1", "T": 5.0, "S": 2, "V": 3}\n'
    with pytest.raises(ValidationError, match=r"line 3: malformed event record "
                                              r"\(field 's' is not an integer: 1.9\)"):
        read_events(io.StringIO(head + '{"i": 1, "t": 1.0, "s": 1, "x": {}}\n'
                                       '{"i": 2, "t": 2.0, "s": 1.9, "x": {}}\n'))
    # integral values read as before, whatever their JSON type
    events = read_events(io.StringIO('{"schema": "events-v1", "T": 5.0, "S": 2.0, "V": 3.0}\n'
                                     '{"i": 1, "t": 1.0, "s": 2.0, "x": {"0": 1}}\n'))
    assert (events.S, events.V) == (2, 3) and type(events.S) is int
    assert events.sources.tolist() == [1]


@pytest.mark.parametrize("record", ['{"i": 1, "parent": 0.5, "root": 1}',
                                    '{"i": 1, "parent": 0, "root": 1.5}',
                                    '{"i": 1, "parent": false, "root": 1}',
                                    '{"i": 1, "parent": 0, "root": true}'])
def test_truth_fractional_label(record):
    with pytest.raises(ValidationError,
                       match="line 2: malformed truth record .* is not an integer"):
        read_truth(io.StringIO('{"schema": "truth-v1"}\n' + record + "\n"))


@pytest.mark.parametrize("field", ["T", "S", "V"])
def test_events_header_missing_field(field):
    header = {"schema": "events-v1", "T": 5.0, "S": 2, "V": 3}
    del header[field]
    with pytest.raises(ValidationError, match=f"line 1: header: missing field '{field}'"):
        read_events(io.StringIO(json.dumps(header) + "\n"))


@pytest.mark.parametrize("field, value", [("T", "abc"), ("S", "two"), ("V", None),
                                          ("S", float("inf")), ("T", True), ("S", True),
                                          ("V", False), ("T", float("nan")),
                                          ("T", float("inf"))])
def test_events_header_malformed_field(field, value):
    header = {"schema": "events-v1", "T": 5.0, "S": 2, "V": 3, field: value}
    with pytest.raises(ValidationError, match=f"line 1: header: malformed field '{field}'"):
        read_events(io.StringIO(json.dumps(header) + "\n"))


@pytest.mark.parametrize("header", ["[1, 2]", '"events-v1"', "3"])
def test_events_header_not_an_object(header):
    with pytest.raises(ValidationError, match="line 1: header must be a JSON object"):
        read_events(io.StringIO(header + "\n"))


def test_truth_header_not_an_object():
    with pytest.raises(ValidationError, match="line 1: header must be a JSON object"):
        read_truth(io.StringIO('["truth-v1"]\n{"i": 1, "parent": 0, "root": 1}\n'))


def test_truth_round_trip(sim):
    events, truth = sim
    buf = io.StringIO()
    write_truth(truth, buf)
    lines = buf.getvalue().splitlines()
    assert json.loads(lines[0]) == {"schema": "truth-v1"}
    rec = json.loads(lines[1])
    assert set(rec) == {"i", "parent", "root"}
    assert rec["root"] == truth.roots[0] + 1  # 1-based in files
    buf.seek(0)
    back = read_truth(buf)
    np.testing.assert_array_equal(back.parent, truth.branching.parent)
    np.testing.assert_array_equal(back.root_sources, truth.roots)


def test_params_round_trip():
    rng = np.random.default_rng(3)
    _, params = random_instance(rng)
    buf = io.StringIO()
    write_params(params, buf)
    buf.seek(0)
    back = read_params(buf)
    np.testing.assert_array_equal(back.rho, params.rho)
    np.testing.assert_array_equal(back.A, params.A)
    np.testing.assert_array_equal(back.theta, params.theta)
    assert back.gamma == params.gamma and back.nu == params.nu


def test_params_refuses_bad_documents():
    with pytest.raises(ValidationError, match="schema"):
        read_params(io.StringIO('{"schema": "params-v0"}'))
    with pytest.raises(ValidationError, match="malformed"):
        read_params(io.StringIO("{broken"))


@pytest.mark.parametrize("doc", ["[]", '"params-v1"', "null"])
def test_params_document_not_an_object(doc):
    with pytest.raises(ValidationError, match="params document must be a JSON object"):
        read_params(io.StringIO(doc))


@pytest.mark.parametrize("field", ["rho", "A", "theta", "gamma", "nu"])
def test_params_document_missing_field(field):
    doc = {"schema": "params-v1", "rho": [0.1], "A": [[0.2]], "theta": [[1.0]],
           "gamma": 0.3, "nu": 2.0}
    read_params(io.StringIO(json.dumps(doc)))  # complete, it loads
    del doc[field]
    with pytest.raises(ValidationError, match=f"params document: missing field '{field}'"):
        read_params(io.StringIO(json.dumps(doc)))


def test_params_document_malformed_fields():
    doc = {"schema": "params-v1", "rho": [0.1], "A": [[0.2]], "theta": [[1.0]],
           "gamma": 0.3, "nu": 2.0}
    for field, value in (("A", [[0.2], [0.1, 0.3]]), ("gamma", "high"), ("rho", {"a": 1}),
                         ("gamma", True), ("nu", True), ("rho", [True]),
                         ("theta", [[0.5, False]]), ("rho", [math.nan]), ("rho", [math.inf]),
                         ("A", [[math.nan]]), ("A", [[math.inf]]), ("theta", [[math.nan]]),
                         ("theta", [[math.inf]]), ("nu", math.nan), ("nu", math.inf)):
        with pytest.raises(ValidationError, match=f"malformed field '{field}'"):
            read_params(io.StringIO(json.dumps({**doc, field: value})))
    for shape in ([1.0], {"kind": "constant", "c": "two"}, {"kind": "constant", "c": True}):
        with pytest.raises(ValidationError, match="base_shape"):
            read_params(io.StringIO(json.dumps({**doc, "base_shape": shape})))


def _params_text(**fields):
    doc = {"rho": "[0.1]", "A": "[[0.2]]", "theta": "[[1.0]]", "gamma": "0.3", "nu": "10",
           **fields}
    return '{"schema": "params-v1", ' + ", ".join(f'"{k}": {v}' for k, v in doc.items()) + "}"


_TRUTH = '{"schema": "truth-v1"}\n{"i": 1, "parent": 0, "root": 1}\n'


# (reader, a file with %s for the value of one numeric field, a value that
# reads, the start of the error when each number in it is a JSON string);
# event records are checked in test_events_reader_names_the_first_fault_of_a_column
STRING_NUMBER_CASES = [
    (read_events, '{"schema": "events-v1", "T": %s, "S": 2, "V": 3}\n', "5.0",
     "line 1: header: malformed field 'T'"),
    (read_events, '{"schema": "events-v1", "T": 5.0, "S": %s, "V": 3}\n', "2",
     "line 1: header: malformed field 'S'"),
    (read_events, '{"schema": "events-v1", "T": 5.0, "S": 2, "V": %s}\n', "3",
     "line 1: header: malformed field 'V'"),
    (read_truth, _TRUTH + '{"i": 2, "parent": %s, "root": 1}\n', "0",
     "line 3: malformed truth record (field 'parent'"),
    (read_truth, _TRUTH + '{"i": 2, "parent": 1, "root": %s}\n', "1",
     "line 3: malformed truth record (field 'root'"),
    (read_raw_comments, '{"t": 1.0, "author": "a", "text": ""}\n'
     '{"t": %s, "author": "a", "text": ""}\n', "3.5",
     "line 2: malformed comment record (field 't'"),
    (read_raw_comments, '{"t": 1.0, "author": "a", "text": ""}\n'
     '{"t": 2.0, "author": "a", "x": {"hi": %s}}\n',
     "3", "line 2: malformed comment record (a count in field 'x'"),
    (read_params, _params_text(rho="%s"), "[0.1]", "params document: malformed field 'rho'"),
    (read_params, _params_text(A="%s"), "[[0.2]]", "params document: malformed field 'A'"),
    (read_params, _params_text(theta="%s"), "[[0.5, 0.5]]",
     "params document: malformed field 'theta'"),
    (read_params, _params_text(gamma="%s"), "0.3", "params document: malformed field 'gamma'"),
    (read_params, _params_text(nu="%s"), "10", "params document: malformed field 'nu'"),
    (read_params, _params_text(base_shape='{"kind": "constant", "c": %s}'), "2",
     "base_shape: malformed field 'c'"),
]


@pytest.mark.parametrize("read, text, value, match", STRING_NUMBER_CASES,
                         ids=[read.__name__ + ":" + re.findall(r"'(\w+)'", match)[-1]
                              for read, _, _, match in STRING_NUMBER_CASES])
def test_readers_refuse_numbers_written_as_strings(read, text, value, match):
    # every number in every file must be a JSON number, which a string is not
    # even when float() or int() would read it
    read(io.StringIO(text % value))
    quoted = json.dumps(json.loads(value, parse_int=str, parse_float=str))
    with pytest.raises(ValidationError, match=f"^{re.escape(match)}"):
        read(io.StringIO(text % quoted))


def test_params_v1_base_shape_folds_into_rho():
    # params-v1 files from older writers carry a constant base shape c; the
    # base rate was rho * c
    rng = np.random.default_rng(7)
    _, params = random_instance(rng)
    buf = io.StringIO()
    write_params(params, buf)
    doc = json.loads(buf.getvalue())
    assert "base_shape" not in doc

    def read_with(shape):
        return read_params(io.StringIO(json.dumps({**doc, "base_shape": shape})))

    back = read_with({"kind": "constant", "c": 1})
    for name in ("rho", "A", "theta"):
        got, want = getattr(back, name), getattr(params, name)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype
    assert back.gamma == params.gamma and back.nu == params.nu
    np.testing.assert_array_equal(read_with({"kind": "constant", "c": 2.5}).rho,
                                  params.rho * 2.5)
    for bad in ({"kind": "linear", "c": 1.0}, {"kind": "constant", "c": 0.0}):
        with pytest.raises(ValidationError):
            read_with(bad)


def test_rootprob_round_trip(sim):
    events, _ = sim
    params = make_synthetic_config(T=30.0, seed=0, S=3, V=50).params
    rpm = root_probabilities(events, params)
    buf = io.StringIO()
    write_rootprob(rpm, buf)
    text = buf.getvalue().splitlines()
    assert text[0] == "# rootprob-v1 mode=full"
    assert text[1] == "event_index,r_1,r_2,r_3,argmax_source"
    assert text[2].split(",")[0] == "1"
    assert text[2].split(",")[-1] == str(rpm.argmax_sources()[0] + 1)
    buf.seek(0)
    back = read_rootprob(buf)
    np.testing.assert_array_equal(back.r, rpm.r)  # repr round-trips exactly
    assert back.mode == "full"


def test_rootprob_read_errors():
    with pytest.raises(ValidationError, match="line 1"):
        read_rootprob(io.StringIO("event_index,r_1\n"))
    good = "# rootprob-v1 mode=full\nevent_index,r_1,r_2,argmax_source\n"
    with pytest.raises(ValidationError, match="line 3"):
        read_rootprob(io.StringIO(good + "1,0.5\n"))
    with pytest.raises(ValidationError, match="line 3"):
        read_rootprob(io.StringIO(good + "1,0.5,oops,1\n"))
    for row in ("1,nan,1.0,2\n", "1,0.5,inf,2\n"):
        with pytest.raises(ValidationError, match=r"root probabilities must lie in \[0, 1\]"):
            read_rootprob(io.StringIO(good + row))


def _laid_out(draw, lines):
    """lines with blank lines among them, CRLF or LF endings, and maybe no
    newline at the end."""
    out = []
    for line in lines:
        out.append(line)
        if draw(st.integers(0, 3)) == 0:
            out.append(draw(_BLANK))
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in out)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


@st.composite
def _rootprob_files(draw):
    S, n = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    values = st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 0.1, 0.7, 1 / 3, 1 - 2 ** -53])
    rows = []
    for k in range(n):
        r = np.array(draw(st.lists(values, min_size=S, max_size=S)))
        r = r / r.sum() if r.sum() > 0 else np.eye(S)[0]
        pad = draw(_BLANK)
        rows.append(f"{k + 1}," + ",".join(pad + repr(float(v)) for v in r)
                    + f",{int(np.argmax(r)) + 1}")
    head = ["# rootprob-v1 mode=" + draw(st.sampled_from(["full", "mark_only"])),
            "event_index," + ",".join(f"r_{s + 1}" for s in range(S)) + ",argmax_source"]
    return "\n".join(head) + "\n" + _laid_out(draw, rows)


@st.composite
def _truth_files(draw):
    n = draw(st.integers(0, 6))
    rows = [json.dumps({"i": k + 1, "parent": draw(st.integers(0, k)),
                        "root": draw(st.sampled_from([1, 2, 3.0]))}) for k in range(n)]
    return '{"schema": "truth-v1"}\n' + _laid_out(draw, rows)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(_rootprob_files(), _truth_files())
def test_rootprob_and_truth_readers_match_the_row_by_row_readers(tmp_path_factory, rp_text,
                                                                 truth_text):
    where = tmp_path_factory.mktemp("files")
    for text, read, reference, fields in (
            (rp_text, read_rootprob, reference_read_rootprob, ("r", "mode")),
            (truth_text, read_truth, reference_read_truth, ("parent", "root_sources"))):
        path = where / read.__name__
        path.write_bytes(text.encode())
        with open(path) as fp:
            pairs = [(read(path), reference(fp)),
                     (read(io.StringIO(text)), reference(io.StringIO(text)))]
        for got, want in pairs:
            for name in fields:
                a, b = getattr(got, name), getattr(want, name)
                if name == "mode":
                    assert a == b
                else:
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                    assert a.flags.c_contiguous


@pytest.mark.parametrize("rows, message", [
    ("1,0.5,0.5,1\n\n2,1_0,0.0,1\n", "line 5: malformed value"),   # float() would read it
    ("1,0.5,0.5,1\n2,0.5,0.5\n", "line 4: expected 4 columns"),
    ("1,0.5,0.5,1,7\n2,0.5,0.5,1,7\n", "line 3: expected 4 columns"),
    ("1,0.5,0.5,1\n \n2,0.5,0.5,x\n", "line 5: malformed value"),  # argmax_source too
])
def test_rootprob_faults_name_their_line(rows, message):
    text = "# rootprob-v1 mode=full\nevent_index,r_1,r_2,argmax_source\n" + rows
    with pytest.raises(ValidationError, match=f"^{message}"):
        read_rootprob(io.StringIO(text))


def test_eval_write(sim):
    events, truth = sim
    params = make_synthetic_config(T=30.0, seed=0, S=3, V=50).params
    rep = evaluate_root_probabilities(root_probabilities(events, params),
                                      truth.roots)
    buf = io.StringIO()
    write_eval(rep, buf)
    doc = json.loads(buf.getvalue())
    assert doc["schema"] == "eval-v1"
    assert doc["n_events"] == len(events)
    assert set(doc["top_k"]) == {"1", "2", "3"}
    assert len(doc["power"]) == 3


def test_read_config(tmp_path):
    p = tmp_path / "fit.cfg"
    p.write_text("# comment line\nnu = 10.0\ntol=1e-5   # trailing\n\nseed=3\n")
    assert read_config(p) == {"nu": "10.0", "tol": "1e-5", "seed": "3"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nu 10\n")
    with pytest.raises(ValidationError, match="key=value"):
        read_config(bad)


def test_tokenize():
    assert tokenize("Hello, world! HELLO x2") == ["hello", "world", "hello", "x2"]
    assert tokenize("...") == []


def test_read_raw_comments():
    buf = io.StringIO(
        '{"t": 1.0, "author": "a", "text": "hi there"}\n'
        '{"t": 2.0, "author": "b", "x": {"hi": 2}}\n')
    raws = read_raw_comments(buf)
    assert raws[0].text == "hi there" and raws[0].counts is None
    assert raws[1].counts == {"hi": 2}
    with pytest.raises(ValidationError, match="line 1"):
        read_raw_comments(io.StringIO("nope\n"))
    with pytest.raises(ValidationError, match="line 2"):
        read_raw_comments(io.StringIO('{"t": 1.0, "author": "a", "text": ""}\n{"t": 2.0}\n'))
    with pytest.raises(ValidationError, match="line 1: .*field 't' is not a number"):
        read_raw_comments(io.StringIO('{"t": true, "author": "a"}\n'))
    for x in ('{"hi": 2.7}', '{"hi": true}', '["hi"]'):  # ingest would read 2, 1, or fail
        with pytest.raises(ValidationError, match="^line 1: malformed comment record"):
            read_raw_comments(io.StringIO('{"t": 1.0, "author": "a", "x": %s}\n' % x))
    with pytest.raises(ValidationError, match="nonempty"):
        read_raw_comments(io.StringIO('{"t": 1.0, "author": ""}\n'))
    # RawComment checks every field; the reader adds the line
    for rec, field in [('{"t": 1.0, "author": null}', "field 'author'"),
                       ('{"t": 1.0, "author": 7}', "field 'author'"),
                       ('{"t": 1.0, "author": "a", "text": 5}', "field 'text'"),
                       ('{"t": NaN, "author": "a"}', "field 't' is not finite"),
                       ('{"t": 1%s, "author": "a"}' % ("0" * 400), "field 't' is not finite"),
                       ('{"t": 1.0, "author": "a", "x": {"hi": "3"}}', "field 'x'")]:
        with pytest.raises(ValidationError, match=r"^line 2: malformed comment record \(.*"
                           + re.escape(field)):
            read_raw_comments(io.StringIO('{"t": 1.0, "author": "a", "text": ""}\n' + rec + "\n"))
    # exactly one of "text" and "x": a misspelled field read as an empty
    # mark, and a text beside counts was dropped; unknown fields are ignored
    for rec, given in [('{"t": 2.0, "author": "a", "txt": "hello there"}', "not neither"),
                       ('{"t": 2.0, "author": "a", "text": "hello", "x": {"b": 1}}', "not both")]:
        with pytest.raises(ValidationError, match=r"^line 2: malformed comment record \(a "
                           r"comment carries exactly one of fields 'text' and 'x' \(counts\), "
                           + given):
            read_raw_comments(io.StringIO('{"t": 1.0, "author": "a", "text": ""}\n' + rec + "\n"))
    raws = read_raw_comments(io.StringIO('{"t": 1.0, "author": "a", "text": "", "id": 7}\n'))
    assert raws[0].text == "" and raws[0].counts is None


def test_raw_comment_checks_its_fields():
    # one rule for comments from a file and from Python: ingest read an
    # author None as "None", a count 2.7 as 2 and "3" as 3, took a text 5
    # to a bare AttributeError and a NaN time to an error about T
    for kwargs, field in [(dict(author=None), "field 'author'"),
                          (dict(author=7), "field 'author'"),
                          (dict(author=""), "field 'author'"),
                          (dict(text=5), "field 'text'"),
                          (dict(t=math.nan), "field 't' is not finite"),
                          (dict(t=-math.inf), "field 't' is not finite"),
                          (dict(t=10**400), "field 't' is not finite"),
                          (dict(t=True), "field 't' is not a number"),
                          (dict(t="3"), "field 't' is not a number"),
                          (dict(counts={"hi": 2.7}), "a count in field 'x'"),
                          (dict(counts={"hi": "3"}), "a count in field 'x'"),
                          (dict(counts={"hi": True}), "a count in field 'x'"),
                          (dict(counts=["hi"]), "field 'x'"),
                          (dict(), "exactly one of fields 'text' and 'x' (counts), not neither"),
                          (dict(text="hi", counts={"hi": 1}), "exactly one of fields 'text' "
                                                              "and 'x' (counts), not both"),
                          # a field's own fault comes before the exactly-one rule, here
                          # and in the cases above that have neither field
                          (dict(text=5, counts={"hi": 1}), "field 'text'")]:
        with pytest.raises(ValidationError, match=re.escape(field)):
            RawComment(**{"t": 1.0, "author": "a", **kwargs})
    # numpy scalars and integral floats read as numbers and counts
    raws = [RawComment(t=np.float32(0.5), author="a", counts={"hi": 2.0}),
            RawComment(t=np.int64(1), author="a", counts={"hi": 3}, text=None)]
    assert [r.t for r in raws] == [0.5, 1.0] and type(raws[1].t) is float
    assert raws[0].counts == {"hi": 2} and type(raws[0].counts["hi"]) is int
    events, _, _ = ingest(raws, min_count=1, min_author_count=1)
    np.testing.assert_array_equal(events.tok_count, [2, 3])


def raw_stream():
    # authors: a posts 3 times, b posts 2, c posts 1
    return [
        RawComment(t=10.0, author="b", text="alpha beta alpha"),
        RawComment(t=11.0, author="a", text="beta gamma"),
        RawComment(t=12.0, author="a", text="alpha rare"),
        RawComment(t=13.0, author="c", text="alpha beta"),
        RawComment(t=14.0, author="a", text="beta beta"),
        RawComment(t=15.0, author="b", text="gamma"),
    ]


def test_ingest_filters_authors_and_tokens():
    events, vocab, source_map = ingest(raw_stream(), min_count=2,
                                       min_author_count=2)
    # c is dropped; sources are dense over sorted surviving authors
    assert source_map == {"a": 0, "b": 1}
    assert len(events) == 5
    # counts after author filtering: alpha 3, beta 5, gamma 2, rare 1
    assert set(vocab.token_to_index) == {"alpha", "beta", "gamma"}
    assert vocab.index_of("rare") is None
    assert events.S == 2 and events.V == 3
    # times shifted to a tiny positive start, horizon at the last comment
    assert events.times[0] == pytest.approx(1e-9)
    assert events.T == events.times[-1]

    no_beta, vocab2, _ = ingest(raw_stream(), min_count=2, min_author_count=2,
                                stop_words={"beta"})
    assert set(vocab2.token_to_index) == {"alpha", "gamma"}
    assert no_beta.lengths.sum() < events.lengths.sum()


def test_ingest_pretokenized_and_horizon():
    raws = [RawComment(t=float(k), author="a", counts={"tok": 1 + k})
            for k in range(4)]
    events, vocab, _ = ingest(raws, min_count=1, min_author_count=1, T=99.0)
    assert events.T == 99.0
    np.testing.assert_array_equal(events.tok_count, [1, 2, 3, 4])
    assert vocab.token_to_index == {"tok": 0}
    with pytest.raises(ValidationError, match="cover"):
        ingest(raws, min_count=1, min_author_count=1, T=0.5)


def test_ingest_rejects_ties_unless_jittered():
    raws = [RawComment(t=5.0, author="a", text="x"),
            RawComment(t=5.0, author="a", text="y"),
            RawComment(t=6.0, author="a", text="z")]
    with pytest.raises(ValidationError, match="comments 1 and 2"):
        ingest(raws, min_count=1, min_author_count=1)
    events, _, _ = ingest(raws, min_count=1, min_author_count=1, jitter=1e-6)
    assert len(events) == 3
    assert np.all(np.diff(events.times) > 0)
    with pytest.raises(ValidationError):
        ingest(raws, min_count=1, min_author_count=1, jitter=-1.0)


def test_ingest_empty_inputs():
    with pytest.raises(ValidationError, match="empty"):
        ingest([])
    with pytest.raises(ValidationError, match="author filtering"):
        ingest([RawComment(t=1.0, author="a", text="x")], min_author_count=5)


@pytest.mark.parametrize("block", [None, 3])
def test_writers_match_record_by_record_writers(sim, monkeypatch, block):
    if block is not None:  # rows formatted a few at a time
        monkeypatch.setattr(dataio, "WRITE_BLOCK", block)
    events, truth = sim
    # times and probabilities whose repr takes an exponent, an empty mark,
    # and a count beyond a single digit
    odd = EventSequence([1e-7, 0.5, 2.0, 123456.789], [0, 1, 0, 1],
                        [0, 2, 2, 3, 5], [0, 4, 1, 0, 7], [1.0, 12.0, 3.0, 1.0, 250.0],
                        T=2e5, S=2, V=8)
    r = np.array([[1.0, 0.0, 0.0], [5e-324, 1 - 5e-324, 0.0], [1e-300, 0.5, 0.5],
                  [0.1, 0.2, 0.7]])
    cases = [
        (write_events, reference_write_events, events),
        (write_events, reference_write_events, odd),
        (write_events, reference_write_events, EventSequence([], [], [0], [], [], 1.0, 2, 3)),
        (write_truth, reference_write_truth, truth),
        (write_rootprob, reference_write_rootprob, root_probabilities(
            events, make_synthetic_config(T=30.0, seed=0, S=3, V=50).params)),
        (write_rootprob, reference_write_rootprob, RootProbMatrix(r, "full")),
        (write_rootprob, reference_write_rootprob,
         RootProbMatrix(np.empty((0, 2)), "temporal_only")),
    ]
    for write, reference, obj in cases:
        got, want = io.StringIO(), io.StringIO()
        write(obj, got)
        reference(obj, want)
        assert got.getvalue() == want.getvalue(), write.__name__


def test_writers_keep_their_bytes():
    # the exact text of the JSON documents and of a fit's trace
    params = ModelParams(rho=[0.1, 2.5e-07], A=[[0.2, 0.0], [0.1, 0.3]],
                         theta=[[0.5, 0.5], [1.0, 0.0]], gamma=0.3, nu=10.0)
    report = EvalReport(accuracy=0.75, log_prob=-1.5, top_k={1: 0.75, 2: 1.0},
                        power=np.array([1.25, 2.75]), n_events=4, rse_A=0.125,
                        rse_theta=np.array([0.5, 1e-20]))
    row = BenchRow(target=60, n=58, simulate_seconds=0.5, build_seconds=0.25,
                   sweep_seconds=0.125, rootprob_seconds=1e-05, pairs=100, triples=7,
                   e_step_seconds=0.0625, rho_A_seconds=0.03125, theta_gamma_seconds=0.03125,
                   objective_seconds=0.01, threads_seconds=0.002, structure_mb=0.5,
                   peak_rss_mb=None)
    cases = [
        (write_params, params,
         '{"schema": "params-v1", "rho": [0.1, 2.5e-07], "A": [[0.2, 0.0], [0.1, 0.3]], '
         '"theta": [[0.5, 0.5], [1.0, 0.0]], "gamma": 0.3, "nu": 10.0}\n'),
        (write_eval, report,
         '{\n  "schema": "eval-v1",\n  "n_events": 4,\n  "accuracy": 0.75,\n'
         '  "log_prob": -1.5,\n  "top_k": {\n    "1": 0.75,\n    "2": 1.0\n  },\n'
         '  "power": [\n    1.25,\n    2.75\n  ],\n  "rse_A": 0.125,\n'
         '  "rse_theta": [\n    0.5,\n    1e-20\n  ]\n}\n'),
        (write_trace, np.array([-3.5, -1.25, -1.0000000000000002]),
         "iteration,elbo\n1,-3.5\n2,-1.25\n3,-1.0000000000000002\n"),
        (write_trace, np.empty(0), "iteration,elbo\n"),
    ]
    for window, exact in ((None, "true"), (20.0, "false")):
        cases.append((write_bench, BenchReport(import_seconds=0.3, rows=[row], window=window,
                                               sweeps=2),
                      f'{{\n  "schema": "bench-v8",\n  "exact": {exact},\n  "sweeps": 2,\n'
                      '  "import_seconds": 0.3,\n  "rows": [\n    {\n'
                      + "".join(f'      "{k}": {v},\n' for k, v in (
                          ("target", 60), ("n", 58), ("simulate_seconds", 0.5),
                          ("build_seconds", 0.25), ("sweep_seconds", 0.125),
                          ("rootprob_seconds", "1e-05"), ("pairs", 100), ("triples", 7),
                          ("e_step_seconds", 0.0625), ("rho_A_seconds", 0.03125),
                          ("theta_gamma_seconds", 0.03125), ("objective_seconds", 0.01),
                          ("threads_seconds", 0.002), ("structure_mb", 0.5)))
                      + '      "peak_rss_mb": null\n    }\n  ]\n}\n'))
    for write, obj, want in cases:
        buf = io.StringIO()
        write(obj, buf)
        assert buf.getvalue() == want, write.__name__


@pytest.fixture
def opened(monkeypatch):
    """Every file that dataio opens by path, in order."""
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(dataio, "open", recording_open, raising=False)
    return handles


# (a file that reads, a file whose third line or field is malformed)
READ_CASES = {
    read_events: ('{"schema": "events-v1", "T": 5.0, "S": 2, "V": 3}\n'
                  '{"i": 1, "t": 1.0, "s": 1, "x": {}}\n',
                  '{"schema": "events-v1", "T": 5.0, "S": 2, "V": 3}\n'
                  '{"i": 1, "t": 1.0, "s": 1, "x": {}}\n{"i": 2, "t": 2.0}\n'),
    read_truth: ('{"schema": "truth-v1"}\n{"i": 1, "parent": 0, "root": 1}\n',
                 '{"schema": "truth-v1"}\n{"i": 1, "parent": 0, "root": 1}\n{"i": 2}\n'),
    read_params: ('{"schema": "params-v1", "rho": [0.1], "A": [[0.2]], "theta": [[1.0]], '
                  '"gamma": 0.3, "nu": 2.0}',
                  '{"schema": "params-v1", "rho": [0.1], "A": [[0.2]], "theta": [[1.0]], '
                  '"gamma": 0.3, "nu": "x"}'),
    read_rootprob: ('# rootprob-v1 mode=full\nevent_index,r_1,argmax_source\n1,1.0,1\n',
                    '# rootprob-v1 mode=full\nevent_index,r_1,argmax_source\n1,1.0,1\n2,x,1\n'),
    read_raw_comments: ('{"t": 1.0, "author": "a", "text": ""}\n',
                        '{"t": 1.0, "author": "a", "text": ""}\n{"t": 2}\n'),
}


@pytest.mark.parametrize("read", list(READ_CASES), ids=lambda read: read.__name__)
def test_readers_close_only_what_they_open(read, opened, tmp_path):
    good, bad = READ_CASES[read]
    for text in (good, bad):
        path = tmp_path / "file"
        path.write_text(text)
        given = io.StringIO(text)
        if text is good:
            read(path)
            read(given)
        else:
            with pytest.raises(ValidationError):
                read(path)
            with pytest.raises(ValidationError):
                read(given)
        assert opened[-1].name == str(path) and opened[-1].closed
        assert not given.closed
    assert len(opened) == 2


def test_writers_close_only_what_they_open(sim, opened, tmp_path, monkeypatch):
    events, truth = sim
    params = make_synthetic_config(T=30.0, seed=0, S=3, V=50).params
    rpm = root_probabilities(events, params)
    cases = [(write_events, events), (write_truth, truth), (write_params, params),
             (write_rootprob, rpm), (write_eval, evaluate_root_probabilities(rpm, truth.roots)),
             (write_trace, np.array([-2.0, -1.5])),
             (write_bench, BenchReport(import_seconds=0.3, window=20.0, sweeps=1))]
    for write, obj in cases:
        given = io.StringIO()
        write(obj, given)
        assert not given.closed and given.getvalue()
        path = tmp_path / write.__name__
        write(obj, path)
        assert opened[-1].name == str(path) and opened[-1].closed
        assert path.read_text() == given.getvalue()
    assert len(opened) == len(cases)

    # a file written in blocks is closed when a block fails partway
    monkeypatch.setattr(dataio, "WRITE_BLOCK", 1)
    with pytest.raises(ZeroDivisionError):
        dataio._write_lines(tmp_path / "partway", "head\n", "{}\n", 2,
                            lambda a, b: ([1 / (1 - a)],))
    assert opened[-1].closed
    assert (tmp_path / "partway").read_text() == "head\n1.0\n"
