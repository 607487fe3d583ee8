"""Serialization formats, flat config files, and raw-comment ingestion.

File conventions: event streams and truth sidecars are JSONL with a schema
header line; model parameters, evaluation and bench reports are JSON
documents; root-probability matrices are CSV with a schema comment line, and
a fit's trace is CSV.  All floats are written with full repr precision so
round-trips are bit-exact.  Every reader and writer takes a path, which it
closes also on an error, or an open file, which it leaves open.  Malformed
input, JSON's NaN and Infinity included, raises ValidationError, and so does
a number written as a JSON string, in any field of any file.

The readers work a column at a time.  The JSONL readers decode each line
once, as one JSON value (`_records`); `read_events` only gathers each
record's fields into lists, converting each distinct token key once, then
checks types and converts every column in bulk, and `read_rootprob` parses
all rows in one numpy call.  An error names the line of the first record at
fault in the column that failed, also for the faults that only
EventSequence finds (it reports the event, which the reader maps to a line).

Source labels are 1-based in every file format ("s", "root", the r_1..r_S
CSV columns, argmax_source) and 0-based in memory; token indices are 0-based
everywhere.  Parent references use 0 as the immigrant sentinel with 1-based
event indices, matching the in-memory convention.
"""

from __future__ import annotations

import contextlib
import json
import math
import numbers
import re
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .model import EventSequence, ModelParams
from .rootprob import RootProbMatrix
from .simulate import GroundTruth

__all__ = [
    "write_events", "read_events",
    "write_truth", "read_truth", "TruthInfo",
    "write_params", "read_params",
    "write_rootprob", "read_rootprob",
    "write_eval", "write_trace", "write_bench", "read_config",
    "RawComment", "Vocabulary", "tokenize", "ingest", "read_raw_comments",
]

EVENTS_SCHEMA = "events-v1"
TRUTH_SCHEMA = "truth-v1"
PARAMS_SCHEMA = "params-v1"
ROOTPROB_SCHEMA = "rootprob-v1"
EVAL_SCHEMA = "eval-v1"
BENCH_SCHEMA = "bench-v8"


def _opened(path_or_file, mode: str):
    """A context for a path, opened and closed on any exit, or for a file, left open."""
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return contextlib.nullcontext(path_or_file)
    return open(path_or_file, mode)


def _object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _field(doc: dict, key: str, convert, what: str):
    """convert(doc[key]); a missing or unconvertible field is a ValidationError."""
    try:
        return convert(doc[key])
    except KeyError:
        raise ValidationError(f"{what}: missing field {key!r}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"{what}: malformed field {key!r} ({err})") from err


def _integer(value, what: str = "value") -> int:
    """int(value), refusing any value that is not a JSON number, such as a
    string or a boolean, which int() would read, and a float with a
    fraction, which int() would drop."""
    if type(value) not in (int, float) or type(value) is float and not value.is_integer():
        raise ValueError(f"{what} is not an integer: {value!r}")
    return int(value)


def _real(value, what: str = "value") -> float:
    """float(value), refusing any value that is not a JSON number, such as a
    string or a boolean, which float() would read, and JSON's NaN and
    Infinity."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} is not a number: {value!r}")
    if not math.isfinite(value := float(value)):
        raise ValueError(f"{what} is not finite: {value!r}")
    return value


def _reals(value) -> np.ndarray:
    """A float64 array of nested lists, refusing an entry that is not a JSON
    number (as `_real`), NaN or infinite."""
    def numbers(v):
        return all(map(numbers, v)) if type(v) is list else type(v) in (int, float)

    if not numbers(value):
        raise ValueError("an entry is not a number")
    array = np.asarray(value, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError("an entry is not finite")
    return array


class _Ints(dict):
    """int(key) for each key looked up, computed once per distinct key."""

    def __missing__(self, key):
        self[key] = value = int(key)
        return value


def _floats(values: list):
    """values as a float64 array when each is a finite JSON number, else None."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        array = np.fromiter(values, np.float64, len(values))
    except OverflowError:  # an integer beyond the float range
        return None
    return array if np.isfinite(array).all() else None


def _document(text: str, schema: str, what: str) -> dict:
    """The JSON object in text, tagged with schema; what names it in errors."""
    if not text.strip():
        raise ValidationError(f"{what} is missing: the file is empty")
    try:
        doc = _object(json.loads(text), what)
    except json.JSONDecodeError as err:
        raise ValidationError(f"{what}: malformed JSON ({err})") from err
    if doc.get("schema") != schema:
        raise ValidationError(f"schema mismatch: expected {schema}, got {doc.get('schema')!r}")
    return doc


def _records(fp, what: str, start: int = 2):
    """(line number, value) for each non-blank line of a JSONL file, whose
    next line is line start (2, after a header).

    Each line holds exactly one JSON value, as json.loads reads it: JSON
    whitespace may surround it, and nothing else.  what names the records in
    errors.
    """
    decode = json.JSONDecoder().raw_decode
    for lineno, line in enumerate(fp, start=start):
        if line.isspace():
            continue
        text = line.strip(" \t\n\r")  # JSON's whitespace
        try:
            value, end = decode(text)
            if end < len(text):
                raise json.JSONDecodeError("Extra data", text, end)
        except json.JSONDecodeError as err:
            raise ValidationError(f"line {lineno}: malformed {what} record ({err})") from err
        yield lineno, value


def _write_json(doc: dict, path_or_file, indent=None) -> None:
    with _opened(path_or_file, "w") as fp:
        json.dump(doc, fp, indent=indent)
        fp.write("\n")


# Rows formatted at a time, so that no file's whole text is held in memory.
WRITE_BLOCK = 1 << 14


def _write_lines(path_or_file, head: str, line: str, n: int, block) -> None:
    """Write head, then line.format(*row) for rows 0..n-1.

    block(a, b) returns rows a..b-1 as columns: lists from tolist(), or
    ranges.  A writer's template spells out what json.dumps or repr would
    write for one record, so no per-record object is built and the bytes
    match a record-by-record writer exactly.
    """
    with _opened(path_or_file, "w") as fp:
        fp.write(head)
        for a in range(0, n, WRITE_BLOCK):
            fp.writelines(map(line.format, *block(a, min(a + WRITE_BLOCK, n))))


# ---------------------------------------------------------------- events ---

def write_events(events: EventSequence, path_or_file) -> None:
    """JSONL: header {"schema","T","S","V"}, then {"i","t","s","x"} per event."""
    V, indptr = max(events.V, 1), events.tok_indptr
    key = events.tok_count.astype(np.int64) * V + events.tok_index

    def block(a, b):
        # the text of each distinct (token, count) entry, written once and gathered
        distinct, at = np.unique(key[indptr[a]:indptr[b]], return_inverse=True)
        text = [f'"{v}": {c}' for v, c in zip((distinct % V).tolist(),
                                              (distinct // V).tolist())]
        entries = list(map(text.__getitem__, at.tolist()))
        bounds = (indptr[a:b + 1] - indptr[a]).tolist()
        marks = [", ".join(entries[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
        return (range(a + 1, b + 1), events.times[a:b].tolist(),
                (events.sources[a:b] + 1).tolist(), marks)

    head = json.dumps({"schema": EVENTS_SCHEMA, "T": events.T, "S": events.S,
                       "V": events.V}) + "\n"
    _write_lines(path_or_file, head, '{{"i": {}, "t": {!r}, "s": {}, "x": {{{}}}}}\n',
                 len(events), block)


def read_events(path_or_file) -> EventSequence:
    """An events-v1 file; an error names the line of the first record at fault."""
    with _opened(path_or_file, "r") as fp:
        header = _document(fp.readline(), EVENTS_SCHEMA, "line 1: header")
        T, S, V = (_field(header, key, kind, "line 1: header")
                   for key, kind in (("T", _real), ("S", _integer), ("V", _integer)))
        # One pass over the records gathers their columns, converting each
        # distinct token key once; the checks and other conversions below run
        # a column at a time.
        lines, t, s, tokens, counts, sizes = [], [], [], [], [], []
        token = _Ints().__getitem__
        for lineno, rec in _records(fp, "event"):
            try:
                t.append(rec["t"])
                s.append(rec["s"])
                x = rec.get("x", {})
                tokens.extend(map(token, x))
                counts.extend(x.values())
            except (KeyError, TypeError, ValueError, AttributeError) as err:
                raise ValidationError(f"line {lineno}: malformed event record ({err})") from err
            sizes.append(len(x))
            lines.append(lineno)
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])

    def fault(values, check, entries=False, message="malformed event record"):
        """The error for the first of values (one per record, or per mark entry)
        that check refuses, naming that record's line."""
        for k, value in enumerate(values):
            try:
                check(value)
            except (TypeError, ValueError, OverflowError) as err:
                if entries:
                    k = int(np.searchsorted(indptr, k, side="right")) - 1
                return ValidationError(f"line {lines[k]}: {message} ({err})")
        raise AssertionError("a column check failed on no value")

    def labels(values, dtype, entries=False):
        try:
            return np.fromiter(values, dtype, len(values))
        except OverflowError as err:
            raise fault(values, lambda v: np.array(v, dtype=dtype), entries,
                        "event record label out of range") from err

    times = _floats(t)
    if times is None:
        raise fault(t, lambda v: _real(v, "field 't'"))
    tok_count = _floats(counts)
    if tok_count is None:
        raise fault(counts, lambda v: _real(v, "a count in field 'x'"), entries=True)
    if not set(map(type, s)) <= {int}:  # integral floats such as 2.0 are labels too
        try:
            s = [_integer(v, "field 's'") for v in s]
        except ValueError as err:
            raise fault(s, lambda v: _integer(v, "field 's'")) from err
    sources = labels(s, np.int64)
    if (sources < 1).any():
        raise ValidationError(f"line {lines[int(np.argmax(sources < 1))]}: "
                              "source labels are 1-based in files")
    sources -= 1
    tok_index = labels(tokens, np.int32, entries=True)
    # an entry below the one before it is in order only at an event's start
    down = np.flatnonzero(tok_index[1:] < tok_index[:-1]) + 1
    if np.any(indptr[np.searchsorted(indptr, down)] != down):
        order = np.lexsort((tok_index, np.repeat(np.arange(len(sizes)), sizes)))
        tok_index, tok_count = tok_index[order], tok_count[order]
    try:
        return EventSequence(times, sources, indptr, tok_index, tok_count, T=T, S=S, V=V)
    except ValidationError as err:
        if err.event is None:
            raise
        raise ValidationError(f"line {lines[err.event]}: {err}", event=err.event) from None


# ----------------------------------------------------------------- truth ---

@dataclass
class TruthInfo:
    """Ground-truth sidecar content: parent links and root source labels."""

    parent: np.ndarray        # 1-based event index, 0 = immigrant
    root_sources: np.ndarray  # 0-based source labels


def write_truth(truth: GroundTruth, path_or_file) -> None:
    """JSONL sidecar: header, then exactly {"i","parent","root"} per event."""
    parent, root = truth.branching.parent, truth.roots + 1
    _write_lines(path_or_file, json.dumps({"schema": TRUTH_SCHEMA}) + "\n",
                 '{{"i": {}, "parent": {}, "root": {}}}\n', parent.size,
                 lambda a, b: (range(a + 1, b + 1), parent[a:b].tolist(), root[a:b].tolist()))


def read_truth(path_or_file) -> TruthInfo:
    with _opened(path_or_file, "r") as fp:
        _document(fp.readline(), TRUTH_SCHEMA, "line 1: header")
        parent, root = [], []
        for lineno, rec in _records(fp, "truth"):
            try:
                parent.append(_integer(rec["parent"], "field 'parent'"))
                root.append(_integer(rec["root"], "field 'root'") - 1)
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise ValidationError(f"line {lineno}: malformed truth record ({err})") from err
        try:
            return TruthInfo(parent=np.array(parent, dtype=np.int64),
                             root_sources=np.array(root, dtype=np.int64))
        except OverflowError as err:
            raise ValidationError(f"truth record label out of range ({err})") from err


# ---------------------------------------------------------------- params ---

def write_params(params: ModelParams, path_or_file) -> None:
    _write_json({"schema": PARAMS_SCHEMA, "rho": params.rho.tolist(), "A": params.A.tolist(),
                 "theta": params.theta.tolist(), "gamma": params.gamma, "nu": params.nu},
                path_or_file)


def read_params(path_or_file) -> ModelParams:
    with _opened(path_or_file, "r") as fp:
        doc = _document(fp.read(), PARAMS_SCHEMA, "params document")
    # Older writers stored a constant base shape c, the factor on rho in the
    # base rate rho * c; it folds into rho, and c = 1 leaves rho bit for bit.
    shape = _object(doc.get("base_shape", {"kind": "constant", "c": 1.0}), "base_shape")
    if shape.get("kind") != "constant":
        raise ValidationError(f"unsupported base shape {shape.get('kind')!r}")
    c = _field(shape, "c", _real, "base_shape") if "c" in shape else 1.0
    if not c > 0:
        raise ValidationError("constant shape must be positive")

    rho, A, theta, gamma, nu = (
        _field(doc, key, kind, "params document")
        for key, kind in (("rho", _reals), ("A", _reals), ("theta", _reals),
                          ("gamma", _real), ("nu", _real)))
    return ModelParams(rho=rho * c, A=A, theta=theta, gamma=gamma, nu=nu)


# -------------------------------------------------------------- rootprob ---

def write_rootprob(rpm: RootProbMatrix, path_or_file) -> None:
    """CSV: schema comment, then event_index,r_1..r_S,argmax_source rows."""
    cols = ",".join(f"r_{s + 1}" for s in range(rpm.S))
    arg = rpm.argmax_sources() + 1
    _write_lines(path_or_file,
                 f"# {ROOTPROB_SCHEMA} mode={rpm.mode}\nevent_index,{cols},argmax_source\n",
                 "{}," + "{!r}," * rpm.S + "{}\n", rpm.n,
                 lambda a, b: (range(a + 1, b + 1), *rpm.r[a:b].T.tolist(), arg[a:b].tolist()))


def read_rootprob(path_or_file) -> RootProbMatrix:
    with _opened(path_or_file, "r") as fp:
        m = re.match(rf"#\s*{ROOTPROB_SCHEMA}\s+mode=(\w+)", fp.readline().strip())
        if not m:
            raise ValidationError(f"line 1: expected '# {ROOTPROB_SCHEMA} mode=...' comment")
        header = fp.readline().strip().split(",")
        if header[:1] != ["event_index"] or header[-1:] != ["argmax_source"]:
            raise ValidationError("line 2: malformed column header")
        S = len(header) - 2
        lines = fp.readlines()
    # One parse of every row, all S + 2 columns, so that a row with a column
    # too few or too many is refused; a fault is then looked up line by line.
    rows = [line for line in lines if not line.isspace()]
    try:
        r = (np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows
             else np.empty((0, S + 2)))
    except ValueError as err:
        raise _rootprob_fault(lines, S) from err
    if r.shape[1] != S + 2:
        raise _rootprob_fault(lines, S)
    return RootProbMatrix(np.ascontiguousarray(r[:, 1:S + 1]), m.group(1))


def _rootprob_fault(lines: list, S: int) -> ValidationError:
    """The error for the first of lines, those after the column header, that
    holds a value that is no number or has not S + 2 columns; each line is
    parsed as the bulk parse reads it."""
    for lineno, line in enumerate(lines, start=3):
        if line.isspace():
            continue
        try:
            row = np.loadtxt([line], delimiter=",", comments=None, ndmin=2)
        except ValueError as err:
            return ValidationError(f"line {lineno}: malformed value ({err})")
        if row.shape[1] != S + 2:
            return ValidationError(f"line {lineno}: expected {S + 2} columns")
    raise AssertionError("the rows failed to parse, but no single row does")


# ------------------------------------------------------------ eval / cfg ---

def write_eval(report, path_or_file) -> None:
    doc = {"schema": EVAL_SCHEMA, "n_events": report.n_events, "accuracy": report.accuracy,
           "log_prob": report.log_prob, "top_k": {str(k): v for k, v in report.top_k.items()},
           "power": [float(v) for v in report.power]}
    if report.rse_A is not None:
        doc["rse_A"] = report.rse_A
    if report.rse_theta is not None:
        doc["rse_theta"] = [float(v) for v in report.rse_theta]
    _write_json(doc, path_or_file, indent=2)


def write_trace(elbo_trace, path_or_file) -> None:
    """CSV of a fit's objective per sweep: iteration,elbo rows, 1-based."""
    _write_lines(path_or_file, "iteration,elbo\n", "{},{!r}\n", len(elbo_trace),
                 lambda a, b: (range(a + 1, b + 1), elbo_trace[a:b].tolist()))


def write_bench(report, path_or_file) -> None:
    """JSON of a `rootsource bench` report: its settings, cold start and rows."""
    _write_json({"schema": BENCH_SCHEMA, "exact": report.window is None,
                 "sweeps": report.sweeps, "import_seconds": report.import_seconds,
                 "rows": [asdict(r) for r in report.rows]}, path_or_file, indent=2)


def read_config(path) -> dict:
    """Flat key=value config file; '#' starts a comment; values stay strings."""
    out = {}
    with open(path) as fp:
        for lineno, line in enumerate(fp, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValidationError(f"{path}:{lineno}: expected key=value")
            key, val = text.split("=", 1)
            out[key.strip()] = val.strip()
    return out


# ------------------------------------------------------------- ingestion ---

@dataclass
class RawComment:
    """One raw record: timestamp, author, and exactly one of text and token counts.

    t is a finite real number (a numpy scalar too, but not a bool or a
    string), kept as a float; author a nonempty str; text a str or None; and
    counts None or a dict whose counts are integers or integral floats,
    refused otherwise, as in every file (`_integer`).  Anything else raises
    ValidationError naming the field; so does a comment with neither text
    nor counts (an empty one has text ""), or with both.
    """

    t: float
    author: str
    text: str | None = None
    counts: dict | None = None  # pre-tokenized {token: count}; bypasses tokenizer

    def __post_init__(self):
        t = self.t
        if isinstance(t, bool) or not isinstance(t, numbers.Real):
            raise ValidationError(f"field 't' is not a number: {t!r}")
        try:
            self.t = float(t)
        except OverflowError:  # an int beyond the floats
            self.t = math.inf
        if not math.isfinite(self.t):
            raise ValidationError(f"field 't' is not finite: {self.t!r}")
        if not isinstance(self.author, str) or not self.author:
            raise ValidationError(f"field 'author' must be a nonempty string, got {self.author!r}")
        if self.text is not None and not isinstance(self.text, str):
            raise ValidationError(f"field 'text' must be a string or None, got {self.text!r}")
        if self.counts is not None:  # field 'x' of a comments file
            if not isinstance(self.counts, dict):
                raise ValidationError(
                    f"field 'x' (counts) must map tokens to counts, got {self.counts!r}")
            try:
                self.counts = {v: _integer(c, "a count in field 'x' (counts)")
                               for v, c in self.counts.items()}
            except ValueError as err:
                raise ValidationError(str(err)) from None
        if (self.text is None) == (self.counts is None):
            given = "neither" if self.text is None else "both"
            raise ValidationError(f"a comment carries exactly one of fields 'text' and 'x' "
                                  f"(counts), not {given}")


@dataclass
class Vocabulary:
    """Dense token->index map built from corpus counts."""

    token_to_index: dict
    min_count: int

    @property
    def V(self) -> int:
        return len(self.token_to_index)

    def index_of(self, token: str):
        return self.token_to_index.get(token)


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list:
    """Lowercase tokens split on whitespace/punctuation (runs of [a-z0-9] kept)."""
    return _TOKEN_RE.findall(text.lower())


def read_raw_comments(path_or_file) -> list:
    """JSONL of {"t","author","text"} or {"t","author","x":{token:count}}.

    Each record is checked by `RawComment`, whose error gets the line; it
    carries exactly one of "text" and "x".  Other fields are ignored."""
    with _opened(path_or_file, "r") as fp:
        out = []
        for lineno, rec in _records(fp, "comment", start=1):
            try:
                rec = _object(rec, "a comment record")
                for key in ("t", "author"):
                    if key not in rec:
                        raise ValidationError(f"missing field {key!r}")
                out.append(RawComment(rec["t"], rec["author"], rec.get("text"), rec.get("x")))
            except ValidationError as err:
                raise ValidationError(f"line {lineno}: malformed comment record ({err})") from err
        return out


def ingest(raws, min_count: int = 2, min_author_count: int = 5,
           stop_words=None, T: float | None = None, jitter: float | None = None):
    """Turn raw comments into an EventSequence plus vocabulary and source map.

    Authors with fewer than min_author_count comments are dropped; tokens
    seen fewer than min_count times (after author filtering) or listed in
    stop_words are dropped; sources are indexed densely by sorted author
    name.  Timestamps are shifted so the observation window starts at 0 (the
    earliest event is nudged to a tiny positive offset since the window is
    open at 0), and T is the last shifted timestamp unless given.  Exact
    timestamp ties are rejected; pass jitter=eps to repair them by adding
    i*eps in time order.
    """
    raws = list(raws)
    if not raws:
        raise ValidationError("empty comment stream")
    author_counts: dict[str, int] = {}
    for c in raws:
        author_counts[c.author] = author_counts.get(c.author, 0) + 1
    kept = [c for c in raws if author_counts[c.author] >= min_author_count]
    if not kept:
        raise ValidationError("no comments left after author filtering")
    authors = sorted({c.author for c in kept})
    source_map = {a: k for k, a in enumerate(authors)}

    stop = set(stop_words or ())
    tokened = []
    counts: dict[str, int] = {}
    for c in kept:
        if c.counts is not None:
            bag = {str(t): v for t, v in c.counts.items()}
        else:
            bag = {}
            for t in tokenize(c.text or ""):
                bag[t] = bag.get(t, 0) + 1
        tokened.append(bag)
        for t, v in bag.items():
            counts[t] = counts.get(t, 0) + v
    vocab_tokens = sorted(t for t, v in counts.items() if v >= min_count and t not in stop)
    vocab = Vocabulary(token_to_index={t: k for k, t in enumerate(vocab_tokens)},
                       min_count=min_count)

    order = sorted(range(len(kept)), key=lambda k: kept[k].t)
    times = np.array([kept[k].t for k in order])
    if jitter is not None:
        if jitter <= 0:
            raise ValidationError("jitter must be positive")
        times = times + jitter * np.arange(len(times))
    if np.any(np.diff(times) <= 0):
        k = int(np.argmax(np.diff(times) <= 0))
        raise ValidationError(
            f"exact timestamp tie between comments {k + 1} and {k + 2}; "
            "re-run with a jitter to repair")
    eps = jitter if jitter is not None else 1e-9
    times = times - times[0] + eps

    t_max = float(times[-1])
    horizon = float(T) if T is not None else t_max
    if horizon < t_max:
        raise ValidationError("T must cover the last comment")

    sources, indptr, tok_i, tok_c = [], [0], [], []
    for k in order:
        sources.append(source_map[kept[k].author])
        items = sorted((vocab.token_to_index[t], v) for t, v in tokened[k].items()
                       if t in vocab.token_to_index)
        for v, c in items:
            tok_i.append(v)
            tok_c.append(c)
        indptr.append(len(tok_i))
    events = EventSequence(
        times, np.array(sources, dtype=np.int64), np.array(indptr, dtype=np.int64),
        np.array(tok_i, dtype=np.int32), np.array(tok_c),
        T=horizon, S=len(authors), V=vocab.V)
    return events, vocab, source_map
