"""Every file format of the package: the JSON record codec and the CSV tables.

Each JSON file that is read back (`chain.json`, `public_chain.json`,
`economy.json`, `norm_stats.json`, an external `xmr-dump.json`) is a
dataclass record whose annotations are its layout: written by
:func:`save_record`, read a block at a time by :func:`load_record` and
checked field by field.  Write-only JSON goes through :func:`dump_json`,
small CSV tables through :func:`dump_csv`, the feature and candidate
matrices through :func:`_write_table`, and every CSV input through
:func:`load_csv`.
"""

import csv
import functools
import json
import json.scanner
import math
import re
import warnings
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin

import numpy as np

from .errors import SchemaError

FORMAT_VERSION = 1


# JSON -------------------------------------------------------------------------

def load_json(path: Path):
    """Parse a JSON input file; malformed text raises SchemaError naming the
    file, line and column."""
    path = Path(path)
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SchemaError(f"{path}: line {err.lineno} column {err.colno}: "
                          f"{err.msg}") from None


def dump_json(payload: dict, path: Path) -> None:
    """Write free-form JSON (manifests, reports), keys sorted; records that
    are read back go through save_record."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def dump_csv(header: list[str], rows, path: Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# Record codec -----------------------------------------------------------------
#
# A dataclass's annotations are its JSON layout.  The kinds understood are
# bool, int, float, str, `X | None`, fixed-length tuples of numbers, lists,
# `dict[str, X]` and nested records.


def save_record(rec, path: Path) -> None:
    """Write a dataclass record as one line of JSON text: the bytes of
    `json.dumps(asdict(rec), sort_keys=True, separators=(",", ":"))` and a
    newline."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_writer(type(rec))(rec) + "\n")


def load_record(cls, path: Path):
    """The `cls` record of a JSON file that carries FORMAT_VERSION.

    A file of another version or kind, a missing field or a field of the
    wrong JSON type raises SchemaError naming the file, the path to the
    field and the field; unknown keys are ignored.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            payload, streamed = _streamed_payload(cls, fh)
    except (_NotStreamed, _BadField):
        # the whole-text parse reports the error, or reads what the
        # streaming scanner does not take
        payload, streamed = load_json(path), {}
    # a streamed payload is a dict; a whole-text one may be any JSON value
    rec = read_record(cls, payload | dict.fromkeys(streamed, []) if streamed else payload,
                      path)
    for name, items in streamed.items():
        setattr(rec, name, items)
    return rec


def read_record(cls, payload, source):
    """The `cls` record of a parsed JSON payload that carries FORMAT_VERSION;
    errors are load_record's, naming `source` in place of a file."""
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != FORMAT_VERSION:
        raise SchemaError(f"{source}: unsupported format_version {version!r}",
                          field="format_version")
    try:
        return _json_reader(cls)(payload)
    except _BadField as err:
        raise SchemaError(f"{source}: {err}", field=err.field) from None


class _NotStreamed(Exception):
    """JSON text that _streamed_payload leaves to the whole-text parser."""


class _Ints(dict):
    """JSON int text -> one int object per value, so a file's repeated ids
    and heights share one object each: an s05 public chain has 612k int
    values but 82k distinct ones."""

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


_SPACE = re.compile(r"[ \t\n\r]*")
# what may follow a complete JSON value
_VALUE_ENDS = frozenset(",:]} \t\n\r")


class _Stream:
    """JSON text read from a file one block at a time."""

    BLOCK = 1 << 20

    def __init__(self, fh):
        self.fh = fh
        self.scan = json.scanner.make_scanner(
            json.JSONDecoder(parse_int=_Ints().__getitem__))
        self.text, self.pos, self.done = "", 0, False

    def _read(self) -> None:
        block = self.fh.read(self.BLOCK)
        self.done = not block
        self.text, self.pos = self.text[self.pos:] + block, 0

    def peek(self) -> str:
        """The next character that is not space, or "" at the end."""
        while True:
            c = self.text[self.pos:self.pos + 1]
            if c and c not in " \t\n\r":
                return c
            if c:
                self.pos = _SPACE.match(self.text, self.pos).end()
            elif self.done:
                return ""
            else:
                self._read()

    def opens(self, start: str, stop: str) -> bool:
        """Take `start`, and `stop` too when it follows at once (empty)."""
        if self.peek() != start:
            raise _NotStreamed
        self.pos += 1
        if self.peek() != stop:
            return False
        self.pos += 1
        return True

    def closes(self, stop: str) -> bool:
        """Take a "," (False) or `stop` (True)."""
        c = self.peek()
        if c != "," and c != stop:
            raise _NotStreamed
        self.pos += 1
        return c == stop

    def value(self):
        """The next JSON value.  A block may end inside it, or cut a number
        short, so it is taken only when the text after it shows its end."""
        self.peek()
        while True:
            try:
                value, end = self.scan(self.text, self.pos)
                if self.done or self.text[end:end + 1] in _VALUE_ENDS:
                    self.pos = end
                    return value
            except (StopIteration, json.JSONDecodeError):
                if self.done:
                    raise _NotStreamed from None
            self._read()

    def records(self, read) -> list:
        """The records `read` makes of a JSON array of objects."""
        items = []
        end_of_array = self.opens("[", "]")
        while not end_of_array:
            item = self.value()
            if type(item) is not dict:
                raise _NotStreamed
            items.append(read(item))
            end_of_array = self.closes("]")
        return items


def _streamed_payload(cls, fh) -> tuple[dict, dict]:
    """The JSON object in `fh` as a dict without its list-of-records fields,
    and those fields' records, read one item at a time.

    A chain file's item dicts are most of its parsed size, and its text is
    the rest; reading the text a block at a time, and each item into its
    record as soon as it is parsed, keeps neither whole in memory.  Any
    text but a JSON object whose record-list fields are arrays of objects,
    and any item its reader rejects, raises.
    """
    readers = {f.name: _json_reader(_item(f.type)) for f in fields(cls)
               if is_dataclass(_item(f.type))}
    s = _Stream(fh)
    payload, streamed = {}, {}
    done = s.opens("{", "}")
    while not done:
        key = s.value()
        if type(key) is not str or s.peek() != ":":
            raise _NotStreamed
        s.pos += 1
        if key in readers:
            streamed[key] = s.records(readers[key])
        else:
            payload[key] = s.value()
        done = s.closes("}")
    if s.peek():
        raise _NotStreamed
    return payload, streamed


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    # fields() per record made chain loading a third slower
    return tuple(f.name for f in fields(cls))


class _BadField(Exception):
    """A record field missing from its JSON object or of the wrong JSON type.

    `where` is the path to the record holding it, outermost first: list items
    by their record name, other values by their field name or key.  The
    outermost entry is the file itself and is not shown.
    """

    def __init__(self, where: list[str], field: str, problem: str):
        super().__init__(field)
        self.where, self.field, self.problem = where, field, problem

    def __str__(self) -> str:
        return "".join(f"{name}: " for name in self.where[1:]) + self.problem


def _optional(ann):
    """X for an `X | None` annotation, else None."""
    args = get_args(ann)
    if isinstance(ann, UnionType) and len(args) == 2 and args[1] is NoneType:
        return args[0]
    return None


def _item(ann):
    """X for a `list[X]` annotation, else None."""
    return get_args(ann)[0] if get_origin(ann) is list else None


def _int_list(ann) -> bool:
    item = _item(ann)
    return item is int or (item is not None and _int_list(item))


def _spelling(ann, v: str, env: dict) -> str:
    """Expression text that spells `v`, of type `ann`, the way
    `json.dumps(..., sort_keys=True, separators=(",", ":"))` does."""
    if ann is bool:
        return f'"true" if {v} else "false"'
    if ann is int:
        return v
    if ann is str:
        return f"_enc({v})"
    if ann is float or get_origin(ann) is tuple:
        return f"_compact({v})"
    if _optional(ann) is not None:
        return f'"null" if {v} is None else {_spelling(_optional(ann), v, env)}'
    if is_dataclass(ann):
        return f"{_writer(ann, env)}({v})"
    if _int_list(ann):
        return f'repr({v}).replace(" ", "")'
    if _item(ann) is not None:
        return f'"[" + ",".join(map({_writer(_item(ann), env)}, {v})) + "]"'
    if get_origin(ann) is dict and get_args(ann)[0] is str:
        w = _writer(get_args(ann)[1], env)
        return (f'"{{" + ",".join([_enc(k) + ":" + {w}(x) '
                f'for k, x in sorted({v}.items())]) + "}}"')
    raise TypeError(f"no JSON spelling for {ann}")


def _writer(ann, env: dict) -> str:
    """The name in `env` of a function spelling one value of type `ann`."""
    if is_dataclass(ann):
        name = f"_w_{ann.__name__}"
        env[name] = _json_writer(ann)
    else:
        name = f"_w{len(env)}"
        env[name] = eval(f"lambda x: {_spelling(ann, 'x', env)}", env)
    return name


@functools.cache
def _json_writer(cls):
    """`rec -> str`: the JSON text of a `cls` record, keys sorted, built once.

    One f-string per class writes the s05 records in a third to a quarter
    of the time that their field dicts plus `json.dumps(sort_keys=True)`
    take.
    """
    env = {"_enc": encode_basestring_ascii,
           "_compact": functools.partial(json.dumps, separators=(",", ":"))}
    items = ",".join(f"{json.dumps(f.name)}:{{{_spelling(f.type, 'r.' + f.name, env)}}}"
                     for f in sorted(fields(cls), key=lambda f: f.name))
    return eval(f"lambda r: f'{{{{{items}}}}}'", env)


_INT = frozenset([int])
_NUM = frozenset([int, float])


def _check(ann, v: str, depth: int = 0) -> str:
    """Expression text true when the parsed JSON value `v` fits `ann`; a
    float field takes any JSON number.  The fields of a nested record are
    checked by the record's own reader."""
    if ann in (bool, int, str):
        return f"type({v}) is {ann.__name__}"
    if ann is float:
        return f"type({v}) in _NUM"
    if _optional(ann) is not None:
        return f"({v} is None or {_check(_optional(ann), v, depth)})"
    if is_dataclass(ann):
        return f"type({v}) is dict"
    args, x = get_args(ann), f"x{depth}"
    if get_origin(ann) is tuple:
        return (f"(type({v}) is list and len({v}) == {len(args)} and "
                + " and ".join(_check(a, f"{v}[{i}]", depth) for i, a in enumerate(args))
                + ")")
    if _item(ann) is int:
        return f"(type({v}) is list and _INT.issuperset(map(type, {v})))"
    if _item(ann) is not None:
        return f"(type({v}) is list and all({_check(args[0], x, depth + 1)} for {x} in {v}))"
    if get_origin(ann) is dict and args[0] is str:
        return (f"(type({v}) is dict and "
                f"all({_check(args[1], x, depth + 1)} for {x} in {v}.values()))")
    raise TypeError(f"no JSON check for {ann}")


def _reader(cls, env: dict) -> str:
    """The name in `env` of the reader of record class `cls`."""
    name = f"_r_{cls.__name__}"
    env[name] = _json_reader(cls)
    return name


def _value(ann, v: str, env: dict, depth: int = 0) -> str:
    """Expression text that builds the value of type `ann` from the checked
    JSON value `v`: records from objects, tuples from arrays."""
    if is_dataclass(ann):
        return f"{_reader(ann, env)}({v})"
    if get_origin(ann) is tuple:
        return f"tuple({v})"
    x = f"x{depth}"
    if _item(ann) is not None:
        inner = _value(_item(ann), x, env, depth + 1)
        return v if inner == x else f"[{inner} for {x} in {v}]"
    return v


def _field_value(f, env: dict) -> str:
    """`_value` of a record field.  A nested record's errors are labelled
    with the field's name, a mapping's with the field's name and the key,
    so no message names a file layout's private record class."""
    if is_dataclass(f.type):
        return f"_nested({f.name!r}, {_reader(f.type, env)}, {f.name})"
    if get_origin(f.type) is dict:
        convert = _value(get_args(f.type)[1], "x0", env, 1)
        return f"_keyed({f.name!r}, lambda x0: {convert}, {f.name})"
    return _value(f.type, f.name, env)


def _nested(name: str, read, payload: dict):
    try:
        return read(payload)
    except _BadField as err:
        err.where[0] = name
        raise


def _keyed(name: str, convert, payload: dict) -> dict:
    out = {}
    for key, value in payload.items():
        try:
            out[key] = convert(value)
        except _BadField as err:
            err.where[:0] = [name, key]
            raise
    return out


@functools.cache
def _json_reader(cls):
    """`payload -> cls`: the record of a parsed JSON object, built once.

    A missing field or a field of another JSON type raises _BadField;
    unknown keys are ignored.
    """
    env = {"_cls": cls, "_INT": _INT, "_NUM": _NUM, "_BadField": _BadField,
           "_missing": _missing, "_mistyped": _mistyped, "_record_name": _record_name,
           "_nested": _nested, "_keyed": _keyed}
    names = _field_names(cls)
    args = [_field_value(f, env) for f in fields(cls)]
    checks = " and ".join(_check(f.type, f.name) for f in fields(cls))
    exec(f"""def read(p):
    try:
        {", ".join(names)}, = {", ".join(f"p[{n!r}]" for n in names)},
    except KeyError as err:
        _missing(_cls, p, err.args[0])
    if not ({checks}):
        _mistyped(_cls, p)
    try:
        return _cls({", ".join(args)})
    except _BadField as err:
        err.where.insert(0, _record_name(_cls, p))
        raise
""", env)
    return env["read"]


def _record_name(cls, payload: dict) -> str:
    """The class name and, when the first field is an int id (`height` or
    `..._id`), its value, or when it is a string (a `name`, a `tx_hash`),
    that string quoted."""
    first = fields(cls)[0]
    key = payload.get(first.name)
    if (first.type is int and type(key) is int
            and (first.name == "height" or first.name.endswith("_id"))):
        return f"{cls.__name__} {key}"
    if first.type is str and type(key) is str:
        return f"{cls.__name__} {json.dumps(key)}"
    return cls.__name__


def _type_name(ann) -> str:
    """`ann` as messages print it: without module paths, and a file layout's
    private record class as `object`."""
    if isinstance(ann, type):
        return "object" if ann.__name__.startswith("_") else ann.__name__
    if _optional(ann) is not None:
        return f"{_type_name(_optional(ann))} | None"
    return f"{get_origin(ann).__name__}[{', '.join(map(_type_name, get_args(ann)))}]"


def _missing(cls, payload: dict, name: str):
    raise _BadField([_record_name(cls, payload)], name, "missing field")


def _mistyped(cls, payload: dict):
    """Raise _BadField for the first field of `payload` its check rejects."""
    for f in fields(cls):
        value = payload[f.name]
        fits = eval(f"lambda {f.name}: {_check(f.type, f.name)}", {"_INT": _INT, "_NUM": _NUM})
        if not fits(value):
            if isinstance(value, (dict, list)):
                shown = "an object" if isinstance(value, dict) else "an array"
            else:
                shown = json.dumps(value)
                shown = shown if len(shown) <= 40 else shown[:37] + "..."
            raise _BadField([_record_name(cls, payload)], f.name,
                            f"{f.name} is {shown}, expected {_type_name(f.type)}")


# CSV --------------------------------------------------------------------------

def load_csv(path: Path, keys: tuple[str, ...], names: tuple[str, ...] | None = None,
             dtype=np.float64) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
    """Parse a CSV input file in one np.loadtxt pass, checked against its header.

    `keys` must be the leading columns, in order; `names` picks the value
    columns by header name (default: every column after the keys), so
    trailing extras such as coverage are skipped.  Every cell read parses as
    `dtype` (object keeps the text); blank lines are skipped.  A wrong
    header or an unreadable cell raises SchemaError naming the file, the line
    and the column, and so does a non-finite float (nan, inf, -inf), which
    would otherwise wipe its column in normalization.  Returns the key
    columns, the C-contiguous value matrix and the value column names.
    """
    path = Path(path)
    with path.open() as fh:
        header = next(csv.reader(fh), [])
        for i, key in enumerate(keys):
            if header[i:i + 1] != [key]:
                raise SchemaError(f"{path}: line 1: column {i + 1} must be {key!r}",
                                  field=key)
        if names is None:
            names = tuple(header[len(keys):])
        missing = [n for n in names if n not in header]
        if missing:
            raise SchemaError(f"{path}: line 1: missing column", field=missing[0])
        cols = list(range(len(keys))) + [header.index(n) for n in names]
        try:
            with warnings.catch_warnings():
                # a header-only file is the caller's to report
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2,
                                  dtype=dtype, comments=None, quotechar='"')
        except ValueError as err:
            # np.loadtxt numbers rows without blank lines; find the file line
            raise (_bad_cell(path, header, cols, dtype)
                   or SchemaError(f"{path}: {err}")) from None
    if data.dtype.kind == "f" and not np.isfinite(data).all():
        raise _bad_cell(path, header, cols, dtype)
    return data[:, :len(keys)], np.ascontiguousarray(data[:, len(keys):]), names


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _bad_cell(path: Path, header: list[str], cols: list[int], dtype) -> SchemaError | None:
    """The error for the first cell in `cols` that does not parse as `dtype`
    (a finite value, for floats)."""
    parse = {"f": _finite, "i": int}.get(np.dtype(dtype).kind, str)
    with path.open() as fh:
        rows = csv.reader(fh)
        next(rows)
        for row in filter(None, rows):  # blank lines hold no cells
            for c in cols:
                try:
                    parse(row[c])
                except (IndexError, ValueError):
                    finite = "a finite " if parse is _finite else ""
                    problem = (f"{row[c]!r} is not {finite}{np.dtype(dtype).name}"
                               if c < len(row) else "no value")
                    return SchemaError(f"{path}: line {rows.line_num}: {problem}",
                                       field=header[c])
    return None


_CHUNK_CELLS = 2**18  # cells formatted per write: bounds the text held at once


def _write_table(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """A CSV of int64 and float64 columns, as csv.writer writes the header
    and Python ints and floats: each cell its value's repr, comma-separated,
    CRLF-ended.

    Rows go out in chunks of about _CHUNK_CELLS cells, so the text held at
    once does not grow with the file.  Within a chunk each distinct value of
    a column is formatted once; values are told apart by their bits, since
    0.0 and -0.0 are equal but print differently.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    step = max(1, _CHUNK_CELLS // len(columns))
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), step):
            texts = []
            for col in columns:
                distinct, cell = np.unique(col[start:start + step].view(np.int64),
                                           return_inverse=True)
                text = np.array(list(map(repr, distinct.view(col.dtype).tolist())),
                                dtype=object)
                texts.append(text[cell].tolist())
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*texts)))
