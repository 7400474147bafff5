"""Oracle and scorer for the benchmark, independent of the engines.

Everything here works on raw CSV text with plain string-keyed grouping:

* ``violations`` counts the violations of each CFD line the way the
  paper defines them: a tuple that matches a constant row's LHS but not
  its RHS constant is one violation; an LHS group (tuples that agree on
  the LHS and match its constants) holding two or more distinct RHS
  values is one violation.
* ``confidence`` gives a rule's confidence on a relation: the share of
  the tuples matching its LHS constants that remain after removing the
  fewest tuples needed for the rule to hold (TANE's g3 error).
* ``score`` compares a repaired table cell by cell with the ground
  truth ``clean.csv``.

Only the CFD forms the generators and the discovery engine write are
understood: ``rel([a, b='x'] -> [c])`` and ``rel([a='x'] -> [c='y'])``.
"""

import csv
import io
import re
from collections import Counter, defaultdict

_CFD = re.compile(r"^\s*(\w+)\(\[(.*)\]\s*->\s*\[(.*)\]\)\s*$")


def read_csv(text):
    """(header, rows) of a CSV document."""
    records = list(csv.reader(io.StringIO(text)))
    if not records:
        raise ValueError("empty CSV")
    return records[0], records[1:]


def read_csv_file(path):
    with open(path, encoding="utf-8", newline="") as f:
        return read_csv(f.read())


def _split_items(text):
    """Split ``a, b='x, y'`` at commas outside quotes."""
    items, cur, quoted = [], [], False
    for ch in text:
        if ch == "'":
            quoted = not quoted
        if ch == "," and not quoted:
            items.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if "".join(cur).strip():
        items.append("".join(cur).strip())
    return items


def _item(text):
    """``attr`` -> (attr, None); ``attr='v'`` -> (attr, 'v')."""
    if "=" not in text:
        return text.strip(), None
    attr, value = text.split("=", 1)
    value = value.strip()
    if len(value) < 2 or value[0] != "'" or value[-1] != "'":
        raise ValueError(f"unsupported pattern `{text}`")
    return attr.strip(), value[1:-1].replace("''", "'")


class Cfd:
    """One CFD with a single RHS attribute and a single tableau row:
    LHS [(attr, const|None)], RHS (attr, const|None)."""

    def __init__(self, relation, lhs, rhs, text):
        self.relation, self.lhs, self.rhs, self.text = relation, lhs, rhs, text

    def __repr__(self):
        return self.text


def parse_line(line):
    """The CFDs of one constraint line, one per RHS attribute (a line
    like ``r([a] -> [b, c='x'])`` stands for two CFDs)."""
    m = _CFD.match(line)
    if not m:
        raise ValueError(f"not a CFD line: `{line}`")
    lhs = [_item(i) for i in _split_items(m.group(2))]
    return [Cfd(m.group(1), lhs, _item(r), line.strip()) for r in _split_items(m.group(3))]


def parse_suite(text):
    return [c for l in text.splitlines() if l.strip() and not l.lstrip().startswith("#")
            for c in parse_line(l)]


def _columns(header, cfd):
    try:
        return [header.index(a) for a, _ in cfd.lhs], header.index(cfd.rhs[0])
    except ValueError as e:
        raise ValueError(f"{cfd}: attribute not in header {header}") from e


def violations(header, rows, cfds):
    """Per-CFD violation counts on ``rows`` (lists of cell strings)."""
    counts = []
    for cfd in cfds:
        lhs_cols, rhs_col = _columns(header, cfd)
        consts = [(c, v) for c, (_, v) in zip(lhs_cols, cfd.lhs) if v is not None]
        matching = [r for r in rows if all(r[c] == v for c, v in consts)]
        rhs_const = cfd.rhs[1]
        if rhs_const is not None:
            counts.append(sum(1 for r in matching if r[rhs_col] != rhs_const))
            continue
        seen = defaultdict(set)
        for r in matching:
            seen[tuple(r[c] for c in lhs_cols)].add(r[rhs_col])
        counts.append(sum(1 for values in seen.values() if len(values) > 1))
    return counts


def _canonical(rows, col):
    """A column whose every value is an integer compares as integers, the
    way a typed snapshot stores it; any other column compares as text."""
    values = [r[col] for r in rows]
    if values and all(re.fullmatch(r"-?\d+", v) for v in values):
        return [int(v) for v in values]
    return values


class RuleChecker:
    """Confidence of many rules over one relation, grouping once per
    (LHS attributes, RHS attribute) pair."""

    def __init__(self, header, rows):
        self.header = header
        self.n = len(rows)
        self.cols = [_canonical(rows, c) for c in range(len(header))]
        self._groups = {}
        self._memo = {}
        self._index = {}

    def _const(self, col, text):
        return int(text) if self.cols[col] and isinstance(self.cols[col][0], int) else text

    def _group(self, lhs_cols, rhs_col):
        """LHS key -> {RHS value: tuples}, for one attribute combination."""
        key = (tuple(lhs_cols), rhs_col)
        if key not in self._groups:
            pairs = Counter(zip(zip(*(self.cols[c] for c in lhs_cols)), self.cols[rhs_col]))
            by_lhs = defaultdict(dict)
            for (k, rhs), n in pairs.items():
                by_lhs[k][rhs] = n
            self._groups[key] = by_lhs
        return self._groups[key]

    def _keys_with(self, lhs_cols, rhs_col, pos, value):
        """The LHS keys whose position ``pos`` holds ``value``."""
        index_key = (tuple(lhs_cols), rhs_col, pos)
        if index_key not in self._index:
            at = defaultdict(list)
            for k in self._group(lhs_cols, rhs_col):
                at[k[pos]].append(k)
            self._index[index_key] = at
        return self._index[index_key].get(value, [])

    def _aggregate(self, lhs_cols, rhs_col, consts):
        """(support, tuples kept by the variable rule, RHS value counts)
        over the LHS keys that carry ``consts``, memoised."""
        memo_key = (tuple(lhs_cols), rhs_col, tuple(consts))
        if memo_key not in self._memo:
            by_lhs = self._group(lhs_cols, rhs_col)
            if len(consts) == len(lhs_cols):
                key = tuple(v for _, v in consts)
                keys = [key] if key in by_lhs else []
            elif consts:
                keys = [k for k in self._keys_with(lhs_cols, rhs_col, *consts[0])
                        if all(k[p] == v for p, v in consts)]
            else:
                keys = by_lhs.keys()
            support = kept = 0
            rhs_total = Counter()
            for key in keys:
                rhs_counts = by_lhs[key]
                support += sum(rhs_counts.values())
                kept += max(rhs_counts.values())
                rhs_total.update(rhs_counts)
            self._memo[memo_key] = (support, kept, rhs_total)
        return self._memo[memo_key]

    def confidence(self, cfd):
        """(confidence, support) of one rule; confidence 1.0 on no support."""
        lhs_cols = [self.header.index(a) for a, _ in cfd.lhs]
        rhs_col = self.header.index(cfd.rhs[0])
        consts = [(p, self._const(c, v)) for p, (c, (_, v)) in enumerate(zip(lhs_cols, cfd.lhs))
                  if v is not None]
        support, kept, rhs_total = self._aggregate(lhs_cols, rhs_col, consts)
        if cfd.rhs[1] is not None:
            kept = rhs_total.get(self._const(rhs_col, cfd.rhs[1]), 0)
        return (kept / support if support else 1.0), support


def score(dirty_rows, fixed_rows, clean_rows):
    """Cell-by-cell ground-truth score of a repair."""
    dirty = changed = corrected = broken = 0
    for d_row, f_row, c_row in zip(dirty_rows, fixed_rows, clean_rows):
        for d, f, c in zip(d_row, f_row, c_row):
            if d != c:
                dirty += 1
                if f == c:
                    corrected += 1
            elif f != c:
                broken += 1
            if f != d:
                changed += 1
    return {
        "dirty_cells": dirty,
        "cells_changed": changed,
        "cells_corrected": corrected,
        "clean_cells_broken": broken,
        "precision": corrected / changed if changed else 1.0,
        "recall": corrected / dirty if dirty else 1.0,
    }


def cells_differing(a_rows, b_rows):
    return sum(1 for ra, rb in zip(a_rows, b_rows) for x, y in zip(ra, rb) if x != y)
