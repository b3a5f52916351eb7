"""Deterministic report records.

The machine-readable format is line-oriented `key=value`, one pair per line,
in construction order, with no timestamps; byte-identical across runs for
identical inputs.  The text format is the same data laid out for reading.
"""


def field_rows(prefix, verdict):
    """(prefix.field, value) for each field of a verdict record, in the order
    of its `_fields`, skipping fields that are None."""
    return [(f"{prefix}.{name}", value)
            for name, value in zip(verdict._fields, verdict) if value is not None]


class Report:
    def __init__(self, title):
        self.title = title
        self.rows = []

    def add(self, key, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        self.rows.append((str(key), str(value)))
        return self

    def extend(self, rows):
        for key, value in rows:
            self.add(key, value)
        return self

    def render_record(self):
        lines = [f"report={self.title}"]
        lines.extend(f"{k}={v}" for k, v in self.rows)
        return "\n".join(lines) + "\n"

    def render_text(self):
        width = max((len(k) for k, _ in self.rows), default=0)
        lines = [self.title, "-" * len(self.title)]
        lines.extend(f"{k.ljust(width)}  {v}" for k, v in self.rows)
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        return self.render_record() if fmt == "record" else self.render_text()
