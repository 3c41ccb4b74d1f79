"""Prometheus text exposition (format 0.0.4) for :class:`MetricsRegistry`.

Three consumers share the renderer:

* the ``metrics`` wire op (``ServiceClient.metrics()``) returns the text
  in-band so fleet tooling can scrape through the query port;
* :class:`MetricsHTTPServer` serves it at ``GET /metrics`` when
  ``serve``/``supervise`` are started with ``--metrics-port``;
* :func:`parse_prometheus` is a deliberately small parser used by our
  own tests to *assert* the output is well-formed — round-tripping
  through it is the acceptance check, not a convenience.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "CONTENT_TYPE",
    "MetricsHTTPServer",
    "parse_prometheus",
    "render_prometheus",
]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (
        text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    # Integral values print without a trailing .0 — matches what
    # Prometheus client libraries emit for counters.
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _labels_text(names: tuple[str, ...], values: tuple[str, ...]) -> str:
    if not names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    )
    return "{" + pairs + "}"


def _labels_with(
    names: tuple[str, ...],
    values: tuple[str, ...],
    extra_name: str,
    extra_value: str,
) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(names, values)
    ]
    pairs.append(f'{extra_name}="{extra_value}"')
    return "{" + ",".join(pairs) + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as Prometheus text exposition, families sorted by
    name, children sorted by label values — byte-stable for a given
    state, which the determinism tests rely on."""
    lines: list[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key, child in family.children():
            label_text = _labels_text(family.labelnames, key)
            if isinstance(child, (Counter, Gauge)):
                lines.append(f"{family.name}{label_text} {_fmt(child.value)}")
            elif isinstance(child, Histogram):
                snap = child.snapshot()
                for bound, cumulative in snap["buckets"]:
                    le = _labels_with(
                        family.labelnames, key, "le", _fmt(bound)
                    )
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                inf = _labels_with(family.labelnames, key, "le", "+Inf")
                lines.append(f"{family.name}_bucket{inf} {snap['inf']}")
                lines.append(
                    f"{family.name}_sum{label_text} {_fmt(snap['sum'])}"
                )
                lines.append(
                    f"{family.name}_count{label_text} {snap['count']}"
                )
    return "\n".join(lines) + "\n"


def _parse_labels(text: str) -> dict[str, str]:
    labels: dict[str, str] = {}
    i = 0
    while i < len(text):
        eq = text.index("=", i)
        name = text[i:eq].strip().lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(f"unquoted label value in {text!r}")
        j = eq + 2
        out: list[str] = []
        while text[j] != '"':
            if text[j] == "\\":
                nxt = text[j + 1]
                out.append({"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt))
                j += 2
            else:
                out.append(text[j])
                j += 1
        labels[name] = "".join(out)
        i = j + 1
    return labels


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse text exposition into ``{family: {"type", "help", "samples"}}``
    where samples is ``{(sample_name, labels_tuple): value}``.

    Strict about structure (every sample must follow a # TYPE for its
    family; values must parse as floats) — it exists to *validate* our
    own output in tests, so it raises on anything malformed rather than
    skipping it.
    """
    families: dict[str, dict] = {}
    current: Optional[str] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(
                name, {"type": None, "help": "", "samples": {}}
            )["help"] = help_text
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if kind not in ("counter", "gauge", "histogram"):
                raise ValueError(f"unknown metric type {kind!r}")
            families.setdefault(
                name, {"type": None, "help": "", "samples": {}}
            )["type"] = kind
            current = name
            continue
        if line.startswith("#"):
            continue
        brace = line.find("{")
        if brace >= 0:
            close = line.rindex("}")
            sample_name = line[:brace]
            labels = _parse_labels(line[brace + 1 : close])
            value_text = line[close + 1 :].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = {}
        value = float(value_text)  # raises on malformed values
        family = current
        if family is None or not sample_name.startswith(family):
            # Histogram _bucket/_sum/_count keep the family prefix; a
            # sample for a family with no preceding # TYPE is malformed.
            matches = [
                name for name in families if sample_name.startswith(name)
            ]
            if not matches:
                raise ValueError(f"sample {sample_name!r} has no # TYPE")
            family = max(matches, key=len)
        families[family]["samples"][
            (sample_name, tuple(sorted(labels.items())))
        ] = value
    return families


#: How often the listener's loop checks for :meth:`MetricsHTTPServer.close`
#: (``serve_forever``'s default, 0.5 s, is what every close would wait).
_SHUTDOWN_POLL_S = 0.02


class MetricsHTTPServer:
    """A daemon-thread HTTP server exposing ``GET /metrics``.

    Pull-based on purpose: the query port stays on the asyncio loop, and
    scrapes land on this separate threaded listener so a slow scraper
    can never head-of-line-block query traffic.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        # Imported here: the compile pipeline imports this package for
        # its span helper and must not pay for the HTTP stack.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self.registry = registry
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    self.send_error(404)
                    return
                body = render_prometheus(outer.registry).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                pass  # scrape logs would drown real output

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": _SHUTDOWN_POLL_S},
            name="repro-metrics-http",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/metrics"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)
