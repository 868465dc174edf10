"""Append-only JSONL cache for enumeration layers.

Ball enumeration dominates every expensive pipeline, so its per-length
class counts are cached keyed by (matrix digest, radius).  The file is
append-only: a deeper enumeration appends a new record rather than
rewriting, and lookups take the deepest record that answers the radius
the way a fresh enumeration would, method tag included.  A hit is served
only when the caps in force would give a fresh run the same method;
otherwise the layers are recomputed, so a warm cache never lifts a cap.
Records that fail to parse, carry an unknown version, or are structurally
wrong are skipped silently; a truncated tail (interrupted write) therefore
costs a rebuild, never an error.
"""

import json
import os
from itertools import accumulate
from pathlib import Path

from .elements import Caps
from .growth import DEFAULT_VALIDATION_DEPTH

CACHE_VERSION = 1
CACHE_FILENAME = "layers.jsonl"


def cache_file(cache_dir):
    return Path(cache_dir) / CACHE_FILENAME


def _encode_layers(layers):
    out = []
    for layer in layers:
        out.append(sorted([list(cv), c] for cv, c in layer.items()))
    return out


def _decode_layers(raw):
    layers = []
    for layer in raw:
        d = {}
        for cv, c in layer:
            d[tuple(int(x) for x in cv)] = int(c)
        layers.append(d)
    return layers


def _answers(rec, radius):
    """Does this record give what a fresh enumeration at radius gives?

    A finite group enumerated to its longest element ("exhausted") has all
    its layers, so its record answers any radius.  A "bfs" record answers
    any radius up to its own: a smaller ball fits the same caps.  A
    "recurrence" record answers only its own radius, since a shallower
    ball may fit the caps and then comes from BFS.
    """
    r = int(rec["radius"])
    if rec.get("exhausted") or r == radius:
        return True
    return r > radius and rec.get("method", "bfs") == "bfs"


def load_layers(cache_dir, digest, radius):
    """Deepest cached (layers, method) for this digest that answers radius,
    or None."""
    if cache_dir is None:
        return None
    path = cache_file(cache_dir)
    if not path.exists():
        return None
    best = None
    try:
        lines = path.read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            if rec.get("v") != CACHE_VERSION or rec.get("digest") != digest:
                continue
            r = int(rec["radius"])
            if (best is not None and best[0] >= r) or not _answers(rec, radius):
                continue
            layers = _decode_layers(rec["layers"])
            n = len(layers)
            # an exhausted record stops short of its radius, others reach it
            if (n > r) if rec.get("exhausted") else (n != r + 1):
                continue
            best = (r, layers, str(rec.get("method", "bfs")))
        except (ValueError, KeyError, TypeError):
            continue        # corrupt or foreign line: rebuild instead
    if best is None:
        return None
    _, layers, method = best
    return layers[:radius + 1], method


def store_layers(cache_dir, digest, radius, layers, method):
    """Append one record; fewer than radius + 1 layers mark it exhausted."""
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    rec = {"v": CACHE_VERSION, "digest": digest, "radius": radius,
           "method": method, "layers": _encode_layers(layers)}
    if len(layers) <= radius:
        rec["exhausted"] = True
    with open(cache_file(cache_dir), "a") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _same_method_under(caps, layers, method):
    """Would a fresh run under caps end in this method?

    A fresh run gives "bfs" when the ball through the radius fits
    max_elements, and "recurrence" when it does not but the ball through
    the validation depth does; anything else raises.
    """
    sizes = list(accumulate(sum(layer.values()) for layer in layers))
    fits = sizes[-1] <= caps.max_elements
    if method == "bfs":
        return fits
    check = sizes[min(DEFAULT_VALIDATION_DEPTH, len(sizes) - 1)]
    return not fits and check <= caps.max_elements


def cached_layer_counts(M, radius, caps=None, cache_dir=None):
    """layer_class_counts with a transparent disk cache.

    Hits replay the stored method tag so downstream reports are
    bit-identical whether or not the cache was warm, and a hit that the
    caps in force would not give is recomputed, raising as a cold run does.
    """
    from .growth import layer_class_counts
    caps = caps or Caps.from_env()
    digest = M.digest()
    hit = load_layers(cache_dir, digest, radius)
    if hit is not None and _same_method_under(caps, *hit):
        return hit
    layers, method = layer_class_counts(M, radius, caps=caps)
    store_layers(cache_dir, digest, radius, layers, method)
    return layers, method
