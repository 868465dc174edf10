"""Append-only JSONL cache for enumeration layers.

Ball enumeration dominates every expensive pipeline, so its per-length
class counts are cached keyed by (matrix digest, radius).  The file is
append-only: a deeper enumeration appends a new record rather than
rewriting, and a lookup takes the deepest record that reaches the radius
(an exhausted finite group reaches every radius) and slices it.  The
cache is storage only.  A record holds counts, not how they were
obtained: System.layer_counts derives the source tag of a hit and of a
fresh run alike from the exact ball sizes and the caps in force, so a
warm cache never lifts a cap.
Each record carries the sha256 of its canonical layers.  Records that
fail to parse, carry an unknown version, are structurally wrong or fail
their hash are skipped silently; a truncated tail (interrupted write) or
an edited count therefore costs a rebuild, never an error.
"""

import hashlib
import json
import os
from pathlib import Path

CACHE_VERSION = 2
CACHE_FILENAME = "layers.jsonl"


def cache_file(cache_dir):
    return Path(cache_dir) / CACHE_FILENAME


def _encode_layers(layers):
    out = []
    for layer in layers:
        out.append(sorted([list(cv), c] for cv, c in layer.items()))
    return out


def _sha256(encoded):
    """sha256 of the compact JSON of encoded layers."""
    text = json.dumps(encoded, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _decode_layers(raw):
    layers = []
    for layer in raw:
        d = {}
        for cv, c in layer:
            d[tuple(int(x) for x in cv)] = int(c)
        layers.append(d)
    return layers


def load_layers(cache_dir, digest, radius):
    """Layers 0..radius from the deepest cached record for this digest that
    reaches radius (an exhausted one reaches every radius), or None."""
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
            if (best is not None and best[0] >= r) or \
                    (r < radius and not rec.get("exhausted")):
                continue
            layers = _decode_layers(rec["layers"])
            n = len(layers)
            # an exhausted record stops short of its radius, others reach it
            if (n > r) if rec.get("exhausted") else (n != r + 1):
                continue
            if rec.get("sha256") != _sha256(_encode_layers(layers)):
                continue
            best = (r, layers)
        except (ValueError, KeyError, TypeError):
            continue        # corrupt or foreign line: rebuild instead
    if best is None:
        return None
    return best[1][:radius + 1]


def store_layers(cache_dir, digest, radius, layers):
    """Append one record; fewer than radius + 1 layers mark it exhausted."""
    if cache_dir is None:
        return
    os.makedirs(cache_dir, exist_ok=True)
    encoded = _encode_layers(layers)
    rec = {"v": CACHE_VERSION, "digest": digest, "radius": radius,
           "layers": encoded, "sha256": _sha256(encoded)}
    if len(layers) <= radius:
        rec["exhausted"] = True
    with open(cache_file(cache_dir), "a") as fh:
        fh.write(json.dumps(rec, sort_keys=True) + "\n")
