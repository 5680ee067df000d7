"""Test-side view of a ``PersistentCache`` section file (a ``DurableLog``)."""

from pathlib import Path

from repro.journal import DurableLog, encode_line
from repro.synth.cache import PersistentCache


def section_log(cache_dir, section) -> DurableLog:
    """The log a ``PersistentCache`` on ``cache_dir`` keeps ``section`` in."""
    return PersistentCache(cache_dir)._log(section)


def read_section(cache_dir, section) -> tuple[dict, list[dict]]:
    """``(header, records)`` exactly as written: no fold, tombstones included."""
    entries, _end, _dropped = section_log(cache_dir, section).read()
    return entries[0], entries[1:]


def rewrite_section(cache_dir, section, tamper) -> None:
    """Hand ``tamper`` the section as ``{"version", "entries": {key: value}}``
    and write back whatever it left there, one record per entry."""
    header, records = read_section(cache_dir, section)
    raw = {
        "version": header["version"],
        "entries": {r["k"]: r["v"] for r in records if "v" in r},
    }
    tamper(raw)
    lines = [encode_line({**header, "version": raw["version"]})]
    lines += [encode_line({"k": k, "v": v}) for k, v in raw["entries"].items()]
    (Path(cache_dir) / f"{section}.json").write_text("".join(f"{line}\n" for line in lines))
