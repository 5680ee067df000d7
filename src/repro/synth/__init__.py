"""Sketch-based synthesis: enumeration, solving, and cost-guided search."""

from repro.synth.cache import (
    CacheStats,
    PersistentCache,
    default_cache_dir,
    synthesis_fingerprint,
)
from repro.synth.complexity import prune_verdict, spec_complexity
from repro.synth.config import DEFAULT_CONFIG, SIMPLIFICATION_ONLY, SynthesisConfig
from repro.synth.enumerator import StubEntry, StubEnumerator, program_constants
from repro.synth.library import Library, build_library, retype_sketch
from repro.synth.search import SearchContext, SearchStats, dfs
from repro.synth.sketch import Hole, Sketch, holes_of, is_hole, sketches_from_stub
from repro.synth.solver import SketchSolver
from repro.synth.superoptimizer import (
    SynthesisResult,
    superoptimize_program,
    superoptimize_source,
    synthesis_types,
    verify_candidate,
)

__all__ = [
    "DEFAULT_CONFIG",
    "SIMPLIFICATION_ONLY",
    "CacheStats",
    "Hole",
    "Library",
    "PersistentCache",
    "SearchContext",
    "SearchStats",
    "Sketch",
    "SketchSolver",
    "StubEntry",
    "StubEnumerator",
    "SynthesisConfig",
    "SynthesisResult",
    "build_library",
    "default_cache_dir",
    "dfs",
    "holes_of",
    "is_hole",
    "program_constants",
    "prune_verdict",
    "retype_sketch",
    "sketches_from_stub",
    "spec_complexity",
    "superoptimize_program",
    "superoptimize_source",
    "synthesis_fingerprint",
    "synthesis_types",
    "verify_candidate",
]
