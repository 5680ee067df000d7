"""Sketch-based synthesis: enumeration, solving, and cost-guided search."""

from repro.synth.cache import (
    CacheStats,
    PersistentCache,
    default_cache_dir,
    synthesis_fingerprint,
)
from repro.synth.complexity import prune_verdict, spec_complexity
from repro.synth.config import DEFAULT_CONFIG, SynthesisConfig
from repro.synth.enumerator import StubEntry, StubEnumerator, program_constants
from repro.synth.library import Library, build_library
from repro.synth.search import SearchContext, SearchStats, dfs
from repro.synth.sketch import Hole, Sketch, is_hole, sketches_from_stub
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
    "is_hole",
    "program_constants",
    "prune_verdict",
    "sketches_from_stub",
    "spec_complexity",
    "superoptimize_program",
    "superoptimize_source",
    "synthesis_fingerprint",
    "synthesis_types",
    "verify_candidate",
]
