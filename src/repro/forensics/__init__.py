"""``repro.forensics`` — per-run fault forensics.

Aggregate telemetry (:mod:`repro.obs`) answers "how many runs ended in
SDC"; this package answers the paper's questions about *one* run:

* :mod:`repro.forensics.recorder` — a **flight recorder**: a cheap
  ring of block-entry events (pc, icount, cycles) plus periodic
  architectural-state checkpoints, attached as a ``Cpu`` branch
  observer so an unobserved run pays nothing;
* :mod:`repro.forensics.divergence` — a **golden-divergence
  analyzer**: replay a fault spec side by side with the golden trace,
  locate the first divergent block entry, and emit a structured
  :class:`Divergence` record (injection site, Section-2 landing
  category, state delta, injection→divergence→stop distances, check
  sites crossed without firing);
* :mod:`repro.forensics.attribution` — **escape attribution**: *why*
  an SDC/HANG escaped the technique, classified against the formal
  conditions of :mod:`repro.formal.conditions`;
* :mod:`repro.forensics.bundle` — the JSONL forensics bundle a
  ``--forensics`` campaign writes next to its journal;
* :mod:`repro.forensics.explain` — the annotated timeline behind
  ``repro explain``.
"""

from repro.forensics.recorder import (BlockEvent, Checkpoint,
                                      FlightRecorder)
from repro.forensics.divergence import (Divergence,
                                        GoldenDivergenceAnalyzer,
                                        RunProbe, classify_spec_landing)
from repro.forensics.attribution import (EscapeAttribution, EscapeReason,
                                         attribute_escape)
from repro.forensics.bundle import (BUNDLE_VERSION, bundle_path_for,
                                    fault_from_json, fault_to_json,
                                    read_bundle, spec_from_json,
                                    spec_to_json,
                                    write_campaign_forensics)
from repro.forensics.explain import explain_spec, render_explanation

__all__ = [
    "BlockEvent", "Checkpoint", "FlightRecorder",
    "Divergence", "GoldenDivergenceAnalyzer", "RunProbe",
    "classify_spec_landing",
    "EscapeAttribution", "EscapeReason", "attribute_escape",
    "BUNDLE_VERSION", "bundle_path_for", "fault_from_json",
    "fault_to_json", "read_bundle", "spec_from_json", "spec_to_json",
    "write_campaign_forensics",
    "explain_spec", "render_explanation",
]
