//! Static analysis for objective-function sketches.
//!
//! The synthesis loop assumes the expert-written sketch is sane; a
//! malformed one (a guard no in-bounds scenario can reach, a hole that
//! never influences the output, a division that can hit zero) wastes
//! entire oracle-query budgets before anyone notices. This crate analyses
//! a parsed [`cso_sketch::Sketch`] *before* any solver query runs:
//!
//! * **well-formedness lints** ([`analyze`]) — unused holes/params,
//!   guards provably constant under the metric bounds, dead `if`
//!   branches, redundant nested guards, certain and possible
//!   division-by-zero sites;
//! * **interval abstract interpretation** ([`interp`]) — a sound output
//!   enclosure and per-hole influence bounds, mirroring
//!   `cso_logic::ieval` exactly (the cross-check tests assert interval
//!   equality against the lowered term);
//! * **monotonicity/sign analysis** per metric, erroring when no metric
//!   can influence the output (the sketch could never rank two
//!   scenarios apart).
//!
//! Diagnostics ([`diag`]) carry byte spans from the sketch parser, a
//! severity, stable lint codes, and render both pretty (for stderr) and
//! as deterministic JSON (for golden files and tooling).
//!
//! The derived hole enclosures are outward-rounded supersets of the
//! declared bounds, so intersecting them with the solver's initial box
//! could never shrink it; the engine uses the analysis for lints only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod diag;
pub mod interp;

pub use analyze::{analyze, Analysis, AnalysisConfig, Monotonicity};
pub use diag::{Diagnostic, Report, Severity};
pub use interp::{aeval_bexpr, aeval_expr, const_eval, rat_interval, AbsEnv};
