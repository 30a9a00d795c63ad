//! **Data groups for specifying and statically checking side effects** —
//! the primary contribution of
//!
//! > K. R. M. Leino, A. Poetzsch-Heffter, Y. Zhou.
//! > *Using Data Groups to Specify and Check Side Effects.* PLDI 2002.
//!
//! The crate implements, for the oolong language:
//!
//! * the **pivot uniqueness** restriction (Section 3.0) — [`restrict`];
//! * the **owner exclusion** restriction (Section 3.1), generated as a
//!   call-site obligation and entry assumption — [`effects`], [`vcgen`];
//! * the translation `tr` and weakest-liberal-precondition semantics `wlp`
//!   of Figures 2 and 3 — [`translate`], [`vcgen`];
//! * the universal and scope-dependent **background predicates** with
//!   axioms (4), (6), (7), (8), (9) — [`background`];
//! * the modular **checker driver** with its naive (restriction-free)
//!   baseline — [`checker`];
//! * **specification-overhead metrics** — [`metrics`].
//!
//! # Example
//!
//! ```
//! use datagroups::{CheckOptions, Checker};
//! use oolong_syntax::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "group value
//!      field num in value
//!      proc bump(r) modifies r.value
//!      impl bump(r) { r.num := r.num + 1 }",
//! )?;
//! let checker = Checker::new(&program, CheckOptions::default())?;
//! assert!(checker.check_all().all_verified());
//! # Ok(())
//! # }
//! ```

pub mod background;
pub mod checker;
pub mod effects;
pub mod metrics;
pub mod restrict;
pub mod translate;
pub mod vcgen;

pub use checker::{
    check_modular, CheckOptions, Checker, ImplReport, ModularReport, Refutation, Report, Verdict,
};
pub use effects::{ModEntry, ModList};
pub use metrics::{overhead, prover_metrics, HotAxiom, OverheadReport, ProverMetrics};
pub use restrict::check_pivot_uniqueness;
pub use vcgen::{ObligationKind, ObligationLabel, Vc, VcGen, VcOptions};
