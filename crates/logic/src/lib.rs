//! The object-store logic of Section 4 of
//!
//! > K. R. M. Leino, A. Poetzsch-Heffter, Y. Zhou.
//! > *Using Data Groups to Specify and Check Side Effects.* PLDI 2002.
//!
//! Terms ([`Term`]) cover the store operations `S(X·A)` (select),
//! `S(X·A := V)` (update), `new(S)`, and `S⁺`, plus integers and attribute
//! constants. Atoms ([`Atom`]) cover equality, `alive`, the local
//! inclusion relation `⊒`, the rep inclusion relation `→f`, and the main
//! location-inclusion relation `≽`. Formulas ([`Formula`]) add the usual
//! connectives and quantifiers with Simplify-style matching triggers.
//!
//! [`transform::to_nnf`] converts formulas to the skolemized negation
//! normal form ([`transform::Nnf`]) consumed by the `oolong-prover` crate.
//!
//! # Example
//!
//! ```
//! use oolong_logic::{Atom, Formula, Term};
//!
//! // $ ⊨ st·contents ≽ v·cnt
//! let inc = Formula::Atom(Atom::Inc {
//!     store: Term::store(),
//!     obj: Term::var("st"),
//!     attr: Term::attr("contents"),
//!     obj2: Term::var("v"),
//!     attr2: Term::attr("cnt"),
//! });
//! assert_eq!(inc.to_string(), "$ ⊨ st·#contents ≽ v·#cnt");
//! ```

pub mod formula;
pub mod intern;
pub mod policy;
pub mod stable_hash;
pub mod term;
pub mod transform;

pub use formula::{Atom, Formula, Pattern, Trigger, JOIN_LABEL};
pub use intern::Symbol;
pub use policy::{PatternPolicy, Phase};
pub use stable_hash::{stable_hash128, StableHasher};
pub use term::{Cst, FnSym, Term, TermNode, STORE, STORE0};
pub use transform::{to_nnf, FreshGen, Nnf};
