//! The refutation prover: a DPLL-style tableau over skolemized NNF with an
//! E-graph for ground reasoning and E-matching for quantifier
//! instantiation.
//!
//! To prove `H₁ ∧ … ∧ Hₙ ⇒ G`, the prover asserts each `Hᵢ` positively and
//! `G` negatively, then searches for a contradiction:
//!
//! 1. ground literals are asserted into the E-graph (congruence closure,
//!    interpreted constants, eager arithmetic evaluation);
//! 2. disjunctions are simplified against the current state and case-split
//!    with backtracking (the E-graph is cloned at each branch);
//! 3. when a branch is ground-saturated, quantified hypotheses are
//!    instantiated by matching their triggers against the E-graph, and the
//!    loop repeats. Saturation runs **before** case splitting (instances
//!    land on the shared branch prefix) and is **incremental**: old
//!    quantifiers re-match only against nodes created since the previous
//!    round, with a full pass to confirm saturation.
//!
//! Every dimension of work is metered by a [`Budget`]; exhausting it yields
//! [`Outcome::Unknown`] — this is how the paper's observation that Simplify
//! "loops irrevocably" on cyclic rep inclusions is reproduced as a
//! measurable result rather than a hang.

use crate::egraph::{EGraph, NodeId};
use crate::matcher::{match_trigger, match_trigger_anchored, term_of};
use crate::triggers::{classify_quant, infer_triggers, QuantKind};
use oolong_logic::transform::{to_nnf, FreshGen, Nnf};
use oolong_logic::{Atom, Formula, Phase, Symbol, Term, Trigger, JOIN_LABEL};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Resource limits for one proof attempt.
///
/// `Hash`/`Eq` are part of the incremental engine's cache-key contract:
/// two proof attempts with different budgets are different obligations
/// (a starved budget can turn `Proved` into `Unknown`), so the budget is
/// hashed into every verification-condition fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Budget {
    /// Maximum total quantifier instantiations.
    pub max_instances: usize,
    /// Maximum quantifier instantiations produced per saturation round.
    pub max_instances_per_round: usize,
    /// Maximum number of case-split branches explored.
    pub max_branches: u64,
    /// Maximum number of E-graph nodes per branch.
    pub max_nodes: usize,
    /// Maximum case-split depth.
    pub max_depth: usize,
    /// Maximum matching generation: instantiations whose bindings involve
    /// terms created at this generation are deferred (Simplify's matching
    /// depth). A branch that saturates with deferred work reports
    /// [`Outcome::Unknown`] rather than [`Outcome::NotProved`].
    pub max_term_gen: u32,
    /// Maximum saturation rounds across the whole search. Each round can
    /// involve a full matching pass over every active quantifier, so this
    /// bounds the dominant cost of hopeless searches.
    pub max_rounds: usize,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_instances: 120_000,
            max_instances_per_round: 400,
            max_branches: 100_000,
            max_nodes: 400_000,
            max_depth: 240,
            max_term_gen: 2,
            max_rounds: 3_000,
        }
    }
}

impl Budget {
    /// A deliberately tiny budget, used to demonstrate divergence on
    /// cyclic inclusions (experiment E6).
    pub fn tiny() -> Self {
        Budget {
            max_instances: 25,
            max_instances_per_round: 10,
            max_branches: 120,
            max_nodes: 2_000,
            max_depth: 12,
            max_term_gen: 1,
            max_rounds: 60,
        }
    }

    /// The budget as named `u64` fields, in a fixed order, for structured
    /// serialization (cache entries, event logs).
    pub fn to_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("max_instances", self.max_instances as u64),
            (
                "max_instances_per_round",
                self.max_instances_per_round as u64,
            ),
            ("max_branches", self.max_branches),
            ("max_nodes", self.max_nodes as u64),
            ("max_depth", self.max_depth as u64),
            ("max_term_gen", u64::from(self.max_term_gen)),
            ("max_rounds", self.max_rounds as u64),
        ]
    }
}

/// The budget dimension that tripped when a proof attempt came back
/// [`Outcome::Unknown`]. Recorded at the *first* exhaustion point of the
/// search, which is deterministic for a deterministic search order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownReason {
    /// `max_instances` (or a per-round slice of it) ran out.
    Instances,
    /// `max_branches` case-split arms were explored.
    Branches,
    /// A branch's E-graph grew past `max_nodes`.
    Nodes,
    /// Case splitting nested past `max_depth`.
    Depth,
    /// `max_rounds` saturation rounds ran without a verdict.
    Rounds,
    /// A branch saturated, but only because the matching-generation limit
    /// (`max_term_gen`) deferred instantiations that might still close it.
    DeferredInstances,
}

impl UnknownReason {
    /// Stable lower-case name, used in cache entries and event logs.
    pub fn as_str(self) -> &'static str {
        match self {
            UnknownReason::Instances => "instances",
            UnknownReason::Branches => "branches",
            UnknownReason::Nodes => "nodes",
            UnknownReason::Depth => "depth",
            UnknownReason::Rounds => "rounds",
            UnknownReason::DeferredInstances => "deferred-instances",
        }
    }

    /// Inverse of [`UnknownReason::as_str`].
    pub fn from_name(name: &str) -> Option<UnknownReason> {
        Some(match name {
            "instances" => UnknownReason::Instances,
            "branches" => UnknownReason::Branches,
            "nodes" => UnknownReason::Nodes,
            "depth" => UnknownReason::Depth,
            "rounds" => UnknownReason::Rounds,
            "deferred-instances" => UnknownReason::DeferredInstances,
            _ => return None,
        })
    }

    /// Human phrasing of the exhausted dimension.
    pub fn describe(self) -> &'static str {
        match self {
            UnknownReason::Instances => "instantiation budget exhausted",
            UnknownReason::Branches => "case-split budget exhausted",
            UnknownReason::Nodes => "E-graph node budget exhausted",
            UnknownReason::Depth => "case-split depth limit reached",
            UnknownReason::Rounds => "saturation round limit reached",
            UnknownReason::DeferredInstances => "matching-generation limit deferred instantiations",
        }
    }
}

impl fmt::Display for UnknownReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// Per-quantifier telemetry: one row per structurally distinct quantified
/// axiom the search registered, keyed by the same stable id used in
/// `OOLONG_PROVER_TRACE` output (`q0`, `q1`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantProfile {
    /// Stable structural id of the quantifier.
    pub id: usize,
    /// Vocabulary classification (rep inclusion / inclusion / store / other).
    pub kind: QuantKind,
    /// Rendered trigger set (empty when the quantifier was inert).
    pub trigger: String,
    /// Trigger-match bindings found (before dedup and generation checks).
    pub matches: u64,
    /// Instantiations actually asserted.
    pub instances: u64,
    /// Instantiations asserted during background pre-saturation (context
    /// construction, before any obligation's goal exists). Zero for
    /// one-shot proofs, which have no pre-saturation phase.
    pub presat_instances: u64,
    /// Instantiations asserted inside an obligation's frame, after the
    /// goal terms were asserted. `presat_instances + goal_instances ==
    /// instances` always.
    pub goal_instances: u64,
    /// Instantiations deferred by the matching-generation limit.
    pub deferred: u64,
    /// The most recent instantiation bindings (at most three, rendered as
    /// `v := t` lists): a representative term chain for loop diagnosis.
    pub chain: Vec<String>,
}

impl QuantProfile {
    /// Total matching pressure: performed plus deferred instantiations —
    /// the sort key for divergence attribution.
    pub fn pressure(&self) -> u64 {
        self.instances + self.deferred
    }
}

impl fmt::Display for QuantProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "q{} [{}] {}: {} instances ({} presat + {} goal), {} matches",
            self.id,
            self.kind,
            if self.trigger.is_empty() {
                "(no trigger)"
            } else {
                &self.trigger
            },
            self.instances,
            self.presat_instances,
            self.goal_instances,
            self.matches,
        )?;
        if self.deferred > 0 {
            write!(f, ", {} deferred", self.deferred)?;
        }
        Ok(())
    }
}

/// Divergence attribution: which budget dimension tripped and which
/// quantified axioms were doing the most instantiation work when it did —
/// the paper's "loops irrevocably on cyclic rep inclusions" anecdote as a
/// mechanical report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// The dimension that ran out.
    pub reason: UnknownReason,
    /// Hottest quantifiers, by [`QuantProfile::pressure`], descending.
    pub culprits: Vec<QuantProfile>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}; top instantiation culprits:", self.reason)?;
        for culprit in &self.culprits {
            writeln!(f, "  {culprit}")?;
            for step in &culprit.chain {
                writeln!(f, "    at {step}")?;
            }
        }
        Ok(())
    }
}

/// Counters describing the work a proof attempt performed.
///
/// Everything here is *deterministic* for a given verification condition
/// and budget (the search is single-threaded with a fixed order), which is
/// what lets the incremental engine cache stats alongside verdicts and
/// replay them bit-for-bit on warm runs. Wall time is therefore kept out
/// of `Stats` — it lives on [`Proof::millis`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Quantifier instantiations performed.
    pub instances: usize,
    /// Case-split branches explored.
    pub branches: u64,
    /// Saturation rounds run.
    pub rounds: usize,
    /// Deepest case-split nesting reached.
    pub max_depth: usize,
    /// Largest per-branch E-graph.
    pub peak_nodes: usize,
    /// Quantified formulas registered.
    pub quants: usize,
    /// Quantifiers skipped because no usable trigger could be inferred.
    pub skipped_quants: usize,
    /// Instantiations deferred by the matching-generation limit.
    pub deferred_instances: usize,
    /// Trigger-match bindings found across all quantifiers (before dedup
    /// and generation checks).
    pub trigger_matches: u64,
    /// E-graph class merges performed, summed across branches.
    pub merges: u64,
    /// Disjunctions registered for case splitting (clause count).
    pub clauses: u64,
    /// High-water mark of the E-graph undo trail (trail-mode search only;
    /// zero under the clone-based reference strategy).
    pub trail_depth_max: usize,
    /// Checkpoints unwound by backtracking (trail mode only).
    pub pops: u64,
    /// E-graph merges rolled back by backtracking (trail mode only).
    pub undone_merges: u64,
    /// When the outcome was [`Outcome::Unknown`]: which limit tripped.
    pub exhausted: Option<UnknownReason>,
    /// Per-quantifier instantiation telemetry, ordered by stable id.
    /// Shared, not copied, between the clones of one proof's stats: a
    /// cached verdict hands the same table to its store entry, its events
    /// and its replayed verdict.
    pub per_quant: Arc<[QuantProfile]>,
}

impl Stats {
    /// The scalar counters as named `u64` fields, in a fixed order, for
    /// structured serialization (cache entries, event logs). The
    /// non-scalar members — [`Stats::exhausted`] and [`Stats::per_quant`]
    /// — are serialized separately by their consumers.
    pub fn to_fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("instances", self.instances as u64),
            ("branches", self.branches),
            ("rounds", self.rounds as u64),
            ("max_depth", self.max_depth as u64),
            ("peak_nodes", self.peak_nodes as u64),
            ("quants", self.quants as u64),
            ("skipped_quants", self.skipped_quants as u64),
            ("deferred_instances", self.deferred_instances as u64),
            ("trigger_matches", self.trigger_matches),
            ("merges", self.merges),
            ("clauses", self.clauses),
            ("trail_depth_max", self.trail_depth_max as u64),
            ("pops", self.pops),
            ("undone_merges", self.undone_merges),
        ]
    }

    /// Rebuilds counters from named fields (inverse of [`Stats::to_fields`];
    /// unknown names are ignored, missing names stay zero).
    pub fn from_fields<'a>(fields: impl IntoIterator<Item = (&'a str, u64)>) -> Stats {
        let mut stats = Stats::default();
        for (name, value) in fields {
            match name {
                "instances" => stats.instances = value as usize,
                "branches" => stats.branches = value,
                "rounds" => stats.rounds = value as usize,
                "max_depth" => stats.max_depth = value as usize,
                "peak_nodes" => stats.peak_nodes = value as usize,
                "quants" => stats.quants = value as usize,
                "skipped_quants" => stats.skipped_quants = value as usize,
                "deferred_instances" => stats.deferred_instances = value as usize,
                "trigger_matches" => stats.trigger_matches = value,
                "merges" => stats.merges = value,
                "clauses" => stats.clauses = value,
                "trail_depth_max" => stats.trail_depth_max = value as usize,
                "pops" => stats.pops = value,
                "undone_merges" => stats.undone_merges = value,
                _ => {}
            }
        }
        stats
    }

    /// The hottest quantifiers by instantiation pressure (performed plus
    /// deferred), descending, ties broken by stable id. Rows that did no
    /// matching work are omitted.
    pub fn top_culprits(&self, n: usize) -> Vec<&QuantProfile> {
        let mut hot: Vec<&QuantProfile> = self
            .per_quant
            .iter()
            .filter(|q| q.pressure() > 0 || q.matches > 0)
            .collect();
        hot.sort_by(|a, b| b.pressure().cmp(&a.pressure()).then(a.id.cmp(&b.id)));
        hot.truncate(n);
        hot
    }

    /// Divergence attribution, present exactly when the proof attempt
    /// exhausted its budget: the tripped dimension plus the top
    /// instantiation culprits.
    pub fn divergence(&self) -> Option<Divergence> {
        let reason = self.exhausted?;
        Some(Divergence {
            reason,
            culprits: self.top_culprits(5).into_iter().cloned().collect(),
        })
    }

    /// This stats record with the strategy-specific trail counters zeroed.
    /// Every other counter is identical between the trail and clone search
    /// strategies (they execute the same search); the trail counters
    /// describe the backtracking mechanism itself, so differential
    /// comparisons normalize them away with this.
    pub fn without_trail_counters(&self) -> Stats {
        Stats {
            trail_depth_max: 0,
            pops: 0,
            undone_merges: 0,
            ..self.clone()
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "instances={} matches={} branches={} rounds={} depth={} peak_nodes={} merges={} \
             clauses={} quants={} deferred={} pops={}",
            self.instances,
            self.trigger_matches,
            self.branches,
            self.rounds,
            self.max_depth,
            self.peak_nodes,
            self.merges,
            self.clauses,
            self.quants,
            self.deferred_instances,
            self.pops
        )
    }
}

/// The verdict of a proof attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The conjecture is valid: every branch closed.
    Proved,
    /// Some branch saturated without contradiction: the conjecture was not
    /// derivable with the available instantiations (for the checker this
    /// means *reject*).
    NotProved,
    /// The budget was exhausted before a verdict; the payload records
    /// which limit tripped first.
    Unknown(UnknownReason),
}

impl Outcome {
    /// Whether this is an [`Outcome::Unknown`] of any dimension.
    pub fn is_unknown(self) -> bool {
        matches!(self, Outcome::Unknown(_))
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Outcome::Proved => write!(f, "proved"),
            Outcome::NotProved => write!(f, "not proved"),
            Outcome::Unknown(reason) => write!(f, "unknown ({reason})"),
        }
    }
}

/// One E-class of a [`CandidateModel`]: the ground terms the refuting
/// branch identified, plus the class's interpreted value when it has one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelClass {
    /// A rendered representative term (leaf-preferring; `@classN` aliases
    /// for leafless cyclic classes).
    pub repr: Term,
    /// Leaf members: the free variables and interpreted constants the
    /// class contains.
    pub members: Vec<Term>,
    /// The class's interpreted constant, if any.
    pub value: Option<oolong_logic::Cst>,
}

/// One `select(store, obj, attr) = value` entry of a candidate model's
/// function graph, as indices into [`CandidateModel::classes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelSelect {
    /// Class of the store argument.
    pub store: usize,
    /// Class of the object argument.
    pub obj: usize,
    /// Class of the attribute argument.
    pub attr: usize,
    /// Class the select term evaluates into.
    pub value: usize,
}

/// One determined (or undetermined) predicate entry of a candidate model:
/// `sym(args) = value`, args as class indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelRelation {
    /// Predicate name (the E-graph symbol's debug name, e.g. `PInc`).
    pub sym: String,
    /// Argument classes.
    pub args: Vec<usize>,
    /// Truth value, when the branch determined one.
    pub value: Option<bool>,
}

/// The saturated context of the first open (refuting) branch, exported for
/// counterexample concretization: the ground E-class partition, the
/// `select` function graph, the determined predicate entries, known
/// disequalities, and the position labels asserted on the branch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CandidateModel {
    /// Position labels ([`Nnf::Lit::label`]) asserted on the branch, in
    /// assertion order, deduplicated. The *last* label is the innermost
    /// obligation the branch violates.
    pub labels: Vec<u32>,
    /// The ground E-class partition.
    pub classes: Vec<ModelClass>,
    /// `select` function-graph entries.
    pub selects: Vec<ModelSelect>,
    /// Predicate entries (`PAlive`, `PInc`, …).
    pub relations: Vec<ModelRelation>,
    /// Pairs of classes (by index, `i < j`) known disequal.
    pub diseqs: Vec<(usize, usize)>,
}

impl CandidateModel {
    /// The innermost (most recently asserted) position label of the
    /// branch: the obligation the counterexample violates.
    pub fn primary_label(&self) -> Option<u32> {
        self.labels.last().copied()
    }
}

/// The result of [`prove`]: outcome plus work counters.
#[derive(Debug, Clone)]
pub struct Proof {
    /// The verdict.
    pub outcome: Outcome,
    /// Work performed.
    pub stats: Stats,
    /// When the outcome is [`Outcome::NotProved`]: a description of the
    /// literals of the first saturated open branch (a model sketch), for
    /// diagnosing why the conjecture failed.
    pub open_branch: Option<Vec<String>>,
    /// When the outcome is [`Outcome::NotProved`]: the exported saturated
    /// context of the first open branch, for counterexample
    /// concretization and replay.
    pub model: Option<CandidateModel>,
    /// Wall-clock time of the attempt, in milliseconds. Deliberately not
    /// part of [`Stats`]: stats must be deterministic and cache-replayable.
    pub millis: f64,
}

impl Proof {
    /// Whether the conjecture was proved valid.
    pub fn is_proved(&self) -> bool {
        self.outcome == Outcome::Proved
    }

    /// Divergence attribution when the budget was exhausted (see
    /// [`Stats::divergence`]).
    pub fn divergence(&self) -> Option<Divergence> {
        self.stats.divergence()
    }
}

/// How the search backtracks out of case-split arms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SearchStrategy {
    /// One shared context; each arm runs between checkpoint and rollback
    /// on an undo trail (Simplify's undo-stack discipline). Cost per
    /// branch is proportional to the work the branch performs.
    #[default]
    Trail,
    /// The clone-based reference: each arm deep-copies the whole context.
    /// Retained for differential testing and the e15 benchmark; cost per
    /// branch is proportional to the size of the accumulated state.
    CloneSearch,
}

/// Proves `hypotheses ⇒ goal` by refuting `hypotheses ∧ ¬goal`.
pub fn prove(hypotheses: &[Formula], goal: &Formula, budget: &Budget) -> Proof {
    prove_with_strategy(hypotheses, goal, budget, SearchStrategy::Trail)
}

/// [`prove`] with an explicit backtracking strategy.
pub fn prove_with_strategy(
    hypotheses: &[Formula],
    goal: &Formula,
    budget: &Budget,
    strategy: SearchStrategy,
) -> Proof {
    let mut fresh = FreshGen::new();
    let mut parts: Vec<Nnf> = hypotheses
        .iter()
        .map(|h| to_nnf(h, true, &mut fresh))
        .collect();
    parts.push(to_nnf(goal, false, &mut fresh));
    refute_with_strategy(parts, budget, strategy)
}

/// Refutes a conjunction of NNF formulas: [`Outcome::Proved`] means the
/// conjunction is unsatisfiable.
pub fn refute(parts: Vec<Nnf>, budget: &Budget) -> Proof {
    refute_with_strategy(parts, budget, SearchStrategy::Trail)
}

/// [`refute`] with an explicit backtracking strategy. Both strategies
/// execute the identical search and report identical outcomes and
/// counters, except for the trail-specific telemetry (see
/// [`Stats::without_trail_counters`]).
pub fn refute_with_strategy(parts: Vec<Nnf>, budget: &Budget, strategy: SearchStrategy) -> Proof {
    let start = std::time::Instant::now();
    let mut shared = Shared {
        budget: budget.clone(),
        stats: Stats::default(),
        quant_ids: HashMap::new(),
        quant_meta: Vec::new(),
        fuel: None,
        open_branch: None,
        model: None,
        strategy,
        presat: false,
    };
    let mut ctx = Ctx {
        eg: EGraph::new(),
        pending: parts.into_iter().map(|p| (p, 0)).collect(),
        splits: Vec::new(),
        quants: Vec::new(),
        quant_ids_present: HashSet::new(),
        seen: HashSet::new(),
        labels: Vec::new(),
        deferred: false,
        matched_upto: 0,
        fresh_quants_from: 0,
        full_pass_merges: u64::MAX,
        trail: Vec::new(),
        recording: 0,
        match_cache: HashMap::new(),
    };
    let outcome = outcome_of(search(&mut ctx, 0, &mut shared), shared.fuel);
    let mut stats = shared.stats;
    if strategy == SearchStrategy::Trail {
        // Under the clone strategy `search` sums per-frame merge deltas;
        // with a single shared E-graph the monotonic counter is the same
        // total, counted once.
        stats.merges = ctx.eg.merges_performed();
        stats.trail_depth_max = ctx.eg.trail_high_water();
        stats.pops = ctx.eg.pops();
        stats.undone_merges = ctx.eg.undone_merges();
    }
    stats.exhausted = match outcome {
        Outcome::Unknown(reason) => Some(reason),
        _ => None,
    };
    stats.per_quant = render_per_quant(&shared.quant_meta);
    Proof {
        outcome,
        stats,
        open_branch: shared.open_branch,
        model: shared.model,
        millis: start.elapsed().as_secs_f64() * 1_000.0,
    }
}

fn outcome_of(branch: Branch, fuel: Option<UnknownReason>) -> Outcome {
    match branch {
        Branch::Closed => Outcome::Proved,
        Branch::Open => Outcome::NotProved,
        Branch::Fuel => Outcome::Unknown(fuel.unwrap_or(UnknownReason::Instances)),
    }
}

/// Renders the accumulated per-quantifier telemetry as [`QuantProfile`]
/// rows ordered by stable id.
fn render_per_quant(quant_meta: &[QuantMeta]) -> Arc<[QuantProfile]> {
    quant_meta
        .iter()
        .enumerate()
        .map(|(id, meta)| QuantProfile {
            id,
            kind: meta.kind,
            trigger: meta.trigger.clone(),
            matches: meta.matches,
            instances: meta.instances,
            presat_instances: meta.presat_instances,
            goal_instances: meta.goal_instances,
            deferred: meta.deferred,
            chain: meta
                .recent
                .iter()
                .map(|terms| {
                    meta.vars
                        .iter()
                        .zip(terms)
                        .map(|(v, t)| format!("{v} := {t}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                })
                .collect(),
        })
        .collect()
}

/// A prover context pre-loaded with a scope's shared background.
///
/// The background formulas are asserted and ground-saturated **once**; any
/// number of obligations can then be proved against the saturated state,
/// each one inside a checkpoint/rollback frame of the shared E-graph
/// (trail mode) or against a clone of it (clone mode). This amortizes
/// context construction — NNF conversion, interning, background quantifier
/// saturation — across every obligation of a scope, the way Boogie asserts
/// its `UnivBackPred` once per prover session.
///
/// Proofs are **order-independent**: every [`ScopeContext::prove`] call
/// starts from private copies of the mutable search state (statistics,
/// quantifier registry, fresh-name generator) and leaves the shared
/// E-graph exactly as it found it, so a context proves a given obligation
/// to the same [`Proof`] — outcome *and* deterministic stats — no matter
/// what was proved before it, and identically whether the context is
/// shared across a scope or built one-shot for a single obligation. The
/// differential matrix harness relies on this equivalence.
pub struct ScopeContext {
    budget: Budget,
    strategy: SearchStrategy,
    base: Ctx,
    /// Work counters accumulated while building the base. Every proof's
    /// stats start from a copy, so construction cost is reported in each
    /// proof — identically whether the context is shared or one-shot,
    /// which keeps cached stats deterministic per obligation.
    base_stats: Stats,
    base_quant_ids: HashMap<(Vec<Symbol>, Nnf), usize>,
    base_quant_meta: Vec<QuantMeta>,
    base_fresh: FreshGen,
    /// For each background formula (by index): the stable quantifier ids
    /// its assertion registered, for attributing per-quantifier telemetry
    /// to background axioms.
    axiom_quants: Vec<Vec<usize>>,
    /// Monotonic merge count consumed by base construction.
    base_merges: u64,
    /// Goal-directed background quantifiers: registered with stable ids at
    /// construction (so telemetry rows and `axiom_quants` cover them) but
    /// *not* activated in the base — each [`ScopeContext::prove`] arms a
    /// copy inside the obligation's frame, after the goal terms are
    /// asserted, and the frame rollback disarms them again.
    gated_quants: Vec<Quant>,
    /// The background itself was contradictory: every conjecture proves.
    contradictory: bool,
    /// Base saturation exhausted the budget: every proof is Unknown.
    poisoned: Option<UnknownReason>,
}

impl fmt::Debug for ScopeContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScopeContext")
            .field("strategy", &self.strategy)
            .field("axioms", &self.axiom_quants.len())
            .field("quants", &self.base_quant_meta.len())
            .field("base_merges", &self.base_merges)
            .field("contradictory", &self.contradictory)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

impl ScopeContext {
    /// Asserts and saturates `background` into a fresh context.
    ///
    /// Saturation runs the same drain / unit-propagate / instantiate loop
    /// as the search itself but never case-splits: derived facts land in
    /// the shared state, surviving disjunctions are carried into every
    /// proof's own search. A contradictory background makes every proof
    /// succeed; a background that exhausts the budget poisons the context
    /// and makes every proof report [`Outcome::Unknown`].
    pub fn new(background: &[Formula], budget: &Budget, strategy: SearchStrategy) -> ScopeContext {
        ScopeContext::new_with_phases(background, &[], budget, strategy)
    }

    /// [`ScopeContext::new`] honoring a per-axiom activation [`Phase`]
    /// (`phases[i]` schedules `background[i]`; missing entries default to
    /// [`Phase::Eager`], so the empty slice reproduces [`ScopeContext::new`]
    /// exactly).
    ///
    /// [`Phase::GoalDirected`] axioms do not participate in base
    /// saturation: their top-level quantifiers are parked in
    /// `gated_quants` (ground conjuncts, if any, are still asserted
    /// eagerly — they are facts, not matching rules) and armed inside each
    /// obligation's frame by [`ScopeContext::prove`]. The derivable facts
    /// are unchanged — every proof still sees every axiom — only *when*
    /// instantiation may happen moves, which is what keeps verdicts and
    /// labels identical across phase assignments.
    pub fn new_with_phases(
        background: &[Formula],
        phases: &[Phase],
        budget: &Budget,
        strategy: SearchStrategy,
    ) -> ScopeContext {
        let mut fresh = FreshGen::new();
        let mut shared = Shared {
            budget: budget.clone(),
            stats: Stats::default(),
            quant_ids: HashMap::new(),
            quant_meta: Vec::new(),
            fuel: None,
            open_branch: None,
            model: None,
            strategy,
            presat: true,
        };
        let mut ctx = Ctx {
            eg: EGraph::new(),
            pending: Vec::new(),
            splits: Vec::new(),
            quants: Vec::new(),
            quant_ids_present: HashSet::new(),
            seen: HashSet::new(),
            labels: Vec::new(),
            deferred: false,
            matched_upto: 0,
            fresh_quants_from: 0,
            full_pass_merges: u64::MAX,
            trail: Vec::new(),
            recording: 0,
            match_cache: HashMap::new(),
        };
        let mut axiom_quants: Vec<Vec<usize>> = Vec::with_capacity(background.len());
        let mut gated_quants: Vec<Quant> = Vec::new();
        let mut contradictory = false;
        for (i, f) in background.iter().enumerate() {
            let ids_before = shared.quant_ids.len();
            let phase = phases.get(i).copied().unwrap_or(Phase::Eager);
            let nnf = to_nnf(f, true, &mut fresh);
            match phase {
                Phase::Eager => ctx.pending.push((nnf, 0)),
                Phase::GoalDirected => {
                    // Park the top-level quantifiers; assert ground parts.
                    split_gated(nnf, &mut ctx.pending, &mut |vars, triggers, body| {
                        gated_quants.push(park_gated_quant(&mut shared, vars, triggers, body));
                    });
                }
            }
            let step = drain_pending(&mut ctx, &mut shared);
            axiom_quants.push((ids_before..shared.quant_ids.len()).collect());
            match step {
                Step::Conflict => {
                    contradictory = true;
                    break;
                }
                Step::Fuel => break,
                Step::Ok => {}
            }
        }
        axiom_quants.resize(background.len(), Vec::new());
        while !contradictory && shared.fuel.is_none() {
            match drain_pending(&mut ctx, &mut shared) {
                Step::Conflict => {
                    contradictory = true;
                    break;
                }
                Step::Fuel => break,
                Step::Ok => {}
            }
            match normalize_splits(&mut ctx) {
                Step::Conflict => {
                    contradictory = true;
                    break;
                }
                Step::Fuel => break,
                Step::Ok => {}
            }
            if !ctx.pending.is_empty() {
                continue; // unit propagation produced new facts
            }
            shared.stats.rounds += 1;
            if shared.stats.rounds > shared.budget.max_rounds {
                shared.fuel.get_or_insert(UnknownReason::Rounds);
                break;
            }
            match instantiate_round(&mut ctx, &mut shared) {
                InstResult::Progress => {}
                InstResult::Fuel | InstResult::Saturated => break,
            }
        }
        let base_merges = ctx.eg.merges_performed();
        let mut base_stats = shared.stats;
        // Pre-seed the merge counter with the base total: clone-mode
        // frame-delta accounting then adds each proof's own merges on top,
        // and the trail-mode fix-up in `prove` reproduces the same sum.
        base_stats.merges = base_merges;
        ScopeContext {
            budget: budget.clone(),
            strategy,
            base: ctx,
            base_stats,
            base_quant_ids: shared.quant_ids,
            base_quant_meta: shared.quant_meta,
            base_fresh: fresh,
            axiom_quants,
            base_merges,
            gated_quants,
            contradictory,
            poisoned: shared.fuel,
        }
    }

    /// Proves `hypotheses ⇒ goal` against the saturated background, leaving
    /// the context state untouched for the next obligation.
    pub fn prove(&mut self, hypotheses: &[Formula], goal: &Formula) -> Proof {
        let start = std::time::Instant::now();
        if self.contradictory {
            let mut stats = self.base_stats.clone();
            stats.per_quant = render_per_quant(&self.base_quant_meta);
            return Proof {
                outcome: Outcome::Proved,
                stats,
                open_branch: None,
                model: None,
                millis: start.elapsed().as_secs_f64() * 1_000.0,
            };
        }
        if let Some(reason) = self.poisoned {
            let mut stats = self.base_stats.clone();
            stats.exhausted = Some(reason);
            stats.per_quant = render_per_quant(&self.base_quant_meta);
            return Proof {
                outcome: Outcome::Unknown(reason),
                stats,
                open_branch: None,
                model: None,
                millis: start.elapsed().as_secs_f64() * 1_000.0,
            };
        }
        let mut fresh = self.base_fresh.clone();
        let mut parts: Vec<Nnf> = hypotheses
            .iter()
            .map(|h| to_nnf(h, true, &mut fresh))
            .collect();
        parts.push(to_nnf(goal, false, &mut fresh));
        let mut shared = Shared {
            budget: self.budget.clone(),
            stats: self.base_stats.clone(),
            quant_ids: self.base_quant_ids.clone(),
            quant_meta: self.base_quant_meta.clone(),
            fuel: None,
            open_branch: None,
            model: None,
            strategy: self.strategy,
            presat: false,
        };
        let (outcome, mut stats) = match self.strategy {
            SearchStrategy::Trail => {
                // Monotonic-counter samples so the proof reports only its
                // own trail work (plus the base merges), not the lifetime
                // totals of a long-lived shared E-graph.
                let merges_before = self.base.eg.merges_performed();
                let pops_before = self.base.eg.pops();
                let undone_before = self.base.eg.undone_merges();
                self.base.eg.reset_trail_high_water();
                let cp = self.base.checkpoint();
                arm_gated(&mut self.base, &mut shared, &self.gated_quants);
                self.base.pending.extend(parts.into_iter().map(|p| (p, 0)));
                let outcome = outcome_of(search(&mut self.base, 0, &mut shared), shared.fuel);
                let mut stats = shared.stats;
                stats.merges = self.base_merges + (self.base.eg.merges_performed() - merges_before);
                stats.trail_depth_max = self.base.eg.trail_high_water();
                stats.pops = self.base.eg.pops() - pops_before;
                stats.undone_merges = self.base.eg.undone_merges() - undone_before;
                self.base.rollback(cp);
                (outcome, stats)
            }
            SearchStrategy::CloneSearch => {
                let mut child = self.base.clone();
                arm_gated(&mut child, &mut shared, &self.gated_quants);
                child.pending.extend(parts.into_iter().map(|p| (p, 0)));
                let outcome = outcome_of(search(&mut child, 0, &mut shared), shared.fuel);
                (outcome, shared.stats)
            }
        };
        stats.exhausted = match outcome {
            Outcome::Unknown(reason) => Some(reason),
            _ => None,
        };
        stats.per_quant = render_per_quant(&shared.quant_meta);
        Proof {
            outcome,
            stats,
            open_branch: shared.open_branch,
            model: shared.model,
            millis: start.elapsed().as_secs_f64() * 1_000.0,
        }
    }

    /// The stable quantifier ids registered by background formula `axiom`
    /// (its index in the slice passed to [`ScopeContext::new`]). Proofs
    /// from this context report per-quantifier telemetry under these ids,
    /// so what fired can be attributed back to named axioms.
    pub fn background_quants(&self, axiom: usize) -> &[usize] {
        self.axiom_quants
            .get(axiom)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Whether the background alone was contradictory (every proof
    /// trivially succeeds).
    pub fn is_contradictory(&self) -> bool {
        self.contradictory
    }

    /// The budget dimension the base saturation exhausted, if any (every
    /// proof reports [`Outcome::Unknown`] with this reason).
    pub fn poisoned(&self) -> Option<UnknownReason> {
        self.poisoned
    }

    /// The budget the context was built with.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The search strategy the context was built with.
    pub fn strategy(&self) -> SearchStrategy {
        self.strategy
    }

    /// A rendering of the shared E-graph's state, for asserting that a
    /// proof's rollback left the context byte-clean.
    pub fn debug_state(&self) -> String {
        self.base.eg.debug_state()
    }
}

// ------------------------------------------------------------------ internals

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Branch {
    Closed,
    Open,
    Fuel,
}

struct Shared {
    budget: Budget,
    stats: Stats,
    /// Stable ids for structurally identical quantifiers.
    quant_ids: HashMap<(Vec<Symbol>, Nnf), usize>,
    /// Per-quantifier telemetry, indexed by stable id (kept in lockstep
    /// with `quant_ids`).
    quant_meta: Vec<QuantMeta>,
    /// The first budget dimension that ran out, if any.
    fuel: Option<UnknownReason>,
    /// Literals of the first saturated open branch.
    open_branch: Option<Vec<String>>,
    /// Exported context of the first saturated open branch.
    model: Option<CandidateModel>,
    /// How case-split arms are backtracked.
    strategy: SearchStrategy,
    /// Whether the search is currently in background pre-saturation (true
    /// only while [`ScopeContext::new`] builds the base); instantiations
    /// are attributed to the presat/goal telemetry split by this flag.
    presat: bool,
}

/// Accumulating telemetry for one quantifier (rendered to a
/// [`QuantProfile`] when the search finishes).
#[derive(Clone)]
struct QuantMeta {
    kind: QuantKind,
    trigger: String,
    vars: Vec<Symbol>,
    matches: u64,
    instances: u64,
    presat_instances: u64,
    goal_instances: u64,
    deferred: u64,
    /// Ring of the most recent instantiation bindings (capacity
    /// [`CHAIN_LEN`]): the representative term chain for loop diagnosis.
    recent: Vec<Vec<Term>>,
}

/// How many recent instantiation bindings each quantifier retains.
const CHAIN_LEN: usize = 3;

/// Records the first exhausted budget dimension and reports fuel-out.
fn out_of_fuel(shared: &mut Shared, reason: UnknownReason) -> Branch {
    shared.fuel.get_or_insert(reason);
    Branch::Fuel
}

#[derive(Clone)]
struct Quant {
    id: usize,
    vars: Vec<Symbol>,
    triggers: Vec<Trigger>,
    body: Nnf,
}

/// A disjunction awaiting a case split. Arms falsified by the current
/// state are *masked* (`live[k] = false`) rather than removed, so
/// backtracking revives them in O(1); dead arms are never re-evaluated.
#[derive(Clone)]
struct SplitClause {
    arms: Vec<Nnf>,
    /// Matching generation of the originating fact.
    gen: u32,
    /// Liveness mask, parallel to `arms`.
    live: Vec<bool>,
    /// Number of `true` entries in `live`.
    live_count: usize,
    /// Every arm is a choice's exit condition (stamped [`JOIN_LABEL`]).
    join: bool,
}

impl SplitClause {
    fn new(arms: Vec<Nnf>, gen: u32) -> SplitClause {
        let live = vec![true; arms.len()];
        let live_count = arms.len();
        SplitClause {
            join: !arms.is_empty() && arms.iter().all(is_join_arm),
            arms,
            gen,
            live,
            live_count,
        }
    }
}

/// Whether every arm is the same literal (up to its position label).
fn same_literal(arms: &[Nnf]) -> bool {
    let key = |arm: &Nnf| match arm {
        Nnf::Lit { atom, positive, .. } => Some((*atom, *positive)),
        _ => None,
    };
    match arms.split_first() {
        Some((first, rest)) => {
            let first = key(first);
            first.is_some() && rest.iter().all(|arm| key(arm) == first)
        }
        None => false,
    }
}

/// Whether a disjunction arm is a choice's exit condition: its literals
/// (or, for a conjunction, its top-level literals) carry [`JOIN_LABEL`].
fn is_join_arm(arm: &Nnf) -> bool {
    let join_lit = |n: &Nnf| {
        matches!(
            n,
            Nnf::Lit {
                label: Some(JOIN_LABEL),
                ..
            }
        )
    };
    match arm {
        Nnf::And(parts) => parts.iter().any(join_lit),
        other => join_lit(other),
    }
}

/// One recorded inverse of a branch-local context mutation (the
/// counterpart of the E-graph's own undo trail, for `splits` and `seen`).
/// `pending` and `quants` only grow between checkpoints, so they roll back
/// by truncation instead of per-entry records.
#[derive(Clone)]
enum CtxUndo {
    /// A clause was appended to `splits`.
    SplitAdded,
    /// `splits.swap_remove(index)` removed this clause.
    SplitRemoved { index: usize, clause: SplitClause },
    /// Arm `arm` of `splits[clause]` was masked dead.
    ArmKilled { clause: usize, arm: usize },
    /// This instantiation key was added to `seen`.
    SeenInserted { key: (usize, Vec<Term>) },
}

/// A checkpoint over the full context, taken before exploring a split arm
/// in trail mode (see [`Ctx::checkpoint`] / [`Ctx::rollback`]).
struct Checkpoint {
    eg: crate::egraph::EgMark,
    trail_len: usize,
    pending_len: usize,
    quants_len: usize,
    labels_len: usize,
    deferred: bool,
    matched_upto: usize,
    fresh_quants_from: usize,
    full_pass_merges: u64,
}

/// A full-trigger-match result, reusable while the E-graph's touch stamps
/// show none of the trigger's symbols changed — under that condition a
/// rematch would return this exact binding vector (same classes, same
/// order). Cached bindings are still *walked* normally on reuse, so
/// instance terms, deferrals, and every counter come out identical to a
/// real rematch; only the E-graph scan is skipped.
#[derive(Clone)]
struct MatchCacheEntry {
    /// Symbols the trigger's full match consults.
    syms: Vec<crate::egraph::Sym>,
    /// Touch stamp taken immediately before the cached match ran.
    stamp: u64,
    /// Head symbol, for single-pattern triggers. Such a match is an
    /// in-order scan of one symbol bucket, so when only node *creation*
    /// (never a union or removal) touched the trigger's symbols, the
    /// cached bindings extend exactly by scanning the bucket suffix.
    head: Option<crate::egraph::Sym>,
    /// Length of the head's symbol bucket when the cached match ran.
    bucket_len: usize,
    /// The bindings the full match produced.
    bindings: Vec<crate::matcher::Binding>,
}

#[derive(Clone)]
struct Ctx {
    eg: EGraph,
    /// Facts to assert, each stamped with its matching generation.
    pending: Vec<(Nnf, u32)>,
    /// Disjunctions awaiting a case split.
    splits: Vec<SplitClause>,
    quants: Vec<Quant>,
    quant_ids_present: HashSet<usize>,
    /// Instantiations already performed in this branch.
    seen: HashSet<(usize, Vec<Term>)>,
    /// Position labels of the labelled literals asserted (or found already
    /// true) on this branch, in order. Rolls back by truncation.
    labels: Vec<u32>,
    /// Whether the generation limit deferred any instantiation.
    deferred: bool,
    /// Number of E-graph nodes already covered by anchored matching.
    matched_upto: usize,
    /// Quantifiers added since the last full (unanchored) matching pass.
    fresh_quants_from: usize,
    /// E-graph merge count at the end of the last full pass: when no
    /// merges happened since, a dry anchored pass already implies
    /// saturation (anchored matching covers new nodes, registration
    /// covers new quantifiers, so only merges can enable anything else).
    full_pass_merges: u64,
    /// Undo entries for `splits`/`seen` recorded since the oldest active
    /// checkpoint (trail mode; empty in clone mode).
    trail: Vec<CtxUndo>,
    /// Active checkpoints; context mutations record onto `trail` only
    /// when non-zero.
    recording: usize,
    /// Completed full-match results per `(quantifier index, trigger
    /// index)`. Cleared wholesale on rollback: entries may reference
    /// quantifier slots a rollback truncates, and `seen` keys inserted on
    /// the unwound branch disappear with it.
    match_cache: HashMap<(usize, usize), MatchCacheEntry>,
}

impl Ctx {
    fn record(&mut self, entry: CtxUndo) {
        if self.recording > 0 {
            self.trail.push(entry);
        }
    }

    fn add_split(&mut self, clause: SplitClause) {
        self.splits.push(clause);
        self.record(CtxUndo::SplitAdded);
    }

    /// Removes clause `index` by swap, recording its reinsertion.
    fn remove_split(&mut self, index: usize) {
        let clause = self.splits.swap_remove(index);
        if self.recording > 0 {
            self.trail.push(CtxUndo::SplitRemoved { index, clause });
        }
    }

    fn kill_arm(&mut self, clause: usize, arm: usize) {
        let s = &mut self.splits[clause];
        debug_assert!(s.live[arm]);
        s.live[arm] = false;
        s.live_count -= 1;
        self.record(CtxUndo::ArmKilled { clause, arm });
    }

    /// Opens a checkpoint covering the E-graph and all branch-local state.
    fn checkpoint(&mut self) -> Checkpoint {
        self.recording += 1;
        Checkpoint {
            eg: self.eg.push(),
            trail_len: self.trail.len(),
            pending_len: self.pending.len(),
            quants_len: self.quants.len(),
            labels_len: self.labels.len(),
            deferred: self.deferred,
            matched_upto: self.matched_upto,
            fresh_quants_from: self.fresh_quants_from,
            full_pass_merges: self.full_pass_merges,
        }
    }

    /// Restores the exact state at the matching [`Ctx::checkpoint`].
    fn rollback(&mut self, cp: Checkpoint) {
        while self.trail.len() > cp.trail_len {
            match self.trail.pop().expect("length checked") {
                CtxUndo::SplitAdded => {
                    self.splits.pop();
                }
                CtxUndo::SplitRemoved { index, clause } => {
                    // Inverse of swap_remove: put the clause back at the
                    // end, then swap it into its old slot (a no-op swap
                    // when it was the last element).
                    self.splits.push(clause);
                    let last = self.splits.len() - 1;
                    self.splits.swap(index, last);
                }
                CtxUndo::ArmKilled { clause, arm } => {
                    let s = &mut self.splits[clause];
                    s.live[arm] = true;
                    s.live_count += 1;
                }
                CtxUndo::SeenInserted { key } => {
                    self.seen.remove(&key);
                }
            }
        }
        while self.quants.len() > cp.quants_len {
            let q = self.quants.pop().expect("length checked");
            self.quant_ids_present.remove(&q.id);
        }
        self.pending.truncate(cp.pending_len);
        self.labels.truncate(cp.labels_len);
        self.deferred = cp.deferred;
        self.matched_upto = cp.matched_upto;
        self.fresh_quants_from = cp.fresh_quants_from;
        self.full_pass_merges = cp.full_pass_merges;
        self.match_cache.clear();
        self.eg.pop(cp.eg);
        self.recording -= 1;
    }
}

fn search(ctx: &mut Ctx, depth: usize, shared: &mut Shared) -> Branch {
    match shared.strategy {
        // Trail mode shares one E-graph, so its monotonic merge counter
        // already counts every merge once; `refute_with_strategy` copies
        // it into the stats at the end.
        SearchStrategy::Trail => search_frame(ctx, depth, shared),
        SearchStrategy::CloneSearch => {
            // Frame-delta merge accounting: each child branch clones the
            // E-graph, so counting each frame's own growth sums every
            // merge exactly once.
            let merges_at_entry = ctx.eg.merge_count();
            let verdict = search_frame(ctx, depth, shared);
            shared.stats.merges += ctx.eg.merge_count().saturating_sub(merges_at_entry);
            verdict
        }
    }
}

fn search_frame(ctx: &mut Ctx, depth: usize, shared: &mut Shared) -> Branch {
    shared.stats.max_depth = shared.stats.max_depth.max(depth);
    if depth >= shared.budget.max_depth {
        return out_of_fuel(shared, UnknownReason::Depth);
    }
    loop {
        // 1. Assert all pending facts.
        match drain_pending(ctx, shared) {
            Step::Conflict => return Branch::Closed,
            Step::Fuel => return Branch::Fuel,
            Step::Ok => {}
        }
        // 2. Simplify disjunctions; unit-propagate.
        match normalize_splits(ctx) {
            Step::Conflict => return Branch::Closed,
            Step::Fuel => return Branch::Fuel,
            Step::Ok => {}
        }
        if !ctx.pending.is_empty() {
            continue; // unit propagation produced new facts
        }
        // 3. Saturate quantifiers BEFORE splitting: instances produced
        //    here are inherited by every branch below (via the per-branch
        //    seen-set cloned from this context), avoiding re-derivation
        //    once per branch.
        shared.stats.rounds += 1;
        if shared.stats.rounds > shared.budget.max_rounds {
            return out_of_fuel(shared, UnknownReason::Rounds);
        }
        match instantiate_round(ctx, shared) {
            InstResult::Progress => continue,
            InstResult::Fuel => return Branch::Fuel,
            InstResult::Saturated => {}
        }
        // 4. Case split if a disjunction remains.
        if let Some(idx) = pick_split(ctx) {
            // Remove the clause for the duration of the exploration (so
            // child frames don't split on it again); the removal is
            // recorded on the trail only once the arm loop is done, which
            // keeps the trail LIFO — every child checkpoint has already
            // been unwound by then.
            let clause = ctx.splits.swap_remove(idx);
            let mut any_open = false;
            let mut any_fuel = false;
            let mut fuel_out = false;
            for (k, live) in clause.live.iter().enumerate() {
                if !live {
                    continue;
                }
                shared.stats.branches += 1;
                if shared.stats.branches > shared.budget.max_branches {
                    fuel_out = true;
                    shared.fuel.get_or_insert(UnknownReason::Branches);
                    break;
                }
                let arm = clause.arms[k].clone();
                if trace_enabled() {
                    eprintln!("[{:indent$}branch {arm}]", "", indent = depth.min(20));
                }
                let verdict = match shared.strategy {
                    SearchStrategy::Trail => {
                        let cp = ctx.checkpoint();
                        ctx.pending.push((arm, clause.gen));
                        let verdict = search(ctx, depth + 1, shared);
                        ctx.rollback(cp);
                        verdict
                    }
                    SearchStrategy::CloneSearch => {
                        let mut child = ctx.clone();
                        child.pending.push((arm, clause.gen));
                        search(&mut child, depth + 1, shared)
                    }
                };
                if trace_enabled() {
                    eprintln!("[{:indent$}-> {verdict:?}]", "", indent = depth.min(20));
                }
                match verdict {
                    Branch::Closed => {}
                    Branch::Open => {
                        any_open = true;
                        break;
                    }
                    Branch::Fuel => any_fuel = true,
                }
            }
            if ctx.recording > 0 {
                ctx.trail.push(CtxUndo::SplitRemoved { index: idx, clause });
            }
            return if fuel_out {
                Branch::Fuel
            } else if any_open {
                Branch::Open
            } else if any_fuel {
                Branch::Fuel
            } else {
                Branch::Closed
            };
        }
        // 5. Fully saturated with no splits left: the branch is open.
        if ctx.deferred {
            // Instantiation was incomplete: the branch may yet be
            // contradictory at a deeper matching generation.
            return out_of_fuel(shared, UnknownReason::DeferredInstances);
        }
        if shared.open_branch.is_none() {
            shared.open_branch = Some(describe_branch(ctx));
            shared.model = Some(extract_model(ctx));
        }
        return Branch::Open;
    }
}

enum Step {
    Ok,
    Conflict,
    Fuel,
}

fn drain_pending(ctx: &mut Ctx, shared: &mut Shared) -> Step {
    while let Some((f, gen)) = ctx.pending.pop() {
        match f {
            Nnf::True => {}
            Nnf::False => return Step::Conflict,
            Nnf::And(parts) => ctx.pending.extend(parts.into_iter().map(|p| (p, gen))),
            Nnf::Or(mut parts) if same_literal(&parts) => {
                // `l ∨ l ∨ …`: one literal under several labels is a unit.
                ctx.pending.push((parts.swap_remove(0), gen));
            }
            Nnf::Or(parts) => {
                shared.stats.clauses += 1;
                ctx.add_split(SplitClause::new(parts, gen));
            }
            Nnf::Lit {
                atom,
                positive,
                label,
            } => {
                if let Some(id) = label.filter(|&id| id != JOIN_LABEL) {
                    ctx.labels.push(id);
                }
                ctx.eg.set_generation(gen);
                if assert_lit(&mut ctx.eg, &atom, positive).is_err() {
                    return Step::Conflict;
                }
                if ctx.eg.node_count() > shared.budget.max_nodes {
                    shared.fuel.get_or_insert(UnknownReason::Nodes);
                    return Step::Fuel;
                }
                shared.stats.peak_nodes = shared.stats.peak_nodes.max(ctx.eg.node_count());
            }
            Nnf::Forall {
                vars,
                triggers,
                body,
            } => {
                register_quant(ctx, shared, vars, triggers, *body);
            }
        }
    }
    Step::Ok
}

/// Splits a goal-directed background axiom's NNF into its ground conjuncts
/// (pushed onto `pending` for eager assertion — they are facts, not
/// matching rules) and its top-level quantifiers (handed to `gate`).
/// Quantifiers nested under disjunctions or other quantifiers stay where
/// they are: they only come alive through instantiation inside a frame, so
/// they are goal-directed already.
fn split_gated(
    nnf: Nnf,
    pending: &mut Vec<(Nnf, u32)>,
    gate: &mut impl FnMut(Vec<Symbol>, Vec<Trigger>, Nnf),
) {
    match nnf {
        Nnf::And(parts) => {
            for part in parts {
                split_gated(part, pending, gate);
            }
        }
        Nnf::Forall {
            vars,
            triggers,
            body,
        } => gate(vars, triggers, *body),
        other => pending.push((other, 0)),
    }
}

/// Assigns a gated quantifier its stable id and telemetry row *without*
/// activating it: the id is allocated in background order (so `axiom_quants`
/// and per-quantifier telemetry cover gated axioms exactly like eager
/// ones), but the quantifier joins no branch until [`arm_gated`] runs
/// inside an obligation frame.
fn park_gated_quant(
    shared: &mut Shared,
    vars: Vec<Symbol>,
    triggers: Vec<Trigger>,
    body: Nnf,
) -> Quant {
    let key = (vars.clone(), body.clone());
    let next_id = shared.quant_ids.len();
    let id = *shared.quant_ids.entry(key).or_insert(next_id);
    let triggers = if triggers.is_empty() {
        infer_triggers(&vars, &body)
    } else {
        triggers
    };
    if id == shared.quant_meta.len() {
        shared.quant_meta.push(QuantMeta {
            kind: classify_quant(&triggers, &body),
            trigger: triggers
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            vars: vars.clone(),
            matches: 0,
            instances: 0,
            presat_instances: 0,
            goal_instances: 0,
            deferred: 0,
            recent: Vec::new(),
        });
    }
    Quant {
        id,
        vars,
        triggers,
        body,
    }
}

/// Activates the context's gated quantifiers in the current branch. Runs
/// after the obligation frame's checkpoint (trail) or on the frame's clone,
/// so rollback/drop disarms them; armed quantifiers sit past
/// `fresh_quants_from` and get a full matching pass on the frame's first
/// saturation round, exactly like a quantifier registered by the
/// obligation itself.
fn arm_gated(ctx: &mut Ctx, shared: &mut Shared, gated: &[Quant]) {
    for q in gated {
        if !ctx.quant_ids_present.insert(q.id) {
            continue; // structurally shared with an eager axiom
        }
        shared.stats.quants += 1;
        if q.triggers.is_empty() {
            shared.stats.skipped_quants += 1;
        }
        ctx.quants.push(q.clone());
    }
}

fn register_quant(
    ctx: &mut Ctx,
    shared: &mut Shared,
    vars: Vec<Symbol>,
    triggers: Vec<Trigger>,
    body: Nnf,
) {
    let key = (vars.clone(), body.clone());
    let next_id = shared.quant_ids.len();
    let id = *shared.quant_ids.entry(key).or_insert(next_id);
    if !ctx.quant_ids_present.insert(id) {
        return; // already active in this branch
    }
    shared.stats.quants += 1;
    let triggers = if triggers.is_empty() {
        let inferred = infer_triggers(&vars, &body);
        if inferred.is_empty() {
            shared.stats.skipped_quants += 1;
            Vec::new()
        } else {
            inferred
        }
    } else {
        triggers
    };
    if id == shared.quant_meta.len() {
        // First registration of this structural quantifier anywhere in the
        // search: record its telemetry row.
        shared.quant_meta.push(QuantMeta {
            kind: classify_quant(&triggers, &body),
            trigger: triggers
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" "),
            vars: vars.clone(),
            matches: 0,
            instances: 0,
            presat_instances: 0,
            goal_instances: 0,
            deferred: 0,
            recent: Vec::new(),
        });
    }
    if trace_enabled() {
        eprintln!(
            "[quant q{id} ∀{} {} :: {body}]",
            vars.iter()
                .map(|v| v.as_str())
                .collect::<Vec<_>>()
                .join(","),
            triggers
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    ctx.quants.push(Quant {
        id,
        vars,
        triggers,
        body,
    });
}

fn assert_lit(eg: &mut EGraph, atom: &Atom, positive: bool) -> Result<(), crate::egraph::Conflict> {
    match atom {
        Atom::Eq(a, b) => {
            let a = eg.intern(a)?;
            let b = eg.intern(b)?;
            if positive {
                eg.merge(a, b)
            } else {
                eg.assert_diseq(a, b)
            }
        }
        other => {
            let node = eg.intern_atom(other)?.expect("non-Eq atoms have nodes");
            let target = if positive {
                eg.true_id()
            } else {
                eg.false_id()
            };
            eg.merge(node, target)
        }
    }
}

/// Truth of a literal under the current E-graph, if determined.
fn lit_truth(eg: &mut EGraph, atom: &Atom, positive: bool) -> Option<bool> {
    let raw = match atom {
        Atom::Eq(a, b) => {
            let a = eg.intern(a).ok()?;
            let b = eg.intern(b).ok()?;
            if eg.same_class(a, b) {
                Some(true)
            } else if eg.known_disequal(a, b) {
                Some(false)
            } else {
                None
            }
        }
        other => {
            let node = eg.intern_atom(other).ok()??;
            eg.bool_value(node)
        }
    };
    raw.map(|v| if positive { v } else { !v })
}

fn normalize_splits(ctx: &mut Ctx) -> Step {
    let mut i = 0;
    while i < ctx.splits.len() {
        let mut satisfied = false;
        let arm_count = ctx.splits[i].arms.len();
        // A join's exit equations are goal terms: intern them at the
        // clause's generation, not at whatever instance was asserted last,
        // so reasoning along a chain of joins is not deferred.
        let join_gen = ctx.splits[i].join.then_some(ctx.splits[i].gen);
        for k in 0..arm_count {
            if !ctx.splits[i].live[k] {
                continue;
            }
            // Evaluating a literal interns its atom (mutating the
            // E-graph), so take the arm out of the clause for the call.
            let arm = std::mem::replace(&mut ctx.splits[i].arms[k], Nnf::True);
            let (truth, label) = match &arm {
                Nnf::True => (Some(true), None),
                Nnf::False => (Some(false), None),
                Nnf::Lit {
                    atom,
                    positive,
                    label,
                } => match join_gen {
                    Some(gen) => {
                        let current = ctx.eg.generation();
                        ctx.eg.set_generation(gen);
                        let truth = lit_truth(&mut ctx.eg, atom, *positive);
                        ctx.eg.set_generation(current);
                        (truth, *label)
                    }
                    None => (lit_truth(&mut ctx.eg, atom, *positive), *label),
                },
                _ => (None, None),
            };
            ctx.splits[i].arms[k] = arm;
            match truth {
                Some(true) => {
                    // A labelled literal that already holds on the branch
                    // still stamps the branch with its position.
                    if let Some(id) = label.filter(|&id| id != JOIN_LABEL) {
                        ctx.labels.push(id);
                    }
                    satisfied = true;
                }
                Some(false) => ctx.kill_arm(i, k),
                None => {}
            }
        }
        if satisfied {
            ctx.remove_split(i);
            continue;
        }
        match ctx.splits[i].live_count {
            0 => return Step::Conflict,
            1 => {
                let k = ctx.splits[i]
                    .live
                    .iter()
                    .position(|&l| l)
                    .expect("live_count is 1");
                let arm = ctx.splits[i].arms[k].clone();
                ctx.pending.push((arm, ctx.splits[i].gen));
                ctx.remove_split(i);
                // Re-examine remaining splits after the new fact lands.
                return Step::Ok;
            }
            _ => {
                i += 1;
            }
        }
    }
    Step::Ok
}

/// The clause to split next: the fewest live arms, then the oldest
/// generation. While a choice's join disjunction is open, the goal's own
/// clauses (generation 0: the obligations and the disjunctions around
/// them) go first, so a branch refutes or closes each obligation before it
/// enumerates the paths that reach it. Without a join — every VC of a
/// choice-free body — the order is the plain one.
fn pick_split(ctx: &Ctx) -> Option<usize> {
    let best = |eligible: &dyn Fn(&SplitClause) -> bool| {
        ctx.splits
            .iter()
            .enumerate()
            .filter(|(_, clause)| eligible(clause))
            .min_by_key(|(_, clause)| (clause.live_count, clause.gen))
            .map(|(i, _)| i)
    };
    if ctx.splits.iter().any(|clause| clause.join) {
        if let Some(goal) = best(&|clause| clause.gen == 0 && !clause.join) {
            return Some(goal);
        }
    }
    best(&|_| true)
}

enum InstResult {
    Progress,
    Saturated,
    Fuel,
}

/// Renders the determined predicate nodes of a saturated branch, for
/// diagnosis of failed proofs.
fn describe_branch(ctx: &Ctx) -> Vec<String> {
    use crate::egraph::Sym;
    let mut out = Vec::new();
    let mut aliases = Vec::new();
    for sym in [
        Sym::PAlive,
        Sym::PLocalInc,
        Sym::PRepInc,
        Sym::PInc,
        Sym::PLt,
        Sym::PLe,
        Sym::PIsObj,
        Sym::PIsInt,
        Sym::PRepIncElem,
    ] {
        for &node in ctx.eg.nodes_with_sym(&sym) {
            let value = match ctx.eg.bool_value(node) {
                Some(true) => "true",
                Some(false) => "false",
                None => "?",
            };
            let args: Vec<String> = ctx
                .eg
                .node(node)
                .children
                .clone()
                .into_iter()
                .map(|c| term_of(&ctx.eg, c, &mut aliases).to_string())
                .collect();
            out.push(format!("{sym:?}({}) = {value}", args.join(", ")));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// How many E-classes the pairwise disequality scan of [`extract_model`]
/// covers. Refuting branches are small in practice; the cap only guards
/// against quadratic blowup on pathological saturations.
const MODEL_DISEQ_CLASS_CAP: usize = 256;

/// Exports the saturated branch context as a [`CandidateModel`]: the
/// ground E-class partition, the `select` function graph, the determined
/// predicate entries, known disequalities, and the position labels
/// asserted on the branch.
fn extract_model(ctx: &Ctx) -> CandidateModel {
    use crate::egraph::Sym;
    let eg = &ctx.eg;
    let mut aliases = Vec::new();
    // Partition the nodes into classes, indexed in first-appearance order
    // (deterministic: node ids are allocation-ordered).
    let mut index: HashMap<NodeId, usize> = HashMap::new();
    let mut roots: Vec<NodeId> = Vec::new();
    let mut classes: Vec<ModelClass> = Vec::new();
    for id in 0..eg.node_count() as NodeId {
        let root = eg.find(id);
        let idx = *index.entry(root).or_insert_with(|| {
            roots.push(root);
            classes.push(ModelClass {
                repr: term_of(eg, root, &mut aliases),
                members: Vec::new(),
                value: eg.class_value(root).cloned(),
            });
            classes.len() - 1
        });
        match &eg.node(id).sym {
            Sym::Var(name) => classes[idx].members.push(Term::var(*name)),
            Sym::Lit(c) => classes[idx].members.push(Term::lit(*c)),
            _ => {}
        }
    }
    let class_of = |id: NodeId| index[&eg.find(id)];
    let mut selects = Vec::new();
    for &node in eg.nodes_with_sym(&Sym::Select) {
        let ch = &eg.node(node).children;
        if ch.len() == 3 {
            selects.push(ModelSelect {
                store: class_of(ch[0]),
                obj: class_of(ch[1]),
                attr: class_of(ch[2]),
                value: class_of(node),
            });
        }
    }
    selects.sort_unstable_by_key(|s| (s.store, s.obj, s.attr, s.value));
    selects.dedup();
    let mut relations = Vec::new();
    for sym in [
        Sym::PAlive,
        Sym::PLocalInc,
        Sym::PRepInc,
        Sym::PInc,
        Sym::PLt,
        Sym::PLe,
        Sym::PIsObj,
        Sym::PIsInt,
        Sym::PRepIncElem,
    ] {
        for &node in eg.nodes_with_sym(&sym) {
            relations.push(ModelRelation {
                sym: format!("{sym:?}"),
                args: eg
                    .node(node)
                    .children
                    .iter()
                    .map(|&c| class_of(c))
                    .collect(),
                value: eg.bool_value(node),
            });
        }
    }
    relations.sort_unstable_by(|a, b| (&a.sym, &a.args).cmp(&(&b.sym, &b.args)));
    relations.dedup();
    let mut diseqs = Vec::new();
    let scan = roots.len().min(MODEL_DISEQ_CLASS_CAP);
    for i in 0..scan {
        for j in i + 1..scan {
            if eg.known_disequal(roots[i], roots[j]) {
                diseqs.push((i, j));
            }
        }
    }
    let mut labels = Vec::new();
    for &l in &ctx.labels {
        if !labels.contains(&l) {
            labels.push(l);
        }
    }
    CandidateModel {
        labels,
        classes,
        selects,
        relations,
        diseqs,
    }
}

/// Whether the `OOLONG_PROVER_TRACE` environment variable enables
/// instantiation tracing on stderr (checked once per process).
fn trace_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("OOLONG_PROVER_TRACE").is_some())
}

/// One saturation round. Mostly *incremental*: new quantifiers are matched
/// fully once, old quantifiers are matched only against nodes created
/// since the last round (anchored matching). When an incremental round
/// produces nothing, a full pass confirms saturation.
fn instantiate_round(ctx: &mut Ctx, shared: &mut Shared) -> InstResult {
    let produced = instantiate_pass(ctx, shared, false);
    match produced {
        PassResult::Produced(n) if n > 0 => return InstResult::Progress,
        PassResult::Fuel => return InstResult::Fuel,
        _ => {}
    }
    // Incremental pass was dry. A full pass can only find more if a merge
    // happened since the previous full pass (new nodes and new quantifiers
    // are already covered incrementally).
    if ctx.eg.merge_count() == ctx.full_pass_merges {
        return InstResult::Saturated;
    }
    let result = match instantiate_pass(ctx, shared, true) {
        PassResult::Produced(0) => InstResult::Saturated,
        PassResult::Produced(_) => InstResult::Progress,
        PassResult::Fuel => InstResult::Fuel,
    };
    ctx.full_pass_merges = ctx.eg.merge_count();
    result
}

enum PassResult {
    Produced(usize),
    Fuel,
}

// TEMP instrumentation

/// `term_of`, memoized by class root for the duration of one pass. The
/// E-graph only changes mid-pass through alias merges, which bump the
/// (node, merge) counts and flush the memo; results that pushed aliases
/// carry a side effect and are never cached. Under those rules a hit
/// returns exactly what a fresh `term_of` call would.
fn term_of_memo(
    eg: &EGraph,
    id: crate::egraph::NodeId,
    aliases: &mut Vec<(Term, crate::egraph::NodeId)>,
    memo: &mut HashMap<crate::egraph::NodeId, Term>,
    version: &mut (usize, u64),
) -> Term {
    let now = (eg.node_count(), eg.merge_count());
    if *version != now {
        memo.clear();
        *version = now;
    }
    let root = eg.find(id);
    if let Some(&t) = memo.get(&root) {
        return t;
    }
    let before = aliases.len();
    let t = term_of(eg, id, aliases);
    if aliases.len() == before {
        memo.insert(root, t);
    }
    t
}

fn instantiate_pass(ctx: &mut Ctx, shared: &mut Shared, full: bool) -> PassResult {
    let mut term_memo: HashMap<crate::egraph::NodeId, Term> = HashMap::new();
    let mut memo_version: (usize, u64) = (0, 0);

    let mut produced = 0;
    let new_nodes: Vec<crate::egraph::NodeId> = if full {
        Vec::new()
    } else {
        (ctx.matched_upto..ctx.eg.node_count())
            .map(|i| i as crate::egraph::NodeId)
            .collect()
    };
    let fresh_from = ctx.fresh_quants_from;
    ctx.matched_upto = ctx.eg.node_count();
    ctx.fresh_quants_from = ctx.quants.len();
    // Split borrows: quantifiers are only registered by `drain_pending`,
    // never during a pass, so the list can be iterated in place while the
    // E-graph, seen-set, and pending queue are mutated.
    let Ctx {
        eg,
        pending,
        quants,
        seen,
        deferred,
        trail,
        recording,
        match_cache,
        ..
    } = ctx;
    // Bucket the new nodes by head symbol once: anchored matching can only
    // pin a pattern at a node whose head symbol one of the trigger's
    // patterns carries, so each trigger sweeps its head buckets instead of
    // every new node.
    let mut by_head: HashMap<crate::egraph::Sym, Vec<crate::egraph::NodeId>> = HashMap::new();
    for &node in &new_nodes {
        by_head.entry(eg.node(node).sym).or_default().push(node);
    }
    for (qi, quant) in quants.iter().enumerate() {
        for (ti, trigger) in quant.triggers.iter().enumerate() {
            let full_match = full || qi >= fresh_from;
            let anchored_bindings;
            let bindings: &[crate::matcher::Binding] = if full_match {
                // Full pass, or a quantifier registered since the last
                // pass: match against the whole graph — unless an earlier
                // full match of this trigger is still valid, in which case
                // a rematch would return the identical binding vector and
                // the cached one is walked instead. Walking (not skipping)
                // keeps instance terms, deferrals, and counters exact.
                enum Plan {
                    Hit,
                    Extend,
                    Rescan,
                }
                let plan = match match_cache.get(&(qi, ti)) {
                    Some(e) if eg.syms_unchanged_since(&e.syms, e.stamp) => Plan::Hit,
                    Some(e)
                        if e.head.is_some() && eg.syms_struct_unchanged_since(&e.syms, e.stamp) =>
                    {
                        Plan::Extend
                    }
                    _ => Plan::Rescan,
                };
                match plan {
                    Plan::Hit => {}
                    Plan::Extend => {
                        // Only node creation touched the trigger's symbols:
                        // every cached match survives with its dedup key, and
                        // new matches can only sit at nodes appended to the
                        // head bucket. Scanning that suffix reproduces a full
                        // rescan exactly, in order.
                        let e = match_cache.get_mut(&(qi, ti)).expect("entry exists");
                        let head = e.head.expect("extend plan implies head");
                        e.stamp = eg.touch_stamp();
                        crate::matcher::match_trigger_extend(
                            eg,
                            &quant.vars,
                            trigger,
                            head,
                            e.bucket_len,
                            &mut e.bindings,
                        );
                        e.bucket_len = eg.nodes_with_sym(&head).len();
                    }
                    Plan::Rescan => {
                        let stamp = eg.touch_stamp();
                        let bindings = match_trigger(eg, &quant.vars, trigger);
                        let head = crate::matcher::trigger_single_head(trigger);
                        let bucket_len = head.map_or(0, |h| eg.nodes_with_sym(&h).len());
                        match_cache.insert(
                            (qi, ti),
                            MatchCacheEntry {
                                syms: crate::matcher::trigger_syms(&quant.vars, trigger),
                                stamp,
                                head,
                                bucket_len,
                                bindings,
                            },
                        );
                    }
                }
                &match_cache[&(qi, ti)].bindings
            } else {
                let heads = crate::matcher::trigger_heads(trigger);
                let mut candidates: Vec<crate::egraph::NodeId> = Vec::new();
                for head in &heads {
                    if let Some(bucket) = by_head.get(head) {
                        candidates.extend_from_slice(bucket);
                    }
                }
                if heads.len() > 1 {
                    // Restore creation order across buckets (each bucket is
                    // already ordered); a node can appear in only one.
                    candidates.sort_unstable();
                }
                let mut out = Vec::new();
                for &node in &candidates {
                    out.extend(match_trigger_anchored(eg, &quant.vars, trigger, node));
                }
                anchored_bindings = out;
                &anchored_bindings
            };
            shared.stats.trigger_matches += bindings.len() as u64;
            shared.quant_meta[quant.id].matches += bindings.len() as u64;
            for binding in bindings {
                let bound = |hole: usize| binding.node(hole as u16).expect("binding is complete");
                let binding_gen = (0..quant.vars.len())
                    .map(|hole| eg.class_gen(bound(hole)))
                    .max()
                    .unwrap_or(0);
                let instance_gen = binding_gen + 1;
                if instance_gen > shared.budget.max_term_gen {
                    *deferred = true;
                    shared.stats.deferred_instances += 1;
                    shared.quant_meta[quant.id].deferred += 1;
                    continue;
                }
                let mut aliases = Vec::new();
                let terms: Vec<Term> = (0..quant.vars.len())
                    .map(|hole| {
                        term_of_memo(
                            eg,
                            bound(hole),
                            &mut aliases,
                            &mut term_memo,
                            &mut memo_version,
                        )
                    })
                    .collect();
                let key = (quant.id, terms.clone());
                if seen.contains(&key) {
                    continue;
                }
                if *recording > 0 {
                    trail.push(CtxUndo::SeenInserted { key: key.clone() });
                }
                seen.insert(key);
                // Definitional aliases keep instantiation sound for
                // leafless cyclic classes.
                for (alias, root) in aliases {
                    let Ok(alias_id) = eg.intern(&alias) else {
                        shared.fuel.get_or_insert(UnknownReason::Instances);
                        return PassResult::Fuel;
                    };
                    if eg.merge(alias_id, root).is_err() {
                        // The alias equates a class with itself; a conflict
                        // here means the branch is already contradictory.
                        pending.push((Nnf::False, instance_gen));
                        return PassResult::Produced(produced + 1);
                    }
                }
                let map: Vec<(Symbol, Term)> = quant.vars.iter().copied().zip(terms).collect();
                if trace_enabled() {
                    let binding: Vec<String> =
                        map.iter().map(|(v, t)| format!("{v}:={t}")).collect();
                    eprintln!("[inst q{} {}]", quant.id, binding.join(", "));
                }
                pending.push((quant.body.subst(&map), instance_gen));
                produced += 1;
                shared.stats.instances += 1;
                let meta = &mut shared.quant_meta[quant.id];
                meta.instances += 1;
                if shared.presat {
                    meta.presat_instances += 1;
                } else {
                    meta.goal_instances += 1;
                }
                if meta.recent.len() == CHAIN_LEN {
                    meta.recent.remove(0);
                }
                meta.recent.push(map.iter().map(|(_, t)| *t).collect());
                if shared.stats.instances >= shared.budget.max_instances {
                    shared.fuel.get_or_insert(UnknownReason::Instances);
                    return PassResult::Fuel;
                }
                if produced >= shared.budget.max_instances_per_round {
                    return PassResult::Produced(produced);
                }
            }
        }
    }
    PassResult::Produced(produced)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oolong_logic::{Formula as F, Pattern, Term as T};

    fn proved(hyps: &[F], goal: &F) -> bool {
        prove(hyps, goal, &Budget::default()).is_proved()
    }

    #[test]
    fn proves_reflexivity() {
        assert!(proved(&[], &F::eq(T::var("x"), T::var("x"))));
    }

    #[test]
    fn does_not_prove_false() {
        let p = prove(&[], &F::False, &Budget::default());
        assert_eq!(p.outcome, Outcome::NotProved);
    }

    #[test]
    fn proves_transitivity_of_equality() {
        let hyps = [
            F::eq(T::var("a"), T::var("b")),
            F::eq(T::var("b"), T::var("c")),
        ];
        assert!(proved(&hyps, &F::eq(T::var("a"), T::var("c"))));
    }

    #[test]
    fn proves_congruence() {
        let hyps = [F::eq(T::var("a"), T::var("b"))];
        let goal = F::eq(
            T::uninterp("f", vec![T::var("a")]),
            T::uninterp("f", vec![T::var("b")]),
        );
        assert!(proved(&hyps, &goal));
    }

    #[test]
    fn refutes_distinct_constants() {
        assert!(proved(
            &[F::eq(T::var("x"), T::int(1)), F::eq(T::var("x"), T::int(2))],
            &F::False
        ));
    }

    #[test]
    fn case_split_on_disjunction() {
        // (x = 1 ∨ x = 2) ⇒ x ≠ 3
        let hyp = F::or(vec![
            F::eq(T::var("x"), T::int(1)),
            F::eq(T::var("x"), T::int(2)),
        ]);
        assert!(proved(&[hyp], &F::neq(T::var("x"), T::int(3))));
    }

    #[test]
    fn does_not_prove_too_much_from_disjunction() {
        let hyp = F::or(vec![
            F::eq(T::var("x"), T::int(1)),
            F::eq(T::var("x"), T::int(2)),
        ]);
        let p = prove(&[hyp], &F::eq(T::var("x"), T::int(1)), &Budget::default());
        assert_eq!(p.outcome, Outcome::NotProved);
    }

    #[test]
    fn modus_ponens_via_disjunction() {
        // (p ⇒ q), p ⊢ q  with p, q boolean terms.
        let p = F::Atom(Atom::BoolTerm(T::var("p")));
        let q = F::Atom(Atom::BoolTerm(T::var("q")));
        assert!(proved(&[F::implies(p.clone(), q.clone()), p], &q));
    }

    #[test]
    fn instantiates_universal_hypothesis() {
        // ∀X {f(X)} :: f(X) = 0, with f(c) present ⊢ f(c) = 0.
        let body = F::eq(T::uninterp("f", vec![T::var("X")]), T::int(0));
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        let goal = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(0));
        assert!(proved(&[hyp], &goal));
    }

    #[test]
    fn chained_instantiation() {
        // ∀X :: f(X) = g(X); ∀X :: g(X) = 0 ⊢ f(c) = 0.
        let h1 = F::forall(
            vec!["X".into()],
            vec![Trigger(vec![Pattern::Term(T::uninterp(
                "f",
                vec![T::var("X")],
            ))])],
            F::eq(
                T::uninterp("f", vec![T::var("X")]),
                T::uninterp("g", vec![T::var("X")]),
            ),
        );
        let h2 = F::forall(
            vec!["X".into()],
            vec![Trigger(vec![Pattern::Term(T::uninterp(
                "g",
                vec![T::var("X")],
            ))])],
            F::eq(T::uninterp("g", vec![T::var("X")]), T::int(0)),
        );
        let goal = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(0));
        assert!(proved(&[h1, h2], &goal));
    }

    #[test]
    fn existential_goal_via_witness() {
        // f(c) = 1 ⊢ ∃X :: f(X) = 1 — note the negated goal becomes
        // ∀X :: f(X) ≠ 1, instantiated at X := c by the f(X) trigger.
        let hyp = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(1));
        let goal = F::exists(
            vec!["X".into()],
            F::eq(T::uninterp("f", vec![T::var("X")]), T::int(1)),
        );
        assert!(proved(&[hyp], &goal));
    }

    #[test]
    fn arithmetic_evaluation_in_proofs() {
        // x = 2 ⊢ x + 3 = 5.
        let hyp = F::eq(T::var("x"), T::int(2));
        let goal = F::eq(T::add(T::var("x"), T::int(3)), T::int(5));
        assert!(proved(&[hyp], &goal));
    }

    #[test]
    fn comparison_atoms() {
        let goal = F::Atom(Atom::Lt(T::int(1), T::int(2)));
        assert!(proved(&[], &goal));
        let bad = F::Atom(Atom::Lt(T::int(2), T::int(1)));
        assert_eq!(
            prove(&[], &bad, &Budget::default()).outcome,
            Outcome::NotProved
        );
    }

    #[test]
    fn unknown_on_tiny_budget_with_looping_axiom() {
        // ∀X {f(X)} :: f(g(X)) = X — each instantiation creates a fresh
        // f-term over a new g-chain, matching again: a true matching loop.
        // (Note: the milder f(f(X)) = f(X) loop *converges* in our E-graph
        // because instances collapse into existing classes.)
        let body = F::eq(
            T::uninterp("f", vec![T::uninterp("g", vec![T::var("X")])]),
            T::var("X"),
        );
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        let seed = F::eq(T::uninterp("f", vec![T::var("c")]), T::var("d"));
        // Unprovable goal, diverging instantiation: tiny budget gives Unknown.
        let p = prove(&[hyp, seed], &F::False, &Budget::tiny());
        assert!(p.outcome.is_unknown(), "outcome: {}", p.outcome);
        assert!(p.stats.instances > 0);
        // The divergence attributor names the looping axiom.
        let divergence = p.divergence().expect("unknown proofs attribute divergence");
        assert!(!divergence.culprits.is_empty());
        let culprit = &divergence.culprits[0];
        assert!(culprit.instances > 0);
        assert!(
            !culprit.chain.is_empty(),
            "culprits carry a representative term chain"
        );
        assert!(
            culprit.trigger.contains('f'),
            "trigger: {}",
            culprit.trigger
        );
    }

    #[test]
    fn unknown_display_names_the_exhausted_dimension() {
        assert_eq!(
            Outcome::Unknown(UnknownReason::Instances).to_string(),
            "unknown (instantiation budget exhausted)"
        );
        assert_eq!(
            Outcome::Unknown(UnknownReason::Branches).to_string(),
            "unknown (case-split budget exhausted)"
        );
        assert_eq!(
            Outcome::Unknown(UnknownReason::DeferredInstances).to_string(),
            "unknown (matching-generation limit deferred instantiations)"
        );
    }

    #[test]
    fn unknown_reason_names_round_trip() {
        for reason in [
            UnknownReason::Instances,
            UnknownReason::Branches,
            UnknownReason::Nodes,
            UnknownReason::Depth,
            UnknownReason::Rounds,
            UnknownReason::DeferredInstances,
        ] {
            assert_eq!(UnknownReason::from_name(reason.as_str()), Some(reason));
        }
        assert_eq!(UnknownReason::from_name("bogus"), None);
    }

    #[test]
    fn stats_scalar_fields_round_trip() {
        let body = F::eq(T::uninterp("f", vec![T::var("X")]), T::int(0));
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        // The chain a = b = c forces benign merges before the goal closes.
        let chain = [
            F::eq(T::var("a"), T::var("b")),
            F::eq(T::var("b"), T::var("c")),
            F::eq(T::uninterp("f", vec![T::var("a")]), T::var("a")),
        ];
        let goal = F::eq(T::uninterp("f", vec![T::var("c")]), T::int(0));
        let mut hyps = vec![hyp];
        hyps.extend(chain);
        let p = prove(&hyps, &goal, &Budget::default());
        let rebuilt = Stats::from_fields(p.stats.to_fields());
        // Scalars round-trip; the structured members are serialized
        // separately by the cache.
        assert_eq!(rebuilt.instances, p.stats.instances);
        assert_eq!(rebuilt.trigger_matches, p.stats.trigger_matches);
        assert_eq!(rebuilt.merges, p.stats.merges);
        assert_eq!(rebuilt.clauses, p.stats.clauses);
        assert!(p.stats.merges > 0, "asserting literals merges classes");
        assert!(p.stats.trigger_matches >= p.stats.instances as u64);
    }

    #[test]
    fn convergent_rewrite_loop_saturates() {
        // f(f(X)) = f(X) collapses into finitely many classes: the prover
        // saturates and answers NotProved instead of diverging.
        let body = F::eq(
            T::uninterp("f", vec![T::uninterp("f", vec![T::var("X")])]),
            T::uninterp("f", vec![T::var("X")]),
        );
        let trig = Trigger(vec![Pattern::Term(T::uninterp("f", vec![T::var("X")]))]);
        let hyp = F::forall(vec!["X".into()], vec![trig], body);
        let seed = F::eq(T::uninterp("f", vec![T::var("c")]), T::var("d"));
        let p = prove(&[hyp, seed], &F::False, &Budget::default());
        assert_eq!(p.outcome, Outcome::NotProved);
    }

    #[test]
    fn iff_hypothesis_used_both_ways() {
        let p = F::Atom(Atom::BoolTerm(T::var("p")));
        let q = F::Atom(Atom::BoolTerm(T::var("q")));
        let iff = F::Iff(Box::new(p.clone()), Box::new(q.clone()));
        assert!(proved(&[iff.clone(), q.clone()], &p));
        assert!(proved(&[iff, F::not(p.clone())], &F::not(q)));
    }

    #[test]
    fn repeated_literal_disjunction_is_a_unit() {
        // ¬(⟨L0: a = 1⟩ ∧ ⟨L1: a = 1⟩) is `a ≠ 1 ∨ a ≠ 1`: no case split,
        // and the refutation blames the first label.
        let obligation = |id| F::labeled(id, F::eq(T::var("a"), T::int(1)));
        let proof = prove(
            &[],
            &F::and(vec![obligation(0), obligation(1)]),
            &Budget::default(),
        );
        assert_eq!(proof.outcome, Outcome::NotProved);
        assert_eq!(proof.stats.branches, 0);
        assert_eq!(proof.model.expect("refutation model").labels, vec![0]);
    }

    #[test]
    fn join_waits_for_the_goal_clauses() {
        // ∀j :: (j = 1 ∨ j = 2) ⇒
        //     (⟨L0: b = 1 ∨ d = 1⟩ ∧ ⟨L1: c = 1 ∨ e = 1⟩ ∧ ⟨L2: j ≠ 0⟩)
        // with b = c = 1 known. The negated goal clause has three arms and
        // the join two, so the plain order would split the join first and
        // the goal clause under each of its arms (6 branches); goal
        // clauses first, each obligation closes in one branch and the
        // join is never split.
        let j = || T::var("j");
        let exits = F::or(vec![F::eq(j(), T::int(1)), F::eq(j(), T::int(2))]);
        let goal = F::forall(
            vec!["j".into()],
            vec![],
            F::implies(
                F::labeled(JOIN_LABEL, exits),
                F::and(vec![
                    F::labeled(
                        0,
                        F::or(vec![
                            F::eq(T::var("b"), T::int(1)),
                            F::eq(T::var("d"), T::int(1)),
                        ]),
                    ),
                    F::labeled(
                        1,
                        F::or(vec![
                            F::eq(T::var("c"), T::int(1)),
                            F::eq(T::var("e"), T::int(1)),
                        ]),
                    ),
                    F::labeled(2, F::neq(j(), T::int(0))),
                ]),
            ),
        );
        let known = [F::eq(T::var("b"), T::int(1)), F::eq(T::var("c"), T::int(1))];
        let proof = prove(&known, &goal, &Budget::default());
        assert!(proof.is_proved());
        assert_eq!(proof.stats.branches, 3, "one branch per obligation");
    }

    #[test]
    fn unit_propagation_avoids_branching() {
        // (a = 1 ∨ b = 1), a ≠ 1 ⊢ b = 1 without any case split.
        let hyp = F::or(vec![
            F::eq(T::var("a"), T::int(1)),
            F::eq(T::var("b"), T::int(1)),
        ]);
        let neq = F::neq(T::var("a"), T::int(1));
        let proof = prove(
            &[hyp, neq],
            &F::eq(T::var("b"), T::int(1)),
            &Budget::default(),
        );
        assert!(proof.is_proved());
        assert_eq!(
            proof.stats.branches, 0,
            "unit propagation should not branch"
        );
    }

    #[test]
    fn stats_are_populated() {
        // Each arm only becomes contradictory after the split commits to a
        // value of x, forcing genuine branching.
        let hyp = F::or(vec![
            F::eq(T::var("x"), T::int(1)),
            F::eq(T::var("x"), T::int(2)),
        ]);
        let y5 = F::eq(T::var("y"), T::int(5));
        let goal = F::neq(T::add(T::var("x"), T::var("y")), T::int(0));
        let proof = prove(&[hyp, y5], &goal, &Budget::default());
        assert!(proof.is_proved());
        assert!(proof.stats.branches >= 2, "stats: {}", proof.stats);
        assert!(proof.stats.peak_nodes > 0);
    }
}
