//! The traced replay: the same inputs pushed through each layer's public
//! function in pipeline order, with a span recorded around every call.
//!
//! Spans live in memory ([`Tracer`]) and are written out once, at the
//! end of the run. A layer's self time is its span minus the time its
//! child spans cover. The replay mirrors what `Engine::check_source`
//! does for one unit: parse, scope analysis, the restriction check, VC
//! generation, fingerprinting and proving per implementation, plus
//! diagnosis of refutations and frame inference where a workload asks
//! for them.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

use datagroups::{CheckOptions, Checker, Verdict};
use oolong_diagnose::diagnose_refutation;
use oolong_engine::{fingerprint_vc, Engine, Fingerprint};
use oolong_sema::Scope;
use oolong_syntax::parse_program;

use crate::inputs::{outcome_of, Outcome, Unit};
use crate::stats::Counters;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The unit or request the span belongs to.
    pub id: u64,
}

/// An in-memory span recorder. When disabled it records nothing, so the
/// same replay code measures the untraced baseline for the tracing
/// overhead.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes the innermost span, renaming it when the outcome decides
    /// which layer it belongs to.
    pub fn end(&mut self, span: Option<usize>, rename: Option<&'static str>) {
        let Some(idx) = span else { return };
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(idx), "spans close innermost first");
        let now = self.now_ns();
        let s = &mut self.spans[idx];
        s.end_ns = now;
        if let Some(name) = rename {
            s.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name, id);
        let out = f();
        self.end(s, None);
        out
    }

    /// Number of spans recorded so far (a mark for [`Tracer::self_ms_since`]).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in milliseconds per `(id, span name)`, over spans
    /// recorded since `mark`: each span's duration minus that of its
    /// direct children.
    pub fn self_ms_since(&self, mark: usize) -> BTreeMap<(u64, &'static str), f64> {
        let mut child_ns = vec![0u64; self.spans.len() - mark];
        for s in &self.spans[mark..] {
            if let Some(p) = s.parent.filter(|&p| p >= mark) {
                child_ns[p - mark] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans[mark..].iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(child);
            *out.entry((s.id, s.name)).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// All spans as JSON lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

/// The layers an untraced `Engine::check_source` also runs; the rest of
/// its time is the engine's own (store, scheduling, events).
pub const ENGINE_LAYERS: [&str; 7] = [
    "syntax.parse",
    "sema.analyze",
    "core.restrict",
    "core.vcgen",
    "engine.fingerprint",
    "prover.prove.decided",
    "prover.prove.unknown",
];

/// What the replay did for one implementation.
#[derive(Debug, Clone)]
pub struct ObligationTrace {
    pub proc: String,
    pub outcome: Outcome,
    /// `(instances, trigger matches, branches)` when the prover ran.
    pub counters: Option<[u64; 3]>,
    /// The diagnosis blame `(kind, start, end)`, when one was computed.
    pub blame: Option<(String, u32, u32)>,
}

/// Structural and work counts of one replay, summed over its units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    pub bytes: u64,
    pub attrs: u64,
    pub restrict_violations: u64,
    pub vc_size: u64,
    pub vc_labels: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub diagnoses: u64,
    pub confirmed: u64,
    pub prover: Counters,
}

/// An answer the store stand-in holds: outcome and prover counters.
pub type Held = (Outcome, Option<[u64; 3]>);

/// Per-replay options: what the workload's callers ask for on top of a
/// plain check.
#[derive(Default)]
pub struct ReplayMode {
    /// Fingerprints already answered: the benchmark's stand-in for the
    /// engine's verdict store (empty per unit for a fresh engine, which
    /// still answers a repeated obligation of one unit from its store).
    pub answered: HashMap<Fingerprint, Held>,
    /// Diagnose every refutation.
    pub diagnose: bool,
}

/// Replays one unit through the pipeline's layers.
pub fn replay_unit(
    tr: &mut Tracer,
    id: u64,
    unit: &Unit,
    mode: &mut ReplayMode,
    counts: &mut LayerCounts,
) -> Result<Vec<ObligationTrace>, String> {
    let root = tr.begin("replay", id);
    let out = replay_inner(tr, id, unit, mode, counts);
    tr.end(root, None);
    out
}

fn replay_inner(
    tr: &mut Tracer,
    id: u64,
    unit: &Unit,
    mode: &mut ReplayMode,
    counts: &mut LayerCounts,
) -> Result<Vec<ObligationTrace>, String> {
    counts.bytes += unit.source.len() as u64;
    let program = tr
        .span("syntax.parse", id, || parse_program(&unit.source))
        .map_err(|d| d.render(&unit.source))?;
    let scope = tr
        .span("sema.analyze", id, || Scope::analyze(&program))
        .map_err(|d| d.render(&unit.source))?;
    counts.attrs += scope.attr_count() as u64;
    let checker = Checker::from_scope(scope, CheckOptions::default());
    let ids: Vec<_> = checker.scope().impls().map(|(i, _)| i).collect();
    let mut out = Vec::with_capacity(ids.len());
    for impl_id in ids {
        let scope = checker.scope();
        let proc = scope.proc_info(scope.impl_info(impl_id).proc).name.clone();
        let violations = tr.span("core.restrict", id, || {
            checker.restriction_violations(impl_id)
        });
        if !violations.is_empty() {
            counts.restrict_violations += violations.len() as u64;
            out.push(ObligationTrace {
                proc,
                outcome: Outcome::Restriction,
                counters: None,
                blame: None,
            });
            continue;
        }
        let vc = match tr.span("core.vcgen", id, || checker.vc(impl_id)) {
            Ok(vc) => vc,
            Err(d) => {
                out.push(ObligationTrace {
                    proc,
                    outcome: Outcome::TranslationError(d.to_string()),
                    counters: None,
                    blame: None,
                });
                continue;
            }
        };
        counts.vc_size += vc.size() as u64;
        counts.vc_labels += vc.labels.len() as u64;
        // The fingerprint keys on the phase mask, so computing it is part
        // of fingerprinting; every background hypothesis is kept (the
        // replay does not slice).
        let fingerprint = tr.span("engine.fingerprint", id, || {
            let phases = checker.background_phases();
            let keep = vec![true; vc.background_hyps];
            fingerprint_vc(&vc, &checker.options().budget, &keep, &phases)
        });
        if let Some((outcome, counters)) = mode.answered.get(&fingerprint) {
            counts.store_hits += 1;
            out.push(ObligationTrace {
                proc,
                outcome: outcome.clone(),
                counters: *counters,
                blame: None,
            });
            continue;
        }
        counts.store_misses += 1;
        let span = tr.begin("prover.prove", id);
        let verdict = checker.verdict_for_vc(&vc);
        let layer = if matches!(verdict, Verdict::Unknown(_)) {
            "prover.prove.unknown"
        } else {
            "prover.prove.decided"
        };
        tr.end(span, Some(layer));
        counts.prover.add_verdict(&verdict);
        let counters = verdict
            .stats()
            .map(|s| [s.instances as u64, s.trigger_matches, s.branches]);
        let mut blame = None;
        if let (Verdict::NotVerified(_, refutation), true) = (&verdict, mode.diagnose) {
            let diagnosis = tr.span("diagnose", id, || {
                diagnose_refutation(checker.scope(), &unit.source, &vc, refutation)
            });
            if let Some(d) = diagnosis {
                counts.diagnoses += 1;
                counts.confirmed += u64::from(d.confirmed());
                blame = Some((d.kind.as_str().to_string(), d.span.start, d.span.end));
            }
        }
        let outcome = outcome_of(&verdict);
        mode.answered
            .insert(fingerprint, (outcome.clone(), counters));
        out.push(ObligationTrace {
            proc,
            outcome,
            counters,
            blame,
        });
    }
    Ok(out)
}

/// Replays one frame-inference request.
pub fn replay_infer(
    tr: &mut Tracer,
    id: u64,
    engine: &Engine,
    name: &str,
    source: &str,
) -> Result<oolong_infer::InferOutcome, String> {
    tr.span("infer", id, || {
        oolong_infer::infer(engine, name, source, &oolong_infer::InferOptions::default())
    })
}
