//! The batch scheduler: fans proof obligations across worker threads,
//! interposing the verdict cache in front of every prover call.
//!
//! A batch is a list of [`BatchUnit`]s (named sources). Each unit is
//! parsed and scope-analysed once; every implementation in a well-formed
//! unit becomes one obligation. Obligations are independent (the paper's
//! modular-soundness result), so they are processed by a fixed-size worker
//! pool pulling from a shared index — the same shape as
//! `Checker::check_all_with_workers`, lifted across units and made
//! cache-aware. Results and events are reassembled in obligation order, so
//! a batch report is deterministic regardless of thread interleaving.

use crate::cache::{CachedOutcome, CachedVerdict};
use crate::contexts::{context_key, ContextPool, DEFAULT_CONTEXT_CAPACITY};
use crate::diagjson::{diagnosis_to_json, label_to_json};
use crate::events::{render_jsonl, Event};
use crate::fingerprint::{fingerprint_vc, Fingerprint};
use crate::json::Json;
use crate::store::{TieredStore, VerdictStore, DEFAULT_MEMORY_CAPACITY};
use datagroups::{CheckOptions, Checker, Report, Verdict};
use oolong_diagnose::{diagnose_refutation, diagnose_restriction, Diagnosis};
use oolong_syntax::parse_program;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for an [`Engine`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Options forwarded to the per-unit [`Checker`]s. The budget is part
    /// of every obligation's fingerprint.
    pub check: CheckOptions,
    /// Worker threads for the batch scheduler; `0` means one per
    /// available core.
    pub workers: usize,
    /// Directory for the persistent verdict cache; `None` keeps the cache
    /// in memory only.
    pub cache_dir: Option<PathBuf>,
    /// Compute a full source-level [`Diagnosis`] (concretization +
    /// interpreter replay) for every rejected obligation. Off by default;
    /// refuted obligations still carry their obligation kind and label id
    /// either way. A cache hit that lacks a diagnosis is re-proved when
    /// this is set, since the candidate model is not cached.
    pub diagnose: bool,
}

/// One named source in a batch.
#[derive(Debug, Clone)]
pub struct BatchUnit {
    /// Display name (file path or `corpus:NAME` reference).
    pub name: String,
    /// The oolong source text.
    pub source: String,
}

/// The result of one proof obligation.
#[derive(Debug, Clone)]
pub struct ObligationReport {
    /// Name of the batch unit the obligation came from.
    pub unit: String,
    /// Name of the implemented procedure.
    pub proc_name: String,
    /// The obligation's content address (absent when no VC was generated:
    /// restriction violations and translation errors).
    pub fingerprint: Option<Fingerprint>,
    /// The verdict, identical in form to a fresh [`Checker`] verdict.
    pub verdict: Verdict,
    /// Whether the verdict was served from the cache.
    pub cache_hit: bool,
    /// Wall-clock milliseconds spent on this obligation.
    pub millis: f64,
    /// The source-level diagnosis, when diagnosis was enabled and the
    /// obligation was rejected.
    pub diagnosis: Option<Diagnosis>,
}

/// A unit that failed to parse or scope-analyse.
#[derive(Debug, Clone)]
pub struct UnitError {
    /// Name of the batch unit.
    pub unit: String,
    /// Rendered diagnostics.
    pub message: String,
}

/// The result of one batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Per-obligation results, in deterministic batch order (unit order,
    /// then declaration order within a unit).
    pub obligations: Vec<ObligationReport>,
    /// Units that could not be checked at all.
    pub unit_errors: Vec<UnitError>,
    /// The structured event log (unit errors, then per-obligation events
    /// in batch order — start marker, terminal event, and a
    /// `prover_profile` when the obligation carries stats — then the
    /// batch summary).
    pub events: Vec<Event>,
    /// Obligations served from the cache.
    pub cache_hits: usize,
    /// Obligations that invoked the prover.
    pub prover_calls: usize,
    /// Batch wall-clock milliseconds.
    pub millis: f64,
}

impl BatchReport {
    /// Whether every unit checked and every obligation verified.
    pub fn all_verified(&self) -> bool {
        self.unit_errors.is_empty() && self.obligations.iter().all(|o| o.verdict.is_verified())
    }

    /// Count of obligations with each outcome, as
    /// `(verified, rejected, unknown)`.
    pub fn tally(&self) -> (usize, usize, usize) {
        let mut tally = (0, 0, 0);
        for obligation in &self.obligations {
            match obligation.verdict {
                Verdict::Verified(_) => tally.0 += 1,
                Verdict::Unknown(_) => tally.2 += 1,
                _ => tally.1 += 1,
            }
        }
        tally
    }

    /// The event log rendered as JSON Lines.
    pub fn events_jsonl(&self) -> String {
        render_jsonl(&self.events)
    }

    /// The whole report as a JSON object (the `--json` output of
    /// `oolong batch`).
    pub fn to_json(&self) -> Json {
        let obligations = self
            .obligations
            .iter()
            .map(|o| {
                let mut members = vec![
                    ("unit".to_string(), Json::Str(o.unit.clone())),
                    ("proc".to_string(), Json::Str(o.proc_name.clone())),
                    (
                        "fingerprint".to_string(),
                        match o.fingerprint {
                            Some(fp) => Json::Str(fp.to_string()),
                            None => Json::Null,
                        },
                    ),
                    (
                        "verdict".to_string(),
                        Json::Str(o.verdict.label().to_string()),
                    ),
                    ("cache_hit".to_string(), Json::Bool(o.cache_hit)),
                    ("millis".to_string(), Json::Float(o.millis)),
                ];
                if let Some(stats) = o.verdict.stats() {
                    members.push((
                        "stats".to_string(),
                        Json::Object(
                            stats
                                .to_fields()
                                .into_iter()
                                .map(|(name, value)| (name.to_string(), Json::Int(value as i64)))
                                .collect(),
                        ),
                    ));
                }
                // Refuted obligations always carry their attribution —
                // kind and label id — even when full diagnosis is off.
                if let Some(refutation) = o.verdict.refutation() {
                    if let Some(primary) = &refutation.primary {
                        members.push((
                            "obligation_kind".to_string(),
                            Json::Str(primary.kind.as_str().to_string()),
                        ));
                        members.push(("label_id".to_string(), Json::Int(primary.id as i64)));
                        members.push(("label".to_string(), label_to_json(primary)));
                    }
                }
                if let Some(diagnosis) = &o.diagnosis {
                    members.push(("diagnosis".to_string(), diagnosis_to_json(diagnosis)));
                }
                Json::Object(members)
            })
            .collect();
        let unit_errors = self
            .unit_errors
            .iter()
            .map(|e| {
                Json::Object(vec![
                    ("unit".to_string(), Json::Str(e.unit.clone())),
                    ("message".to_string(), Json::Str(e.message.clone())),
                ])
            })
            .collect();
        let tally = self.tally();
        Json::Object(vec![
            ("obligations".to_string(), Json::Array(obligations)),
            ("unit_errors".to_string(), Json::Array(unit_errors)),
            (
                "summary".to_string(),
                Json::Object(vec![
                    ("verified".to_string(), Json::Int(tally.0 as i64)),
                    ("rejected".to_string(), Json::Int(tally.1 as i64)),
                    ("unknown".to_string(), Json::Int(tally.2 as i64)),
                    ("cache_hits".to_string(), Json::Int(self.cache_hits as i64)),
                    (
                        "prover_calls".to_string(),
                        Json::Int(self.prover_calls as i64),
                    ),
                    ("millis".to_string(), Json::Float(self.millis)),
                ]),
            ),
        ])
    }
}

/// One obligation's result plus its events, as produced by a worker.
struct TaskOutcome {
    report: ObligationReport,
    events: Vec<Event>,
    cache_hit: bool,
    prover_call: bool,
}

/// The incremental verification engine: a verdict store plus a batch
/// scheduler plus a pool of warm scope contexts.
#[derive(Debug)]
pub struct Engine {
    options: EngineOptions,
    store: Arc<dyn VerdictStore>,
    contexts: Arc<ContextPool>,
}

impl Engine {
    /// Creates an engine over a private [`TieredStore`]: a bounded
    /// in-memory LRU tier, backed by a lazy on-disk tier when
    /// `options.cache_dir` is set. Opening is O(1) — entries are read
    /// on demand, one file per lookup, never scanned up front.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory cannot be created.
    pub fn new(options: EngineOptions) -> io::Result<Engine> {
        let store: Arc<dyn VerdictStore> = match &options.cache_dir {
            Some(dir) => Arc::new(TieredStore::at_dir(dir, DEFAULT_MEMORY_CAPACITY)?),
            None => Arc::new(TieredStore::in_memory(DEFAULT_MEMORY_CAPACITY)),
        };
        Ok(Engine {
            options,
            store,
            contexts: Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
        })
    }

    /// Creates an engine over a shared store handle. This is the resident
    /// shape: a long-lived process opens its cache once, then builds one
    /// cheap `Engine` per request (each request may carry its own prover
    /// budget) against the same store. `options.cache_dir` is ignored —
    /// the store already decided where it persists.
    pub fn with_store(options: EngineOptions, store: Arc<dyn VerdictStore>) -> Engine {
        Engine {
            options,
            store,
            contexts: Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
        }
    }

    /// Like [`Engine::with_store`], but also sharing a pool of warm scope
    /// contexts: a resident process passes the same pool to every
    /// per-request engine so background saturation is paid once per scope,
    /// not once per request.
    pub fn with_store_and_contexts(
        options: EngineOptions,
        store: Arc<dyn VerdictStore>,
        contexts: Arc<ContextPool>,
    ) -> Engine {
        Engine {
            options,
            store,
            contexts,
        }
    }

    /// The engine's verdict store.
    pub fn store(&self) -> &Arc<dyn VerdictStore> {
        &self.store
    }

    /// The engine's warm scope-context pool.
    pub fn contexts(&self) -> &Arc<ContextPool> {
        &self.contexts
    }

    /// The engine's configuration.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Checks every implementation of every unit, serving unchanged
    /// obligations from the cache.
    pub fn check_batch(&self, units: &[BatchUnit]) -> BatchReport {
        let batch_start = Instant::now();
        let mut unit_errors = Vec::new();
        let mut checkers: Vec<Option<Checker>> = Vec::with_capacity(units.len());
        for unit in units {
            let checker = parse_program(&unit.source)
                .map_err(|d| d.render(&unit.source))
                .and_then(|program| {
                    Checker::new(&program, self.options.check.clone())
                        .map_err(|d| d.render(&unit.source))
                });
            match checker {
                Ok(checker) => checkers.push(Some(checker)),
                Err(message) => {
                    unit_errors.push(UnitError {
                        unit: unit.name.clone(),
                        message,
                    });
                    checkers.push(None);
                }
            }
        }

        // One task per implementation, in deterministic batch order.
        let tasks: Vec<(usize, oolong_sema::ImplId)> = checkers
            .iter()
            .enumerate()
            .filter_map(|(unit_idx, checker)| checker.as_ref().map(|c| (unit_idx, c)))
            .flat_map(|(unit_idx, checker)| {
                checker
                    .scope()
                    .impls()
                    .map(move |(impl_id, _)| (unit_idx, impl_id))
            })
            .collect();

        let workers = match self.options.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let outcomes = self.run_tasks(units, &checkers, &tasks, workers);

        let mut report = BatchReport {
            unit_errors,
            ..BatchReport::default()
        };
        for error in &report.unit_errors {
            report.events.push(Event::UnitError {
                unit: error.unit.clone(),
                message: error.message.clone(),
            });
        }
        for outcome in outcomes {
            report.cache_hits += usize::from(outcome.cache_hit);
            report.prover_calls += usize::from(outcome.prover_call);
            report.events.extend(outcome.events);
            report.obligations.push(outcome.report);
        }
        report.millis = batch_start.elapsed().as_secs_f64() * 1_000.0;
        report.events.push(Event::BatchSummary {
            obligations: report.obligations.len(),
            cache_hits: report.cache_hits,
            prover_calls: report.prover_calls,
            tally: report.tally(),
            millis: report.millis,
        });
        report
    }

    /// Convenience wrapper: one anonymous unit.
    pub fn check_source(&self, name: &str, source: &str) -> BatchReport {
        self.check_batch(&[BatchUnit {
            name: name.to_string(),
            source: source.to_string(),
        }])
    }

    /// Runs the worker pool and returns outcomes in task order.
    fn run_tasks(
        &self,
        units: &[BatchUnit],
        checkers: &[Option<Checker>],
        tasks: &[(usize, oolong_sema::ImplId)],
        workers: usize,
    ) -> Vec<TaskOutcome> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Mutex;
        if workers <= 1 || tasks.len() <= 1 {
            return tasks
                .iter()
                .enumerate()
                .map(|(seq, &(unit_idx, impl_id))| {
                    self.process_task(seq, &units[unit_idx], checkers[unit_idx].as_ref(), impl_id)
                })
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<TaskOutcome>>> =
            tasks.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers.min(tasks.len()) {
                scope.spawn(|| loop {
                    let seq = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(unit_idx, impl_id)) = tasks.get(seq) else {
                        break;
                    };
                    let outcome = self.process_task(
                        seq,
                        &units[unit_idx],
                        checkers[unit_idx].as_ref(),
                        impl_id,
                    );
                    *slots[seq]
                        .lock()
                        .expect("no panics while holding slot lock") = Some(outcome);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("worker panicked")
                    .expect("every slot filled before workers exit")
            })
            .collect()
    }

    /// Processes one obligation: restriction check, VC generation,
    /// fingerprint, cache lookup, and (on a miss) the prover.
    fn process_task(
        &self,
        seq: usize,
        unit: &BatchUnit,
        checker: Option<&Checker>,
        impl_id: oolong_sema::ImplId,
    ) -> TaskOutcome {
        let checker = checker.expect("tasks are only created for well-formed units");
        let scope = checker.scope();
        let proc_name = scope.proc_info(scope.impl_info(impl_id).proc).name.clone();
        let start = Instant::now();
        let started = |fingerprint: Option<Fingerprint>| Event::ObligationStarted {
            seq,
            unit: unit.name.clone(),
            proc: proc_name.clone(),
            fingerprint,
        };

        let violations = checker.restriction_violations(impl_id);
        if !violations.is_empty() {
            let rendered = violations.iter().map(|d| d.to_string()).collect();
            let diagnosis = if self.options.diagnose {
                diagnose_restriction(scope, &unit.source, impl_id, &proc_name, &violations)
            } else {
                None
            };
            let verdict = Verdict::RestrictionViolation(violations);
            return TaskOutcome {
                events: vec![
                    started(None),
                    Event::RestrictionViolation {
                        seq,
                        violations: rendered,
                    },
                ],
                report: ObligationReport {
                    unit: unit.name.clone(),
                    proc_name,
                    fingerprint: None,
                    verdict,
                    cache_hit: false,
                    millis: start.elapsed().as_secs_f64() * 1_000.0,
                    diagnosis,
                },
                cache_hit: false,
                prover_call: false,
            };
        }

        let vc = match checker.vc(impl_id) {
            Ok(vc) => vc,
            Err(diagnostic) => {
                let message = diagnostic.to_string();
                return TaskOutcome {
                    events: vec![started(None), Event::TranslationError { seq, message }],
                    report: ObligationReport {
                        unit: unit.name.clone(),
                        proc_name,
                        fingerprint: None,
                        verdict: Verdict::TranslationError(diagnostic),
                        cache_hit: false,
                        millis: start.elapsed().as_secs_f64() * 1_000.0,
                        diagnosis: None,
                    },
                    cache_hit: false,
                    prover_call: false,
                };
            }
        };

        let phases = checker.background_phases();
        let keep = vec![true; vc.background_hyps];
        let fingerprint = fingerprint_vc(&vc, &checker.options().budget, &keep, &phases);
        // A hit that predates diagnosis (or was cached with diagnosis off)
        // cannot serve an `--explain` run: the candidate model needed to
        // build a diagnosis is not cached, so re-prove instead.
        let hit = self.store.get(fingerprint).filter(|hit| {
            !(self.options.diagnose
                && hit.outcome == CachedOutcome::NotProved
                && hit.diagnosis.is_none())
        });
        if let Some(hit) = hit {
            return TaskOutcome {
                events: vec![
                    started(Some(fingerprint)),
                    Event::CacheHit {
                        seq,
                        outcome: hit.outcome.as_str(),
                        stats: hit.stats.clone(),
                    },
                    Event::ProverProfile {
                        seq,
                        cached: true,
                        stats: hit.stats.clone(),
                    },
                ],
                report: ObligationReport {
                    unit: unit.name.clone(),
                    proc_name,
                    fingerprint: Some(fingerprint),
                    verdict: hit.to_verdict(),
                    cache_hit: true,
                    millis: start.elapsed().as_secs_f64() * 1_000.0,
                    diagnosis: hit.diagnosis.clone(),
                },
                cache_hit: true,
                prover_call: false,
            };
        }

        // Prove inside a warm scope context from the pool, building (and
        // thereby saturating) it only on the first encounter of this
        // background. The slot mutex keys same-scope obligations to one
        // thread at a time; unrelated scopes proceed in parallel.
        let key = context_key(
            &vc.hypotheses[..vc.background_hyps],
            &phases,
            &checker.options().budget,
            checker.options().strategy,
        );
        let slot = self.contexts.checkout(key);
        let verdict = {
            let mut guard = slot.lock().expect("context slot lock poisoned");
            let ctx = guard.get_or_insert_with(|| checker.context_for(&vc));
            checker.verdict_for_vc_in(ctx, &vc)
        };
        let diagnosis = match (&verdict, self.options.diagnose) {
            (Verdict::NotVerified(_, refutation), true) => {
                diagnose_refutation(scope, &unit.source, &vc, refutation)
            }
            _ => None,
        };
        let millis = start.elapsed().as_secs_f64() * 1_000.0;
        if let Some(entry) = CachedVerdict::from_verdict(&proc_name, &verdict, diagnosis.as_ref()) {
            self.store.put(fingerprint, entry);
        }
        let terminal = match &verdict {
            Verdict::Verified(stats) => Event::Verified {
                seq,
                millis,
                stats: stats.clone(),
            },
            Verdict::NotVerified(stats, refutation) => Event::Refuted {
                seq,
                millis,
                stats: stats.clone(),
                open_branch: refutation.open_branch.clone(),
                labels: refutation.labels.clone(),
                primary: refutation.primary.clone(),
                diagnosis: diagnosis.clone().map(Box::new),
            },
            Verdict::Unknown(stats) => Event::FuelExhausted {
                seq,
                millis,
                stats: stats.clone(),
            },
            Verdict::RestrictionViolation(_) | Verdict::TranslationError(_) => {
                unreachable!("verdict_for_vc only returns prover verdicts")
            }
        };
        let profile = Event::ProverProfile {
            seq,
            cached: false,
            stats: verdict
                .stats()
                .cloned()
                .expect("prover verdicts carry stats"),
        };
        TaskOutcome {
            events: vec![started(Some(fingerprint)), terminal, profile],
            report: ObligationReport {
                unit: unit.name.clone(),
                proc_name,
                fingerprint: Some(fingerprint),
                verdict,
                cache_hit: false,
                millis,
                diagnosis,
            },
            cache_hit: false,
            prover_call: true,
        }
    }
}

/// Flattens a batch report back into the per-unit [`Report`] shape used by
/// `Checker`, for verdict-equivalence comparisons.
pub fn unit_report(batch: &BatchReport, unit: &str) -> Report {
    Report {
        impls: batch
            .obligations
            .iter()
            .filter(|o| o.unit == unit)
            .enumerate()
            .map(|(i, o)| datagroups::ImplReport {
                impl_id: oolong_sema::ImplId(i as u32),
                proc_name: o.proc_name.clone(),
                verdict: o.verdict.clone(),
                kind_counts: Vec::new(),
            })
            .collect(),
    }
}
