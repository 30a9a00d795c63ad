//! The verdict cache: fingerprint → proof verdict.
//!
//! Entries are keyed by [`Fingerprint`] only — there is no invalidation
//! protocol beyond "a changed obligation has a changed fingerprint and
//! therefore misses". The cache is an in-memory map, optionally backed by
//! a directory of one JSON file per entry (`<fingerprint>.json`), which
//! makes concurrent writers trivially safe (writes of distinct obligations
//! touch distinct files; writes of the same obligation are idempotent
//! because the verdict is a pure function of the fingerprint).
//!
//! Only prover verdicts (`Verified` / `NotVerified` / `Unknown`) are
//! cached. Restriction violations and translation errors are recomputed
//! every run: they are syntactic, cost microseconds, and carry
//! source-anchored diagnostics that would go stale in a cache.

use crate::diagjson::{diagnosis_from_json, diagnosis_to_json, label_from_json, label_to_json};
use crate::fingerprint::Fingerprint;
use crate::json::{self, Json};
use datagroups::{ObligationLabel, Refutation, Verdict};
use oolong_diagnose::Diagnosis;
use oolong_prover::{QuantKind, QuantProfile, Stats, UnknownReason};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Format version of on-disk entries; mismatched entries are ignored.
/// Version 2 added the structured stats members (`exhausted`, `per_quant`)
/// required to replay prover telemetry bit-for-bit from warm caches.
/// Version 3 added refutation attribution (`labels`, `primary`) and the
/// optional source-level `diagnosis`, so warm runs replay a cold run's
/// diagnosis byte-for-byte. The prover's candidate model is *not* cached —
/// it is an internal artifact consumed by diagnosis, and cache hits
/// rebuild the refutation without it.
/// Version 4 accompanies the hash-consed term arena: fingerprints are now
/// computed from interned-term content digests (see
/// `FINGERPRINT_VERSION` 2), so v3 entries address obligations under a
/// recipe this build can no longer reproduce. Migration is by miss, not
/// by rewrite: v3 entries are skipped (never corrupted or misread) and
/// the first cold run repopulates the store in v4 format.
/// Version 5 accompanies declared pattern policies: per-quantifier
/// profiles split `instances` into `presat`/`goal` (and fingerprints fold
/// in the activation-phase mask, `FINGERPRINT_VERSION` 4), so v4 entries
/// would replay telemetry without the split. Same migration by miss.
/// Version 6 accompanies object invariants and read effects
/// (`FINGERPRINT_VERSION` 6): labels and diagnoses may now carry the
/// `invariant-preserved` and `reads-violation` obligation kinds, and
/// label ids were renumbered (exit obligations allocate first), so a v5
/// attribution would blame the wrong conjunct. Same migration by miss.
/// Version 7 drops `sliced_axioms` from the stats record along with axiom
/// slicing (`FINGERPRINT_VERSION` 7). Same migration by miss.
pub const CACHE_FORMAT_VERSION: u64 = 7;

/// Full JSON form of prover stats: the scalar counters plus the
/// structured members ([`Stats::exhausted`], [`Stats::per_quant`]), so a
/// cache round-trip reproduces the cold run's stats exactly.
pub fn stats_to_json(stats: &Stats) -> Json {
    let mut members: Vec<(String, Json)> = stats
        .to_fields()
        .into_iter()
        .map(|(name, value)| (name.to_string(), Json::Int(value as i64)))
        .collect();
    members.push((
        "exhausted".to_string(),
        match stats.exhausted {
            Some(reason) => Json::Str(reason.as_str().to_string()),
            None => Json::Null,
        },
    ));
    members.push((
        "per_quant".to_string(),
        Json::Array(stats.per_quant.iter().map(quant_profile_to_json).collect()),
    ));
    Json::Object(members)
}

/// Inverse of [`stats_to_json`].
pub fn stats_from_json(value: &Json) -> Option<Stats> {
    let Json::Object(members) = value else {
        return None;
    };
    let mut stats = Stats::from_fields(
        members
            .iter()
            .filter_map(|(k, v)| Some((k.as_str(), v.as_u64()?))),
    );
    stats.exhausted = match value.get("exhausted")? {
        Json::Str(name) => Some(UnknownReason::from_name(name)?),
        _ => None,
    };
    stats.per_quant = value
        .get("per_quant")?
        .as_array()?
        .iter()
        .map(quant_profile_from_json)
        .collect::<Option<_>>()?;
    Some(stats)
}

fn quant_profile_to_json(q: &QuantProfile) -> Json {
    Json::Object(vec![
        ("id".to_string(), Json::Int(q.id as i64)),
        ("kind".to_string(), Json::Str(q.kind.as_str().to_string())),
        ("trigger".to_string(), Json::Str(q.trigger.clone())),
        ("matches".to_string(), Json::Int(q.matches as i64)),
        ("instances".to_string(), Json::Int(q.instances as i64)),
        ("presat".to_string(), Json::Int(q.presat_instances as i64)),
        ("goal".to_string(), Json::Int(q.goal_instances as i64)),
        ("deferred".to_string(), Json::Int(q.deferred as i64)),
        (
            "chain".to_string(),
            Json::Array(q.chain.iter().map(|s| Json::Str(s.clone())).collect()),
        ),
    ])
}

fn quant_profile_from_json(value: &Json) -> Option<QuantProfile> {
    Some(QuantProfile {
        id: value.get("id")?.as_u64()? as usize,
        kind: QuantKind::from_name(value.get("kind")?.as_str()?),
        trigger: value.get("trigger")?.as_str()?.to_string(),
        matches: value.get("matches")?.as_u64()?,
        instances: value.get("instances")?.as_u64()?,
        presat_instances: value.get("presat")?.as_u64()?,
        goal_instances: value.get("goal")?.as_u64()?,
        deferred: value.get("deferred")?.as_u64()?,
        chain: value
            .get("chain")?
            .as_array()?
            .iter()
            .map(|s| Some(s.as_str()?.to_string()))
            .collect::<Option<_>>()?,
    })
}

/// A cached prover verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedVerdict {
    /// Name of the implemented procedure (for reports and event logs).
    pub proc_name: String,
    /// The proof outcome.
    pub outcome: CachedOutcome,
    /// The prover work counters of the original (cold) run.
    pub stats: Stats,
    /// The open-branch sketch, when the VC was refuted.
    pub open_branch: Option<Vec<String>>,
    /// Position-label ids recorded on the refuting branch.
    pub labels: Vec<u32>,
    /// The blamed obligation's label, when the VC was refuted.
    pub primary: Option<ObligationLabel>,
    /// The source-level diagnosis, when one was computed on the cold run.
    pub diagnosis: Option<Diagnosis>,
}

/// The three prover outcomes a cache entry can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachedOutcome {
    /// The VC was proved: the implementation verified.
    Proved,
    /// The VC was refuted: the implementation was rejected.
    NotProved,
    /// The prover ran out of budget.
    Unknown,
}

impl CachedOutcome {
    /// Stable string form used on disk and in events.
    pub fn as_str(self) -> &'static str {
        match self {
            CachedOutcome::Proved => "proved",
            CachedOutcome::NotProved => "not_proved",
            CachedOutcome::Unknown => "unknown",
        }
    }

    fn from_str(s: &str) -> Option<CachedOutcome> {
        match s {
            "proved" => Some(CachedOutcome::Proved),
            "not_proved" => Some(CachedOutcome::NotProved),
            "unknown" => Some(CachedOutcome::Unknown),
            _ => None,
        }
    }
}

impl CachedVerdict {
    /// Captures a freshly computed verdict, when it is cacheable (prover
    /// verdicts only). The diagnosis, when one was computed, rides along
    /// so warm runs replay it without re-proving or re-running replay.
    pub fn from_verdict(
        proc_name: &str,
        verdict: &Verdict,
        diagnosis: Option<&Diagnosis>,
    ) -> Option<CachedVerdict> {
        let (outcome, stats, refutation) = match verdict {
            Verdict::Verified(stats) => (CachedOutcome::Proved, stats.clone(), None),
            Verdict::NotVerified(stats, refutation) => {
                (CachedOutcome::NotProved, stats.clone(), Some(refutation))
            }
            Verdict::Unknown(stats) => (CachedOutcome::Unknown, stats.clone(), None),
            Verdict::RestrictionViolation(_) | Verdict::TranslationError(_) => return None,
        };
        Some(CachedVerdict {
            proc_name: proc_name.to_string(),
            outcome,
            stats,
            open_branch: refutation.and_then(|r| r.open_branch.clone()),
            labels: refutation.map(|r| r.labels.clone()).unwrap_or_default(),
            primary: refutation.and_then(|r| r.primary.clone()),
            diagnosis: diagnosis.cloned(),
        })
    }

    /// Reconstructs the verdict this entry recorded. The refutation's
    /// candidate model is not cached, so the rebuilt refutation carries
    /// `model: None` — diagnosis (which consumes the model) is replayed
    /// from the cached [`CachedVerdict::diagnosis`] instead.
    pub fn to_verdict(&self) -> Verdict {
        match self.outcome {
            CachedOutcome::Proved => Verdict::Verified(self.stats.clone()),
            CachedOutcome::NotProved => Verdict::NotVerified(
                self.stats.clone(),
                Box::new(Refutation {
                    open_branch: self.open_branch.clone(),
                    labels: self.labels.clone(),
                    primary: self.primary.clone(),
                    model: None,
                }),
            ),
            CachedOutcome::Unknown => Verdict::Unknown(self.stats.clone()),
        }
    }

    pub(crate) fn to_json(&self, fingerprint: Fingerprint) -> Json {
        Json::Object(vec![
            (
                "version".to_string(),
                Json::Int(CACHE_FORMAT_VERSION as i64),
            ),
            (
                "fingerprint".to_string(),
                Json::Str(fingerprint.to_string()),
            ),
            ("proc".to_string(), Json::Str(self.proc_name.clone())),
            (
                "outcome".to_string(),
                Json::Str(self.outcome.as_str().to_string()),
            ),
            ("stats".to_string(), stats_to_json(&self.stats)),
            (
                "open_branch".to_string(),
                match &self.open_branch {
                    None => Json::Null,
                    Some(lines) => {
                        Json::Array(lines.iter().map(|l| Json::Str(l.clone())).collect())
                    }
                },
            ),
            (
                "labels".to_string(),
                Json::Array(self.labels.iter().map(|&id| Json::Int(id as i64)).collect()),
            ),
            (
                "primary".to_string(),
                match &self.primary {
                    Some(label) => label_to_json(label),
                    None => Json::Null,
                },
            ),
            (
                "diagnosis".to_string(),
                match &self.diagnosis {
                    Some(d) => diagnosis_to_json(d),
                    None => Json::Null,
                },
            ),
        ])
    }

    pub(crate) fn from_json(value: &Json) -> Option<(Fingerprint, CachedVerdict)> {
        if value.get("version")?.as_u64()? != CACHE_FORMAT_VERSION {
            return None;
        }
        let fingerprint: Fingerprint = value.get("fingerprint")?.as_str()?.parse().ok()?;
        let proc_name = value.get("proc")?.as_str()?.to_string();
        let outcome = CachedOutcome::from_str(value.get("outcome")?.as_str()?)?;
        let stats = stats_from_json(value.get("stats")?)?;
        let open_branch = match value.get("open_branch")? {
            Json::Null => None,
            Json::Array(items) => Some(
                items
                    .iter()
                    .map(|l| Some(l.as_str()?.to_string()))
                    .collect::<Option<_>>()?,
            ),
            _ => return None,
        };
        let labels = value
            .get("labels")?
            .as_array()?
            .iter()
            .map(|id| Some(id.as_u64()? as u32))
            .collect::<Option<_>>()?;
        let primary = match value.get("primary")? {
            Json::Null => None,
            v => Some(label_from_json(v)?),
        };
        let diagnosis = match value.get("diagnosis")? {
            Json::Null => None,
            v => Some(diagnosis_from_json(v)?),
        };
        Some((
            fingerprint,
            CachedVerdict {
                proc_name,
                outcome,
                stats,
                open_branch,
                labels,
                primary,
                diagnosis,
            },
        ))
    }
}

/// A concurrent fingerprint-keyed verdict store, optionally persisted.
#[derive(Debug)]
pub struct VerdictCache {
    dir: Option<PathBuf>,
    entries: Mutex<HashMap<Fingerprint, CachedVerdict>>,
}

impl VerdictCache {
    /// A purely in-memory cache.
    pub fn in_memory() -> VerdictCache {
        VerdictCache {
            dir: None,
            entries: Mutex::new(HashMap::new()),
        }
    }

    /// A cache persisted under `dir` (created if absent); existing entries
    /// are loaded eagerly. Unreadable or version-mismatched entry files
    /// are skipped, not errors — the cache is advisory.
    pub fn at_dir(dir: &Path) -> io::Result<VerdictCache> {
        std::fs::create_dir_all(dir)?;
        let mut entries = HashMap::new();
        for dirent in std::fs::read_dir(dir)? {
            let path = dirent?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json")
                || path.file_stem().and_then(|s| s.to_str()).map(str::len) != Some(32)
            {
                continue;
            }
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Ok(value) = json::parse(&text) else {
                continue;
            };
            if let Some((fingerprint, verdict)) = CachedVerdict::from_json(&value) {
                entries.insert(fingerprint, verdict);
            }
        }
        Ok(VerdictCache {
            dir: Some(dir.to_path_buf()),
            entries: Mutex::new(entries),
        })
    }

    /// The directory backing this cache, when persistent.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock poisoned").len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry for `fingerprint`, if present.
    pub fn get(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        self.entries
            .lock()
            .expect("cache lock poisoned")
            .get(&fingerprint)
            .cloned()
    }

    /// Records a verdict, persisting it when the cache is disk-backed.
    /// Persistence is best-effort: an unwritable directory degrades to
    /// in-memory caching rather than failing the batch.
    pub fn insert(&self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        if let Some(dir) = &self.dir {
            let rendered = verdict.to_json(fingerprint).render();
            let _ = std::fs::write(dir.join(format!("{fingerprint}.json")), rendered);
        }
        self.entries
            .lock()
            .expect("cache lock poisoned")
            .insert(fingerprint, verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> CachedVerdict {
        CachedVerdict {
            proc_name: "push".to_string(),
            outcome: CachedOutcome::NotProved,
            stats: Stats {
                instances: 17,
                branches: 3,
                trigger_matches: 29,
                merges: 11,
                clauses: 5,
                exhausted: Some(UnknownReason::Instances),
                per_quant: vec![QuantProfile {
                    id: 0,
                    kind: QuantKind::RepInclusion,
                    trigger: "{RepInc(A, F, B)}".to_string(),
                    matches: 29,
                    instances: 17,
                    presat_instances: 12,
                    goal_instances: 5,
                    deferred: 2,
                    chain: vec!["A := #g, F := #next, B := #g".to_string()],
                }],
                ..Stats::default()
            },
            open_branch: Some(vec!["x ≠ null".to_string(), "a = b".to_string()]),
            labels: vec![0, 3],
            primary: Some(ObligationLabel {
                id: 3,
                kind: datagroups::ObligationKind::ModifiesViolation,
                span: oolong_syntax::Span::new(12, 20),
                detail: "write to field `f` not covered by modifies list".to_string(),
            }),
            diagnosis: Some(Diagnosis {
                proc_name: "push".to_string(),
                kind: datagroups::ObligationKind::ModifiesViolation,
                label_id: Some(3),
                span: oolong_syntax::Span::new(12, 20),
                line: 1,
                col: 13,
                snippet: "r.f := 3".to_string(),
                clause: "write to field `f` not covered by modifies list".to_string(),
                touched: vec![],
                pre_store: vec!["#1.f = 0".to_string()],
                args: vec!["r = #1".to_string()],
                replay: oolong_diagnose::Replay::Confirmed {
                    oracle: "first".to_string(),
                    witness: "unlicensed write".to_string(),
                },
            }),
        }
    }

    #[test]
    fn json_round_trip() {
        let entry = sample_entry();
        let fp = Fingerprint(0xdead_beef_0123_4567_89ab_cdef_0011_2233);
        let value = entry.to_json(fp);
        let (fp2, entry2) = CachedVerdict::from_json(&value).expect("round-trips");
        assert_eq!(fp2, fp);
        assert_eq!(entry2, entry);
    }

    #[test]
    fn disk_persistence_round_trip() {
        let dir = std::env::temp_dir().join(format!("oolong-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fp = Fingerprint(42);
        {
            let cache = VerdictCache::at_dir(&dir).expect("creates");
            assert!(cache.is_empty());
            cache.insert(fp, sample_entry());
        }
        let reloaded = VerdictCache::at_dir(&dir).expect("reloads");
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.get(fp), Some(sample_entry()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatch_is_skipped() {
        let entry = sample_entry();
        let fp = Fingerprint(7);
        let mut value = entry.to_json(fp);
        if let Json::Object(members) = &mut value {
            members[0].1 = Json::Int(999);
        }
        assert!(CachedVerdict::from_json(&value).is_none());
    }

    #[test]
    fn outdated_entries_miss_without_corruption() {
        // A store written by the previous format must degrade to cold
        // misses under this build: the old entry files are neither loaded
        // nor rewritten, and fresh entries land alongside them.
        let old_version = CACHE_FORMAT_VERSION - 1;
        let dir = std::env::temp_dir().join(format!(
            "oolong-cache-v{old_version}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creates dir");
        let stale = |fp: Fingerprint| {
            let mut value = sample_entry().to_json(fp);
            if let Json::Object(members) = &mut value {
                assert_eq!(members[0].0, "version");
                members[0].1 = Json::Int(old_version as i64);
            }
            value.render()
        };
        let old_fp = Fingerprint(0x0123_4567_89ab_cdef_0123_4567_89ab_cdef);
        let old_path = dir.join(format!("{old_fp}.json"));
        let old_bytes = stale(old_fp);
        std::fs::write(&old_path, &old_bytes).expect("writes old entry");

        let cache = VerdictCache::at_dir(&dir).expect("loads");
        assert!(cache.is_empty(), "old-format entries must not be loaded");
        assert_eq!(cache.get(old_fp), None);

        let new_fp = Fingerprint(99);
        cache.insert(new_fp, sample_entry());
        assert_eq!(
            std::fs::read_to_string(&old_path).expect("old file still present"),
            old_bytes,
            "migration is by miss: the old file must not be rewritten"
        );
        let reloaded = VerdictCache::at_dir(&dir).expect("reloads");
        assert_eq!(reloaded.len(), 1);
        assert_eq!(reloaded.get(new_fp), Some(sample_entry()));

        // Through the engine, even an old entry filed under the exact
        // address this build computes is re-proved, never served: its
        // stats record predates this build's.
        use crate::engine::{Engine, EngineOptions};
        let src = "group value
             field num in value
             proc bump(r) modifies r.value
             impl bump(r) { r.num := 3 }";
        let fresh = Engine::new(EngineOptions::default()).expect("in-memory engine");
        let fp = fresh.check_source("unit", src).obligations[0]
            .fingerprint
            .expect("proved obligations are fingerprinted");
        std::fs::write(dir.join(format!("{fp}.json")), stale(fp)).expect("writes old entry");
        let engine = Engine::new(EngineOptions {
            cache_dir: Some(dir.clone()),
            ..EngineOptions::default()
        })
        .expect("disk engine");
        let report = engine.check_source("unit", src);
        assert_eq!((report.cache_hits, report.prover_calls), (0, 1));
        assert!(report.all_verified(), "the stale refutation was not served");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn diagnostic_verdicts_are_not_cacheable() {
        use oolong_syntax::{Diagnostic, Span};
        let verdict = Verdict::TranslationError(Diagnostic::error("nope", Span::DUMMY));
        assert!(CachedVerdict::from_verdict("p", &verdict, None).is_none());
    }
}
