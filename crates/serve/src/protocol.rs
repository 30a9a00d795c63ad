//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! One request per line, one response line per request, in order. The
//! payload schemas deliberately reuse the batch tool's machine formats:
//! a `check` response's `result` member is shaped exactly like `oolong
//! check --json` output (the golden schemas under `tests/golden/` pin
//! it), a `batch` response's `result` like `oolong batch --json`, an
//! `explain` response's like `oolong explain --json`, an `infer`
//! response's like `oolong infer --json`, and the `events` member carries
//! the engine's JSONL event objects verbatim. A client that already
//! parses the CLI's output parses the server's.
//!
//! ## Requests
//!
//! ```json
//! {"id":1,"cmd":"check","unit":"corpus:example1"}
//! {"id":2,"cmd":"check","unit":{"name":"m.oo","source":"group g ..."},
//!  "options":{"max_instances":500,"explain":true}}
//! {"id":3,"cmd":"batch","units":["corpus:example1","corpus:stack_module"]}
//! {"id":4,"cmd":"explain","unit":"corpus:section31_bad_call","proc":"bad_caller"}
//! {"id":5,"cmd":"infer","unit":"stripped:stack_module","max_rounds":4}
//! {"id":6,"cmd":"stats"}
//! {"id":7,"cmd":"shutdown"}
//! ```
//!
//! A unit is either a string (a `corpus:NAME` reference or a server-side
//! file path) or an inline `{"name", "source"}` object. `options` may
//! override the prover budget (`max_instances`, `max_gen`) and toggle
//! `naive` / `null_checks` / `explain` per request.
//!
//! ## Responses
//!
//! ```json
//! {"id":1,"ok":true,"cmd":"check","degraded":false,"millis":12.5,
//!  "result":{"impls":[...],"summary":{...}},"events":[...]}
//! {"id":7,"ok":false,"error":"unknown cmd `chekc`"}
//! ```
//!
//! `degraded` marks a request that was admitted past a full queue and
//! therefore ran under the server's degraded prover budget: its hard
//! obligations come back `unknown` with the usual divergence attribution
//! instead of queueing behind everyone else.

use datagroups::CheckOptions;
use oolong_engine::{diagnosis_to_json, label_to_json, stats_to_json, BatchReport, Json};

/// One parsed client request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: Option<i64>,
    /// The operation.
    pub command: Command,
}

/// The operations the service understands.
#[derive(Debug, Clone)]
pub enum Command {
    /// Check one unit; respond in `check --json` shape.
    Check {
        /// The unit to check.
        unit: UnitRef,
        /// Per-request option overrides.
        options: RequestOptions,
    },
    /// Check many units; respond in `batch --json` shape.
    Batch {
        /// The units to check.
        units: Vec<UnitRef>,
        /// Per-request option overrides.
        options: RequestOptions,
    },
    /// Diagnose rejected implementations; respond in `explain --json`
    /// shape.
    Explain {
        /// The unit to diagnose.
        unit: UnitRef,
        /// Restrict to one procedure, when set.
        proc: Option<String>,
        /// Per-request option overrides.
        options: RequestOptions,
    },
    /// Infer missing `modifies` clauses for one unit; respond in
    /// `infer --json` shape.
    Infer {
        /// The unit to infer frames for. Named references additionally
        /// accept the `stripped:NAME` and `unannotated:SEED` schemes.
        unit: UnitRef,
        /// Restrict proposals to one procedure, when set.
        proc: Option<String>,
        /// Override the repair-round bound.
        max_rounds: Option<usize>,
        /// Per-request option overrides.
        options: RequestOptions,
    },
    /// Report server load metrics: request counters, queue state, cache
    /// tier traffic, latency percentiles.
    Stats,
    /// Stop the server after answering.
    Shutdown,
}

impl Command {
    /// The command's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Command::Check { .. } => "check",
            Command::Batch { .. } => "batch",
            Command::Explain { .. } => "explain",
            Command::Infer { .. } => "infer",
            Command::Stats => "stats",
            Command::Shutdown => "shutdown",
        }
    }
}

/// A unit reference: a name the server resolves (corpus reference or
/// file path), or inline source text.
#[derive(Debug, Clone)]
pub enum UnitRef {
    /// `corpus:NAME` or a server-side file path.
    Named(String),
    /// Source shipped in the request.
    Inline {
        /// Display name.
        name: String,
        /// The oolong source text.
        source: String,
    },
}

impl UnitRef {
    /// The unit's display name.
    pub fn name(&self) -> &str {
        match self {
            UnitRef::Named(name) => name,
            UnitRef::Inline { name, .. } => name,
        }
    }
}

/// Per-request checking overrides, layered over the server's defaults.
#[derive(Debug, Clone, Default)]
pub struct RequestOptions {
    /// Override the instantiation budget.
    pub max_instances: Option<usize>,
    /// Override the matching-generation budget.
    pub max_term_gen: Option<u32>,
    /// Run the naive (restriction-free) baseline.
    pub naive: bool,
    /// Emit `≠ null` definedness conditions.
    pub null_checks: bool,
    /// Compute full source-level diagnoses for rejections.
    pub explain: bool,
}

impl RequestOptions {
    /// The request's effective [`CheckOptions`]: the server defaults with
    /// this request's overrides applied.
    pub fn apply(&self, base: &CheckOptions) -> CheckOptions {
        let mut options = base.clone();
        if let Some(n) = self.max_instances {
            options.budget.max_instances = n;
        }
        if let Some(n) = self.max_term_gen {
            options.budget.max_term_gen = n;
        }
        options.naive |= self.naive;
        options.null_checks |= self.null_checks;
        options
    }
}

fn as_bool(value: Option<&Json>) -> bool {
    matches!(value, Some(Json::Bool(true)))
}

fn parse_unit(value: &Json) -> Result<UnitRef, String> {
    match value {
        Json::Str(name) => Ok(UnitRef::Named(name.clone())),
        Json::Object(_) => {
            let name = value
                .get("name")
                .and_then(Json::as_str)
                .ok_or("unit object needs a string `name`")?;
            let source = value
                .get("source")
                .and_then(Json::as_str)
                .ok_or("unit object needs a string `source`")?;
            Ok(UnitRef::Inline {
                name: name.to_string(),
                source: source.to_string(),
            })
        }
        _ => Err("a unit is a string or a {name, source} object".to_string()),
    }
}

fn parse_options(value: Option<&Json>) -> Result<RequestOptions, String> {
    let Some(value) = value else {
        return Ok(RequestOptions::default());
    };
    if !matches!(value, Json::Object(_)) {
        return Err("`options` must be an object".to_string());
    }
    Ok(RequestOptions {
        max_instances: value
            .get("max_instances")
            .map(|v| v.as_u64().ok_or("bad `max_instances`"))
            .transpose()?
            .map(|n| n as usize),
        max_term_gen: value
            .get("max_gen")
            .map(|v| v.as_u64().ok_or("bad `max_gen`"))
            .transpose()?
            .map(|n| n as u32),
        naive: as_bool(value.get("naive")),
        null_checks: as_bool(value.get("null_checks")),
        explain: as_bool(value.get("explain")),
    })
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a human-readable message suitable for an error response when
/// the line is not valid JSON or not a well-formed request.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = oolong_engine::json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = match value.get("id") {
        Some(Json::Int(id)) => Some(*id),
        Some(_) => return Err("`id` must be an integer".to_string()),
        None => None,
    };
    let cmd = value
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string `cmd`")?;
    let options = parse_options(value.get("options"))?;
    let command = match cmd {
        "check" => Command::Check {
            unit: parse_unit(value.get("unit").ok_or("`check` needs a `unit`")?)?,
            options,
        },
        "batch" => {
            let units = value
                .get("units")
                .and_then(Json::as_array)
                .ok_or("`batch` needs a `units` array")?;
            if units.is_empty() {
                return Err("`batch` needs at least one unit".to_string());
            }
            Command::Batch {
                units: units.iter().map(parse_unit).collect::<Result<_, _>>()?,
                options,
            }
        }
        "explain" => Command::Explain {
            unit: parse_unit(value.get("unit").ok_or("`explain` needs a `unit`")?)?,
            proc: value.get("proc").and_then(Json::as_str).map(str::to_string),
            options: RequestOptions {
                explain: true,
                ..options
            },
        },
        "infer" => Command::Infer {
            unit: parse_unit(value.get("unit").ok_or("`infer` needs a `unit`")?)?,
            proc: value.get("proc").and_then(Json::as_str).map(str::to_string),
            max_rounds: value
                .get("max_rounds")
                .map(|v| v.as_u64().ok_or("bad `max_rounds`"))
                .transpose()?
                .map(|n| n as usize),
            options,
        },
        "stats" => Command::Stats,
        "shutdown" => Command::Shutdown,
        other => return Err(format!("unknown cmd `{other}`")),
    };
    Ok(Request { id, command })
}

/// One implementation's members in `check --json` shape — the exact
/// member set and order the CLI emits, so the golden schemas pin both
/// surfaces at once.
fn impl_json(o: &oolong_engine::ObligationReport) -> Json {
    let mut members = vec![
        ("proc".to_string(), Json::Str(o.proc_name.clone())),
        (
            "verdict".to_string(),
            Json::Str(o.verdict.label().to_string()),
        ),
    ];
    if let Some(stats) = o.verdict.stats() {
        members.push(("stats".to_string(), stats_to_json(stats)));
    }
    if let Some(divergence) = o.verdict.divergence() {
        members.push((
            "divergence".to_string(),
            Json::Object(vec![
                (
                    "reason".to_string(),
                    Json::Str(divergence.reason.as_str().to_string()),
                ),
                (
                    "culprits".to_string(),
                    Json::Array(
                        divergence
                            .culprits
                            .iter()
                            .map(|c| Json::Str(c.to_string()))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    if let Some(branch) = o.verdict.open_branch() {
        members.push((
            "open_branch".to_string(),
            Json::Array(branch.iter().map(|l| Json::Str(l.clone())).collect()),
        ));
    }
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
}

/// The `result` of a `check` response: `check --json` shape (`impls` +
/// `summary`) built from the engine report of a single-unit batch.
pub fn check_result_json(report: &BatchReport) -> Json {
    let impls = report.obligations.iter().map(impl_json).collect();
    let (v, r, u) = report.tally();
    Json::Object(vec![
        ("impls".to_string(), Json::Array(impls)),
        (
            "summary".to_string(),
            Json::Object(vec![
                ("verified".to_string(), Json::Int(v as i64)),
                ("rejected".to_string(), Json::Int(r as i64)),
                ("unknown".to_string(), Json::Int(u as i64)),
            ]),
        ),
    ])
}

/// The `result` of an `explain` response: `explain --json` shape.
pub fn explain_result_json(unit: &str, report: &BatchReport, proc: Option<&str>) -> Json {
    let impls = report
        .obligations
        .iter()
        .filter(|o| proc.is_none_or(|f| o.proc_name == f))
        .map(|o| {
            let mut members = vec![
                ("proc".to_string(), Json::Str(o.proc_name.clone())),
                (
                    "verdict".to_string(),
                    Json::Str(o.verdict.label().to_string()),
                ),
                ("cache_hit".to_string(), Json::Bool(o.cache_hit)),
            ];
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
            members.push((
                "diagnosis".to_string(),
                match &o.diagnosis {
                    Some(d) => diagnosis_to_json(d),
                    None => Json::Null,
                },
            ));
            Json::Object(members)
        })
        .collect();
    Json::Object(vec![
        ("unit".to_string(), Json::Str(unit.to_string())),
        ("impls".to_string(), Json::Array(impls)),
    ])
}

/// A successful response line (without trailing newline).
pub fn ok_response(
    id: Option<i64>,
    cmd: &str,
    degraded: bool,
    millis: f64,
    result: Json,
    events: Option<&[oolong_engine::Event]>,
) -> String {
    let mut members = Vec::new();
    if let Some(id) = id {
        members.push(("id".to_string(), Json::Int(id)));
    }
    members.push(("ok".to_string(), Json::Bool(true)));
    members.push(("cmd".to_string(), Json::Str(cmd.to_string())));
    members.push(("degraded".to_string(), Json::Bool(degraded)));
    members.push(("millis".to_string(), Json::Float(millis)));
    members.push(("result".to_string(), result));
    if let Some(events) = events {
        members.push((
            "events".to_string(),
            Json::Array(events.iter().map(|e| e.to_json()).collect()),
        ));
    }
    Json::Object(members).render()
}

/// An error response line (without trailing newline).
pub fn error_response(id: Option<i64>, message: &str) -> String {
    let mut members = Vec::new();
    if let Some(id) = id {
        members.push(("id".to_string(), Json::Int(id)));
    }
    members.push(("ok".to_string(), Json::Bool(false)));
    members.push(("error".to_string(), Json::Str(message.to_string())));
    Json::Object(members).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_requests() {
        let r = parse_request(r#"{"id":1,"cmd":"check","unit":"corpus:example1"}"#).expect("ok");
        assert_eq!(r.id, Some(1));
        assert!(matches!(
            r.command,
            Command::Check {
                unit: UnitRef::Named(_),
                ..
            }
        ));

        let r = parse_request(
            r#"{"cmd":"check","unit":{"name":"m.oo","source":"group g"},"options":{"max_instances":5,"explain":true}}"#,
        )
        .expect("ok");
        let Command::Check { unit, options } = r.command else {
            panic!("check");
        };
        assert_eq!(unit.name(), "m.oo");
        assert_eq!(options.max_instances, Some(5));
        assert!(options.explain);

        let r = parse_request(
            r#"{"id":3,"cmd":"batch","units":["corpus:example1","corpus:example2"]}"#,
        )
        .expect("ok");
        assert!(matches!(r.command, Command::Batch { ref units, .. } if units.len() == 2));

        let r = parse_request(
            r#"{"id":4,"cmd":"explain","unit":"corpus:section31_bad_call","proc":"bad_caller"}"#,
        )
        .expect("ok");
        let Command::Explain { proc, options, .. } = r.command else {
            panic!("explain");
        };
        assert_eq!(proc.as_deref(), Some("bad_caller"));
        assert!(options.explain, "explain requests always diagnose");

        let r = parse_request(
            r#"{"id":5,"cmd":"infer","unit":"stripped:stack_module","proc":"push","max_rounds":4}"#,
        )
        .expect("ok");
        let Command::Infer {
            unit,
            proc,
            max_rounds,
            ..
        } = r.command
        else {
            panic!("infer");
        };
        assert_eq!(unit.name(), "stripped:stack_module");
        assert_eq!(proc.as_deref(), Some("push"));
        assert_eq!(max_rounds, Some(4));

        assert!(matches!(
            parse_request(r#"{"cmd":"stats"}"#).expect("ok").command,
            Command::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"cmd":"shutdown"}"#).expect("ok").command,
            Command::Shutdown
        ));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("nonsense").is_err());
        assert!(parse_request(r#"{"cmd":"frobnicate"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"check"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"batch","units":[]}"#).is_err());
        assert!(parse_request(r#"{"id":"one","cmd":"stats"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"check","unit":7}"#).is_err());
        assert!(parse_request(r#"{"cmd":"infer"}"#).is_err());
        assert!(parse_request(r#"{"cmd":"infer","unit":"x","max_rounds":"lots"}"#).is_err());
    }

    #[test]
    fn responses_parse_back() {
        let line = ok_response(Some(9), "stats", false, 0.5, Json::Object(vec![]), None);
        let value = oolong_engine::json::parse(&line).expect("parses");
        assert_eq!(value.get("id").and_then(Json::as_u64), Some(9));
        assert!(matches!(value.get("ok"), Some(Json::Bool(true))));

        let line = error_response(None, "nope");
        let value = oolong_engine::json::parse(&line).expect("parses");
        assert!(matches!(value.get("ok"), Some(Json::Bool(false))));
        assert_eq!(value.get("error").and_then(Json::as_str), Some("nope"));
    }
}
