//! Integration tests for the resident verification service: concurrent
//! clients observe the batch engine's verdicts (and warm requests make
//! zero prover calls, established by the per-response event lists), an
//! overloaded server answers *every* request with attributed degraded
//! verdicts instead of hanging, the `check` response reuses the CLI's
//! `check --json` schema byte for byte, and a full scripted session
//! (check → warm recheck → explain → stats → shutdown) runs clean.

use oolong::engine::{BatchUnit, Engine, EngineOptions, Json};
use oolong::serve::{response_ok, Client, ServeOptions, Server, ServerHandle};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

/// A scratch directory unique to one test (socket, cache, event log).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oolong-serve-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spawn_server(dir: &std::path::Path, options: ServeOptions) -> ServerHandle {
    Server::bind(ServeOptions {
        socket: dir.join("oolong.sock"),
        quiet: true,
        ..options
    })
    .expect("server binds")
    .spawn()
}

fn corpus_units() -> Vec<BatchUnit> {
    oolong::corpus::all()
        .iter()
        .map(|p| BatchUnit {
            name: format!("corpus:{}", p.name),
            source: p.source.to_string(),
        })
        .collect()
}

/// The `(unit, proc) → verdict label` map of a response's `result`.
fn verdicts_of(unit: &str, response: &Json) -> Vec<(String, String, String)> {
    response
        .get("result")
        .and_then(|r| r.get("impls"))
        .and_then(Json::as_array)
        .expect("result.impls")
        .iter()
        .map(|rep| {
            (
                unit.to_string(),
                rep.get("proc")
                    .and_then(Json::as_str)
                    .expect("proc")
                    .to_string(),
                rep.get("verdict")
                    .and_then(Json::as_str)
                    .expect("verdict")
                    .to_string(),
            )
        })
        .collect()
}

/// Counts events of one kind in a response's `events` member.
fn count_events(response: &Json, kind: &str) -> usize {
    response
        .get("events")
        .and_then(Json::as_array)
        .expect("events member")
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some(kind))
        .count()
}

/// Counts actual prover invocations in a response: `prover_profile`
/// events that are *not* replays of cached statistics.
fn prover_calls(response: &Json) -> usize {
    response
        .get("events")
        .and_then(Json::as_array)
        .expect("events member")
        .iter()
        .filter(|e| {
            e.get("event").and_then(Json::as_str) == Some("prover_profile")
                && e.get("cached") != Some(&Json::Bool(true))
        })
        .count()
}

/// Eight parallel clients checking the whole paper corpus — with
/// overlapping cold and warm rounds — observe exactly the verdicts the
/// batch engine computes, and every request of the warm round is served
/// without a single prover call.
#[test]
fn concurrent_clients_match_batch_verdicts() {
    let dir = scratch("equiv");
    let handle = spawn_server(
        &dir,
        ServeOptions {
            cache_dir: Some(dir.join("cache")),
            workers: 4,
            ..ServeOptions::default()
        },
    );

    let units = corpus_units();
    const CLIENTS: usize = 8;
    let warm_gate = Arc::new(Barrier::new(CLIENTS));
    let observed: Vec<_> = std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for client_id in 0..CLIENTS {
            let socket = handle.socket().to_path_buf();
            let units = &units;
            let warm_gate = warm_gate.clone();
            threads.push(scope.spawn(move || {
                let mut client = Client::connect(&socket).expect("connects");
                let mut seen = Vec::new();
                // Cold round: all clients race over the same obligations
                // in different orders, so cache misses overlap.
                for i in 0..units.len() {
                    let unit = &units[(i + client_id) % units.len()].name;
                    let response = client
                        .request(&format!(r#"{{"cmd":"check","unit":"{unit}"}}"#))
                        .expect("response");
                    assert!(response_ok(&response), "cold {unit}: {response:?}");
                    seen.extend(verdicts_of(unit, &response));
                }
                // Warm round: every cold request has completed, so every
                // fingerprinted obligation is cached — zero prover calls.
                // (Restriction violations carry no fingerprint and are
                // recomputed each run by design; they never call the
                // prover either.)
                warm_gate.wait();
                let mut hits = 0usize;
                for unit in units {
                    let response = client
                        .request(&format!(r#"{{"cmd":"check","unit":"{}"}}"#, unit.name))
                        .expect("response");
                    assert!(response_ok(&response), "warm {}: {response:?}", unit.name);
                    assert_eq!(
                        prover_calls(&response),
                        0,
                        "warm {} ran the prover: {response:?}",
                        unit.name
                    );
                    for kind in ["verified", "refuted", "fuel_exhausted"] {
                        assert_eq!(
                            count_events(&response, kind),
                            0,
                            "warm {} ran the prover: {response:?}",
                            unit.name
                        );
                    }
                    hits += count_events(&response, "cache_hit");
                    seen.extend(verdicts_of(&unit.name, &response));
                }
                assert!(hits > 0, "the warm round was served from the cache");
                seen
            }));
        }
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread"))
            .collect()
    });

    // Reference: the batch engine over the same units with the same
    // (default) options — what `oolong batch --json` prints.
    let engine = Engine::new(EngineOptions::default()).expect("engine");
    let report = engine.check_batch(&units);
    let expected: BTreeMap<(String, String), String> = report
        .obligations
        .iter()
        .map(|o| {
            (
                (o.unit.clone(), o.proc_name.clone()),
                o.verdict.label().to_string(),
            )
        })
        .collect();

    let mut checked = 0usize;
    for verdicts in &observed {
        for (unit, proc, label) in verdicts {
            let want = expected
                .get(&(unit.clone(), proc.clone()))
                .unwrap_or_else(|| panic!("unexpected obligation {unit}/{proc}"));
            assert_eq!(
                label, want,
                "{unit}/{proc}: server said {label}, batch engine said {want}"
            );
            checked += 1;
        }
    }
    assert_eq!(
        checked,
        CLIENTS * 2 * expected.len(),
        "every client observed every obligation twice"
    );

    Client::connect(handle.socket())
        .expect("connects")
        .request(r#"{"cmd":"shutdown"}"#)
        .expect("shutdown");
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An overloaded server — queue bound 1, one worker, starved degraded
/// budget — still answers 100% of requests: no hangs, no dropped
/// responses, and every degraded `unknown(budget)` verdict carries its
/// divergence attribution.
#[test]
fn overload_degrades_instead_of_collapsing() {
    let dir = scratch("overload");
    let handle = spawn_server(
        &dir,
        ServeOptions {
            workers: 1,
            queue: 1,
            events: Some(dir.join("events.jsonl")),
            ..ServeOptions::default()
        },
    );

    const CLIENTS: usize = 8;
    const REQUESTS: usize = 5;
    let start = Arc::new(Barrier::new(CLIENTS));
    let responses: Vec<Json> = std::thread::scope(|scope| {
        let mut threads = Vec::new();
        for _ in 0..CLIENTS {
            let socket = handle.socket().to_path_buf();
            let start = start.clone();
            threads.push(scope.spawn(move || {
                let mut client = Client::connect(&socket).expect("connects");
                start.wait();
                (0..REQUESTS)
                    .map(|i| {
                        client
                            .request(&format!(
                                r#"{{"id":{i},"cmd":"check","unit":"corpus:example3"}}"#
                            ))
                            .expect("every request is answered")
                    })
                    .collect::<Vec<_>>()
            }));
        }
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });

    assert_eq!(responses.len(), CLIENTS * REQUESTS, "100% answered");
    let mut degraded = 0usize;
    let mut verdicts: BTreeMap<String, usize> = BTreeMap::new();
    for response in &responses {
        assert!(
            response_ok(response),
            "an overloaded request errored: {response:?}"
        );
        let is_degraded = matches!(response.get("degraded"), Some(Json::Bool(true)));
        degraded += usize::from(is_degraded);
        for (_, _, label) in verdicts_of("corpus:example3", response) {
            *verdicts.entry(label).or_default() += 1;
        }
        if is_degraded {
            // A degraded unknown is still attributed: the divergence
            // member names the axioms that consumed the tiny budget.
            for rep in response
                .get("result")
                .and_then(|r| r.get("impls"))
                .and_then(Json::as_array)
                .expect("impls")
            {
                if rep.get("verdict").and_then(Json::as_str) == Some("unknown") {
                    let culprits = rep
                        .get("divergence")
                        .and_then(|d| d.get("culprits"))
                        .and_then(Json::as_array)
                        .expect("degraded unknown carries divergence");
                    assert!(!culprits.is_empty(), "culprits are named");
                }
            }
        }
    }
    assert!(
        degraded > 0,
        "8 clients × 5 requests against queue(1)/workers(1) must overflow admission"
    );
    assert!(
        verdicts.contains_key("verified"),
        "admitted requests verify under the full budget: {verdicts:?}"
    );

    // The shared cache stores verdicts per (VC, budget) fingerprint, so
    // degraded unknowns never shadow full-budget verdicts: by the end the
    // full-budget entry exists and a final request verifies.
    let mut client = Client::connect(handle.socket()).expect("connects");
    let last = client
        .request(r#"{"cmd":"check","unit":"corpus:example3"}"#)
        .expect("response");
    if !matches!(last.get("degraded"), Some(Json::Bool(true))) {
        assert_eq!(
            verdicts_of("corpus:example3", &last)[0].2,
            "verified",
            "full-budget verdict survives overload"
        );
    }

    let stats = client.request(r#"{"cmd":"stats"}"#).expect("stats");
    let requests = stats
        .get("result")
        .and_then(|r| r.get("requests"))
        .expect("requests");
    assert_eq!(
        requests.get("degraded").and_then(Json::as_u64),
        Some(degraded as u64),
        "the stats degraded counter matches the responses"
    );
    client.request(r#"{"cmd":"shutdown"}"#).expect("shutdown");
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Renders the type skeleton of a JSON value — the same rendering the
/// CLI golden tests pin, so serve responses are checked against the
/// *identical* snapshot files.
fn schema(value: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match value {
        Json::Null => {
            let _ = writeln!(out, "{pad}null");
        }
        Json::Bool(_) => {
            let _ = writeln!(out, "{pad}bool");
        }
        Json::Int(_) => {
            let _ = writeln!(out, "{pad}int");
        }
        Json::Float(_) => {
            let _ = writeln!(out, "{pad}float");
        }
        Json::Str(_) => {
            let _ = writeln!(out, "{pad}str");
        }
        Json::Array(items) => match items.first() {
            None => {
                let _ = writeln!(out, "{pad}array (empty)");
            }
            Some(first) => {
                let _ = writeln!(out, "{pad}array of:");
                schema(first, indent + 1, out);
            }
        },
        Json::Object(members) => {
            let _ = writeln!(out, "{pad}object:");
            for (key, member) in members {
                let _ = writeln!(out, "{pad}  {key}:");
                schema(member, indent + 2, out);
            }
        }
    }
}

/// The `check` response's `result` member is byte-compatible with
/// `oolong check --json`: it matches the same golden schema snapshot the
/// CLI output is pinned to.
#[test]
fn check_response_matches_cli_golden_schema() {
    let dir = scratch("schema");
    let handle = spawn_server(&dir, ServeOptions::default());
    let mut client = Client::connect(handle.socket()).expect("connects");
    let response = client
        .request(r#"{"cmd":"check","unit":"corpus:example3","options":{"max_instances":20}}"#)
        .expect("response");
    assert!(response_ok(&response));
    let result = response.get("result").expect("result member");

    let mut actual = String::new();
    schema(result, 0, &mut actual);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/check_example3_starved.schema.txt"
    );
    let expected = std::fs::read_to_string(path).expect("golden snapshot");
    assert_eq!(
        actual, expected,
        "serve `check` result drifted from the CLI `check --json` schema\nactual:\n{actual}"
    );

    client.request(r#"{"cmd":"shutdown"}"#).expect("shutdown");
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `infer` response's `result` member is byte-compatible with
/// `oolong infer --json`: it matches the same golden schema snapshot the
/// CLI output is pinned to.
#[test]
fn infer_response_matches_cli_golden_schema() {
    let dir = scratch("infer-schema");
    let handle = spawn_server(&dir, ServeOptions::default());
    let mut client = Client::connect(handle.socket()).expect("connects");
    let response = client
        .request(r#"{"cmd":"infer","unit":"stripped:example1"}"#)
        .expect("response");
    assert!(response_ok(&response));
    let result = response.get("result").expect("result member");

    let mut actual = String::new();
    schema(result, 0, &mut actual);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/infer_stripped.schema.txt"
    );
    let expected = std::fs::read_to_string(path).expect("golden snapshot");
    assert_eq!(
        actual, expected,
        "serve `infer` result drifted from the CLI `infer --json` schema\nactual:\n{actual}"
    );

    client.request(r#"{"cmd":"shutdown"}"#).expect("shutdown");
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// One scripted session end to end: cold check, warm recheck (zero
/// prover calls), explain with a confirmed diagnosis, stats consistent
/// with the session, shutdown. The server event log survives on disk
/// with one flushed line per event.
#[test]
fn scripted_session_end_to_end() {
    let dir = scratch("session");
    let events = dir.join("events.jsonl");
    let handle = spawn_server(
        &dir,
        ServeOptions {
            cache_dir: Some(dir.join("cache")),
            events: Some(events.clone()),
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(handle.socket()).expect("connects");

    let cold = client
        .request(r#"{"id":1,"cmd":"check","unit":"corpus:example1"}"#)
        .expect("cold check");
    assert!(response_ok(&cold));
    assert_eq!(count_events(&cold, "verified"), 1, "cold run proves");

    let warm = client
        .request(r#"{"id":2,"cmd":"check","unit":"corpus:example1"}"#)
        .expect("warm check");
    assert!(response_ok(&warm));
    assert_eq!(count_events(&warm, "cache_hit"), 1, "warm run hits");
    assert_eq!(prover_calls(&warm), 0, "no prover call");

    let explain = client
        .request(
            r#"{"id":3,"cmd":"explain","unit":"corpus:section31_bad_call","proc":"bad_caller"}"#,
        )
        .expect("explain");
    assert!(response_ok(&explain));
    let rep = explain
        .get("result")
        .and_then(|r| r.get("impls"))
        .and_then(Json::as_array)
        .and_then(|impls| impls.first().cloned())
        .expect("the filtered impl");
    assert_eq!(
        rep.get("obligation_kind").and_then(Json::as_str),
        Some("owner-exclusion")
    );
    assert_eq!(
        rep.get("diagnosis")
            .and_then(|d| d.get("replay"))
            .and_then(|r| r.get("status"))
            .and_then(Json::as_str),
        Some("confirmed"),
        "the diagnosis replay confirms the violation"
    );

    let infer = client
        .request(r#"{"id":4,"cmd":"infer","unit":"stripped:stack_module"}"#)
        .expect("infer");
    assert!(response_ok(&infer));
    let inferred = infer.get("result").expect("result");
    assert_eq!(inferred.get("verified"), Some(&Json::Bool(true)));
    assert!(
        inferred
            .get("proposals")
            .and_then(Json::as_array)
            .is_some_and(|ps| !ps.is_empty()),
        "the stripped unit needs proposals"
    );

    let stats = client.request(r#"{"id":5,"cmd":"stats"}"#).expect("stats");
    let result = stats.get("result").expect("result");
    let requests = result.get("requests").expect("requests");
    assert_eq!(requests.get("received").and_then(Json::as_u64), Some(5));
    assert_eq!(requests.get("errors").and_then(Json::as_u64), Some(0));
    assert_eq!(
        requests
            .get("by_cmd")
            .and_then(|b| b.get("infer"))
            .and_then(Json::as_u64),
        Some(1),
        "the stats counters track infer requests"
    );
    let engine = result.get("engine").expect("engine section");
    assert!(
        engine.get("cache_hits").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "the warm check hit the shared cache"
    );
    let store = result.get("store").expect("store section");
    assert!(
        store
            .get("disk_entries")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            >= 1,
        "verdicts were persisted to the disk tier"
    );

    let bye = client
        .request(r#"{"id":6,"cmd":"shutdown"}"#)
        .expect("shutdown");
    assert!(response_ok(&bye));
    handle.join().expect("clean shutdown");

    // The event log was flushed line by line while the server ran.
    let log = std::fs::read_to_string(&events).expect("event log exists");
    let kinds: Vec<_> = log
        .lines()
        .map(|line| {
            oolong::engine::json::parse(line)
                .expect("event line parses")
                .get("event")
                .and_then(Json::as_str)
                .expect("event kind")
                .to_string()
        })
        .collect();
    assert!(kinds.contains(&"verified".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"cache_hit".to_string()), "{kinds:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The two obligation kinds added for invariants and read effects flow
/// over the daemon: a seeded invariant violation and a seeded uncovered
/// read (sent as inline units) are refuted, their explain responses name
/// the new kinds with interpreter-confirmed diagnoses, and a repeated
/// warm explain returns a byte-identical result.
#[test]
fn new_obligation_kinds_served_end_to_end() {
    let dir = scratch("new-kinds");
    let handle = spawn_server(
        &dir,
        ServeOptions {
            cache_dir: Some(dir.join("cache")),
            ..ServeOptions::default()
        },
    );
    let mut client = Client::connect(handle.socket()).expect("connects");

    use oolong::corpus::{generate_seeded_violation_with, SeededBug};
    let cases = [
        (SeededBug::BrokenInvariant, "invariant-preserved"),
        (SeededBug::UncoveredRead, "reads-violation"),
    ];
    for (i, (bug, kind)) in cases.iter().enumerate() {
        let v = generate_seeded_violation_with(7, *bug);
        let unit = format!(
            r#"{{"name":"seeded-{i}.oo","source":{}}}"#,
            Json::Str(v.source.clone()).render()
        );
        let request = format!(r#"{{"id":{i},"cmd":"explain","unit":{unit}}}"#);
        let cold = client.request(&request).expect("explain");
        assert!(response_ok(&cold), "{bug:?}: {cold:?}");
        let rep = cold
            .get("result")
            .and_then(|r| r.get("impls"))
            .and_then(Json::as_array)
            .and_then(|impls| {
                impls
                    .iter()
                    .find(|r| r.get("proc").and_then(Json::as_str) == Some(&v.proc_name))
                    .cloned()
            })
            .unwrap_or_else(|| panic!("{bug:?}: seeded impl in response"));
        assert_eq!(
            rep.get("obligation_kind").and_then(Json::as_str),
            Some(*kind),
            "{bug:?}: the daemon names the new kind"
        );
        assert_eq!(
            rep.get("diagnosis")
                .and_then(|d| d.get("replay"))
                .and_then(|r| r.get("status"))
                .and_then(Json::as_str),
            Some("confirmed"),
            "{bug:?}: the replay confirms over the daemon"
        );
        let warm = client.request(&request).expect("warm explain");
        // Identical bytes modulo the cache_hit flag, which truthfully
        // flips on the warm round.
        let normalize = |r: &Json| {
            r.render()
                .replace("\"cache_hit\":true", "\"cache_hit\":false")
        };
        assert_eq!(
            cold.get("result").map(&normalize),
            warm.get("result").map(&normalize),
            "{bug:?}: warm explain result is byte-identical"
        );
        assert_eq!(
            prover_calls(&warm),
            0,
            "{bug:?}: warm run makes no prover call"
        );
    }

    let bye = client
        .request(r#"{"id":9,"cmd":"shutdown"}"#)
        .expect("shutdown");
    assert!(response_ok(&bye));
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed and unanswerable requests get error responses, not dropped
/// connections; the session stays usable afterwards.
#[test]
fn errors_are_answered_in_band() {
    let dir = scratch("errors");
    let handle = spawn_server(&dir, ServeOptions::default());
    let mut client = Client::connect(handle.socket()).expect("connects");

    for bad in [
        "not json at all",
        r#"{"cmd":"frobnicate"}"#,
        r#"{"cmd":"check"}"#,
        r#"{"cmd":"check","unit":"corpus:no_such_program"}"#,
        r#"{"cmd":"check","unit":{"name":"inline","source":"group g\nfield f in"}}"#,
    ] {
        let response = client.request(bad).expect("answered");
        assert!(
            !response_ok(&response),
            "`{bad}` should be an error: {response:?}"
        );
        assert!(
            response.get("error").and_then(Json::as_str).is_some(),
            "`{bad}` carries an error message"
        );
    }

    // The session is still alive and serves a real request.
    let good = client
        .request(r#"{"cmd":"check","unit":"corpus:example1"}"#)
        .expect("alive");
    assert!(response_ok(&good));

    client.request(r#"{"cmd":"shutdown"}"#).expect("shutdown");
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `line` with the value of every `"millis":` member replaced by `0`: the
/// only wall-clock numbers in a response.
fn normalize_millis(line: &str) -> String {
    const KEY: &str = "\"millis\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        let end = tail
            .find(|c: char| !matches!(c, '0'..='9' | '.' | 'e' | 'E' | '+' | '-'))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The daemon's response bytes are pinned: a cold check, a warm check and
/// an explain, on a fresh in-memory server, answer exactly the lines under
/// `tests/golden/serve_*.response.json` (wall-clock `millis` values
/// normalized to `0`).
#[test]
fn responses_match_recorded_wire_bytes() {
    let dir = scratch("wire");
    let handle = spawn_server(&dir, ServeOptions::default());
    let mut client = Client::connect(handle.socket()).expect("connects");
    let script = [
        (
            Some("serve_check_array_table_cold"),
            r#"{"id":1,"cmd":"check","unit":"corpus:array_table"}"#,
        ),
        (
            None,
            r#"{"id":2,"cmd":"check","unit":"corpus:stack_module"}"#,
        ),
        (
            Some("serve_check_stack_module_warm"),
            r#"{"id":3,"cmd":"check","unit":"corpus:stack_module"}"#,
        ),
        (
            Some("serve_explain_section31_bad_call"),
            r#"{"id":4,"cmd":"explain","unit":"corpus:section31_bad_call"}"#,
        ),
    ];
    for (golden, request) in script {
        let line = client.request_raw(request).expect("answered");
        let Some(golden) = golden else {
            continue;
        };
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{golden}.response.json"));
        let want = std::fs::read_to_string(&path).expect("golden response exists");
        let got = format!("{}\n", normalize_millis(&line));
        if got != want {
            let at = got
                .bytes()
                .zip(want.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            panic!(
                "{golden}: response differs from {} at byte {at}:\n got …{}\nwant …{}",
                path.display(),
                &got[at.saturating_sub(80)..(at + 80).min(got.len())],
                &want[at.saturating_sub(80)..(at + 80).min(want.len())],
            );
        }
    }
    client.request(r#"{"cmd":"shutdown"}"#).expect("shutdown");
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request line nested 200,000 levels deep is answered with an error
/// instead of overflowing the session thread's stack (which aborted the
/// whole daemon), and the daemon goes on serving new connections.
#[test]
fn deeply_nested_request_is_an_error_not_a_crash() {
    let dir = scratch("nested");
    let handle = spawn_server(&dir, ServeOptions::default());
    let mut client = Client::connect(handle.socket()).expect("connects");
    let line = "[".repeat(200_000);
    let response = client.request(&line).expect("answered");
    assert!(!response_ok(&response), "{response:?}");
    let error = response
        .get("error")
        .and_then(Json::as_str)
        .expect("error message");
    assert!(error.contains("nesting deeper than"), "{error}");

    // Shutdown waits for every open session, so close this one first.
    drop(client);
    let mut fresh = Client::connect(handle.socket()).expect("daemon still accepts");
    let stats = fresh.request(r#"{"cmd":"stats"}"#).expect("stats");
    assert!(response_ok(&stats));
    fresh.request(r#"{"cmd":"shutdown"}"#).expect("shutdown");
    handle.join().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}
