//! The `serve_edit` workload: the resident daemon (`oolong serve`, its
//! own process, disk cache in a fresh directory, default limits) under
//! one closed-loop client connection per core ([`clients`]), each
//! standing in for an editor or CI caller that waits for its reply.
//!
//! Each client cycles through a fixed 20-slot request mix: re-checks of
//! unchanged units (store reads), checks of `extend_source` edits (new
//! content: store writes and prover calls), `explain` on seeded
//! violations and on `array_table`, and `infer` on `unannotated:` and
//! `stripped:` units. Units stay at editor-session size.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use oolong_corpus::{self as corpus, GenConfig, SeededBug};
use oolong_engine::{Engine, EngineOptions, Json};
use oolong_serve::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib;
use crate::cold::{check_cold, judge_report, layer_metrics};
use crate::inputs::{self, paper_answers, Expect, Outcome, Unit};
use crate::report::Report;
use crate::stats::{median, percentile, proc_status_mb};
use crate::trace::{
    replay_infer, replay_unit, Held, LayerCounts, ReplayMode, Tracer, ENGINE_LAYERS,
};

/// Concurrent client connections: one per core (the daemon's default
/// worker count), at most [`MAX_CLIENTS`].
fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_CLIENTS)
}

/// Caps the client count on large machines, where one connection per core
/// would multiply the traced replay's length and the daemon's memory.
const MAX_CLIENTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Recheck,
    Edit,
    Explain,
    Infer,
}

use Kind::{Edit, Explain, Infer, Recheck};

/// One client's request cycle: 14 re-checks, 3 edits, 2 explains and
/// one infer in every 20 requests. The mix is assumed, not measured: no
/// editor traffic has been recorded, so it only encodes that most
/// requests re-check unchanged units.
const SLOTS: [Kind; 20] = [
    Recheck, Recheck, Edit, Recheck, Recheck, Explain, Recheck, Recheck, Recheck, Edit, Recheck,
    Recheck, Infer, Recheck, Recheck, Edit, Recheck, Recheck, Explain, Recheck,
];

/// Paper programs whose `stripped:` form the infer requests cycle over.
const STRIPPED: [&str; 4] = ["stack_module", "rational", "example1", "registry"];

/// The unchanged units every client re-checks: the paper corpus plus a
/// seeded draw of correct invariant and read-effect programs.
pub fn repeat_set(seed: u64) -> Vec<Unit> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_ed17);
    let mut units = inputs::paper_units();
    for i in 0..4 {
        let s = rng.gen_range(0..1_000_000u64);
        units.push(Unit {
            name: format!("invariant-{i}-{s}"),
            family: "invariant",
            size: 0,
            source: corpus::generate_invariant_source(s),
            expect: Expect::Correct,
        });
        units.push(Unit {
            name: format!("reads-{i}-{s}"),
            family: "reads",
            size: 0,
            source: corpus::generate_read_effect_source(s),
            expect: Expect::Correct,
        });
    }
    units
}

/// Bases the edits extend: the fixed generated programs of
/// `cold_corpus`, editor-session size. The seed varies the edits.
fn edit_bases() -> Vec<String> {
    inputs::LICENSED_SEEDS
        .iter()
        .map(|&s| corpus::generate_source(s, &GenConfig::default()))
        .collect()
}

/// Shape of an edit's added declarations. Bodies are one command long:
/// an edit's cost is heavy-tailed (with the default five commands one
/// edit in 27 took over 100 ms and the slowest of 600 took 29 s; with two,
/// 7 of 1,600 took over a second), and a single multi-second edit stalls
/// a client for a sizeable share of a run. See `perfbench/README.md`.
const EDIT_CONFIG: GenConfig = GenConfig {
    groups: 3,
    fields: 5,
    pivot_fraction: 0.25,
    procs: 4,
    impls: 3,
    body_len: 1,
    respect_restrictions: true,
    licensed_writes_only: true,
};

/// The edit stream is the same for every run seed, so its few expensive
/// edits land at the same places in every run instead of adding seed-
/// dependent stalls; the seed varies the re-check set, the explained
/// violations and the inferred units.
const EDIT_STREAM_SEED: u64 = 0xed17;

/// A per-request seed: distinct for every (run seed, client, index).
fn request_seed(seed: u64, client: usize, n: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add((client as u64) << 40)
        .wrapping_add(n as u64)
}

/// One scheduled request.
#[derive(Debug, Clone)]
enum Request {
    /// `check` of an inline unit.
    Check(Kind, Unit),
    /// `explain` of an inline unit, restricted to one procedure.
    Explain(Unit, String),
    /// `infer` of a named spec.
    Infer(String),
}

impl Request {
    fn kind(&self) -> Kind {
        match self {
            Request::Check(k, _) => *k,
            Request::Explain(..) => Explain,
            Request::Infer(_) => Infer,
        }
    }

    fn line(&self, id: i64) -> String {
        let inline = |u: &Unit| {
            Json::Object(vec![
                ("name".to_string(), Json::Str(u.name.clone())),
                ("source".to_string(), Json::Str(u.source.clone())),
            ])
        };
        let mut members = vec![("id".to_string(), Json::Int(id))];
        match self {
            Request::Check(_, u) => {
                members.push(("cmd".to_string(), Json::Str("check".to_string())));
                members.push(("unit".to_string(), inline(u)));
            }
            Request::Explain(u, proc) => {
                members.push(("cmd".to_string(), Json::Str("explain".to_string())));
                members.push(("unit".to_string(), inline(u)));
                members.push(("proc".to_string(), Json::Str(proc.clone())));
            }
            Request::Infer(spec) => {
                members.push(("cmd".to_string(), Json::Str("infer".to_string())));
                members.push(("unit".to_string(), Json::Str(spec.clone())));
            }
        }
        Json::Object(members).render()
    }
}

/// The workload's inputs and request schedule for one seed.
struct Schedule {
    seed: u64,
    repeat: Vec<Unit>,
    bases: Vec<String>,
    array_table: Unit,
}

impl Schedule {
    fn new(seed: u64) -> Schedule {
        let array_table = inputs::paper_units()
            .into_iter()
            .find(|u| u.name == "array_table")
            .expect("array_table is in the corpus");
        Schedule {
            seed,
            repeat: repeat_set(seed),
            bases: edit_bases(),
            array_table,
        }
    }

    /// The `n`-th request of `client`. Slots are offset per client so the
    /// clients' heavy requests do not line up.
    fn request(&self, client: usize, n: usize) -> Request {
        let slot = (n + client * 7) % SLOTS.len();
        let cycle = n / SLOTS.len();
        let rs = request_seed(self.seed, client, n);
        match SLOTS[slot] {
            Recheck => {
                let i = (n * 5 + client * 3) % self.repeat.len();
                Request::Check(Recheck, self.repeat[i].clone())
            }
            Edit => {
                let base = &self.bases[(n + client) % self.bases.len()];
                let rs = request_seed(EDIT_STREAM_SEED, client, n);
                Request::Check(
                    Edit,
                    Unit::monitored(
                        format!("edit-{client}-{n}"),
                        "edit",
                        corpus::extend_source(base, rs, &EDIT_CONFIG),
                    ),
                )
            }
            Explain if (cycle + client) % 4 == 3 => {
                Request::Explain(self.array_table.clone(), "touch".to_string())
            }
            Explain => {
                let bug = SeededBug::ALL[(n / 3 + client) % SeededBug::ALL.len()];
                let unit = inputs::seeded_unit(format!("explain-{client}-{n}"), rs, bug);
                let Expect::Seeded { proc, .. } = &unit.expect else {
                    unreachable!("seeded units carry seeded answers")
                };
                let proc = proc.clone();
                Request::Explain(unit, proc)
            }
            Infer if cycle.is_multiple_of(2) => {
                Request::Infer(format!("unannotated:{}", rs % 1_000_000))
            }
            Infer => Request::Infer(format!(
                "stripped:{}",
                STRIPPED[(cycle / 2 + client) % STRIPPED.len()]
            )),
        }
    }
}

/// One implementation in a response.
#[derive(Debug, Clone)]
struct ImplAnswer {
    proc: String,
    outcome: Outcome,
    counters: Option<[u64; 3]>,
    blame: Option<(String, u32, u32)>,
}

/// A parsed response.
#[derive(Debug, Clone, Default)]
struct Answer {
    error: Option<String>,
    millis: f64,
    impls: Vec<ImplAnswer>,
    /// `infer`: proposal edits, and accuracy `(exact, procs, other)`.
    edits: Vec<oolong_infer::Edit>,
    accuracy: Option<(u64, u64, u64)>,
}

fn parse_answer(response: &Json) -> Answer {
    if !matches!(response.get("ok"), Some(Json::Bool(true))) {
        return Answer {
            error: Some(
                response
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("malformed response")
                    .to_string(),
            ),
            ..Answer::default()
        };
    }
    let result = response.get("result");
    let count = |v: Option<&Json>| v.and_then(Json::as_u64).unwrap_or(0);
    let impls = result
        .and_then(|r| r.get("impls"))
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|i| {
            let kind = i
                .get("obligation_kind")
                .and_then(Json::as_str)
                .map(str::to_string);
            let outcome = match i.get("verdict").and_then(Json::as_str).unwrap_or("") {
                "verified" => Outcome::Verified,
                "unknown" => Outcome::Unknown,
                "not verified" => Outcome::Refuted(kind),
                "restriction violation" => Outcome::Restriction,
                other => Outcome::TranslationError(other.to_string()),
            };
            let counters = i.get("stats").map(|s| {
                [
                    count(s.get("instances")),
                    count(s.get("trigger_matches")),
                    count(s.get("branches")),
                ]
            });
            let blame = i
                .get("diagnosis")
                .filter(|d| !matches!(d, Json::Null))
                .map(|d| {
                    (
                        d.get("kind")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        count(d.get("start")) as u32,
                        count(d.get("end")) as u32,
                    )
                });
            ImplAnswer {
                proc: i
                    .get("proc")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                outcome,
                counters,
                blame,
            }
        })
        .collect();
    let edits = result
        .and_then(|r| r.get("proposals"))
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|p| p.get("edit"))
        .filter_map(|e| {
            Some(oolong_infer::Edit {
                start: e.get("start")?.as_u64()? as usize,
                end: e.get("end")?.as_u64()? as usize,
                insert: e.get("insert")?.as_str()?.to_string(),
            })
        })
        .collect();
    let accuracy = result.and_then(|r| r.get("accuracy")).map(|a| {
        (
            count(a.get("exact")),
            count(a.get("procs")),
            count(a.get("other")),
        )
    });
    Answer {
        error: None,
        millis: response.get("millis").and_then(Json::as_f64).unwrap_or(0.0),
        impls,
        edits,
        accuracy,
    }
}

/// One answered request.
struct Record {
    client: usize,
    n: usize,
    request: Request,
    rtt_ms: f64,
    answer: Answer,
}

/// A running `oolong serve` process.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(oolong: &Path, dir: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir.join("cache"))
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let oolong = std::fs::canonicalize(oolong)
            .map_err(|e| format!("no oolong binary at {}: {e}", oolong.display()))?;
        let child = Command::new(oolong)
            .args([
                "serve",
                "--socket",
                "s.sock",
                "--cache-dir",
                "cache",
                "--quiet",
            ])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let mut daemon = Daemon {
            child,
            socket: dir.join("s.sock"),
        };
        let start = Instant::now();
        while Client::connect(&daemon.socket).is_err() {
            if start.elapsed() > Duration::from_secs(20) {
                daemon.kill();
                return Err("the daemon did not open its socket within 20 s".to_string());
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(daemon)
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.socket).map_err(|e| format!("cannot connect to the daemon: {e}"))
    }

    /// Asks the daemon to shut down and waits for it.
    fn stop(mut self) {
        if let Ok(mut c) = self.client() {
            let _ = c.request_raw(r#"{"cmd":"shutdown"}"#);
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(10) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Starts a daemon and primes it with every re-check unit.
fn start_primed(oolong: &Path, dir: &Path, schedule: &Schedule) -> Result<Daemon, String> {
    let daemon = Daemon::start(oolong, dir)?;
    let mut client = daemon.client()?;
    for (i, unit) in schedule.repeat.iter().enumerate() {
        let line = Request::Check(Recheck, unit.clone()).line(-(i as i64) - 1);
        let response = client
            .request(&line)
            .map_err(|e| format!("priming {}: {e}", unit.name))?;
        if let Some(e) = parse_answer(&response).error {
            return Err(format!("priming {}: {e}", unit.name));
        }
    }
    Ok(daemon)
}

/// Length of the slices the window is cut into. Every rate and latency
/// percentile is computed per slice and reported as the median over
/// slices, scaled to reference time by calibration probes taken between
/// slices while the daemon is idle (see [`calib`]).
const SLICE_S: f64 = 3.0;

/// The requests of one slice of the window.
struct Slice {
    /// Wall seconds from the slice's start until its last answer.
    seconds: f64,
    /// The calibration probe taken just before the slice, in ms.
    probe_ms: f64,
    rtt_ms: Vec<f64>,
    edit_ms: Vec<f64>,
    obligations: u64,
}

/// Runs the closed loop for `seconds`, slice by slice: in each slice every
/// client sends requests until the slice's deadline and finishes the one
/// in flight; each client also goes on until it has sent `at_least`
/// requests. Returns every answered request and the slices. A lost
/// connection ends that client's loop with an error record and ends the
/// window.
fn drive(
    daemon: &Daemon,
    schedule: &Schedule,
    clients: usize,
    seconds: f64,
    at_least: usize,
) -> Result<(Vec<Record>, Vec<Slice>), String> {
    let mut clients: Vec<(Client, usize)> = (0..clients)
        .map(|_| daemon.client().map(|c| (c, 0)))
        .collect::<Result<_, _>>()?;
    let count = (seconds / SLICE_S).round().max(1.0) as usize;
    let mut records = Vec::new();
    let mut slices = Vec::new();
    for _ in 0..count {
        let probe_ms = calib::probe();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds / count as f64);
        let answered: Vec<Vec<Record>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .enumerate()
                .map(|(client, (conn, n))| {
                    scope.spawn(move || run_client(conn, n, client, schedule, deadline, at_least))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let mut slice = Slice {
            seconds: start.elapsed().as_secs_f64(),
            probe_ms,
            rtt_ms: Vec::new(),
            edit_ms: Vec::new(),
            obligations: 0,
        };
        let mut lost = false;
        for r in answered.into_iter().flatten() {
            lost |= r
                .answer
                .error
                .as_deref()
                .is_some_and(|e| e.starts_with(LOST));
            if r.answer.error.is_none() {
                slice.rtt_ms.push(r.rtt_ms);
                if r.request.kind() == Edit {
                    slice.edit_ms.push(r.rtt_ms);
                }
                if r.request.kind() != Infer {
                    slice.obligations += r.answer.impls.len() as u64;
                }
            }
            records.push(r);
        }
        slices.push(slice);
        if lost {
            break;
        }
    }
    records.sort_by_key(|r| (r.n, r.client));
    Ok((records, slices))
}

/// Prefix of the error of a request whose connection dropped.
const LOST: &str = "connection lost";

/// One client's closed loop until `deadline`, and until it has sent
/// `at_least` requests; `n` is its request count.
fn run_client(
    conn: &mut Client,
    n: &mut usize,
    client: usize,
    schedule: &Schedule,
    deadline: Instant,
    at_least: usize,
) -> Vec<Record> {
    let mut records = Vec::new();
    while Instant::now() < deadline || *n < at_least {
        let request = schedule.request(client, *n);
        let line = request.line((client * 1_000_000 + *n) as i64);
        let t = Instant::now();
        let response = conn.request(&line);
        let rtt_ms = t.elapsed().as_secs_f64() * 1e3;
        let answer = match &response {
            Ok(r) => parse_answer(r),
            Err(e) => Answer {
                error: Some(format!("{LOST}: {e}")),
                ..Answer::default()
            },
        };
        records.push(Record {
            client,
            n: *n,
            request,
            rtt_ms,
            answer,
        });
        *n += 1;
        if response.is_err() {
            break;
        }
    }
    records
}

/// The daemon's `stats` response.
fn daemon_stats(daemon: &Daemon) -> Result<Json, String> {
    let mut c = daemon.client()?;
    let r = c
        .request(r#"{"cmd":"stats"}"#)
        .map_err(|e| format!("stats request: {e}"))?;
    r.get("result")
        .cloned()
        .ok_or_else(|| "stats response without result".to_string())
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut v = Some(stats);
    for key in path {
        v = v.and_then(|j| j.get(key));
    }
    v.and_then(Json::as_f64).unwrap_or(0.0)
}

/// Judges every record against its known answer, after the timed window:
/// edits run the runtime monitor here when they verify wholesale, and
/// infer proposals are re-verified here.
fn judge_records(records: &[Record], report: &mut Report) {
    // Re-verification per distinct (unit, proposal set).
    let mut reverified: HashMap<String, Vec<String>> = HashMap::new();
    for r in records {
        let mut problems = Vec::new();
        if let Some(e) = &r.answer.error {
            problems.push(format!("request {}/{}: error response: {e}", r.client, r.n));
            report.attempt(problems);
            continue;
        }
        match &r.request {
            Request::Check(_, unit) => problems.extend(judge_impls(unit, &r.answer)),
            Request::Explain(unit, proc) => {
                problems.extend(judge_impls(unit, &r.answer));
                let diagnosed = r
                    .answer
                    .impls
                    .iter()
                    .any(|i| &i.proc == proc && i.blame.is_some());
                if matches!(unit.expect, Expect::Seeded { .. }) && !diagnosed {
                    problems.push(format!("{}::{proc}: explain gave no diagnosis", unit.name));
                }
            }
            Request::Infer(spec) => {
                if let Some((_, _, other)) = r.answer.accuracy {
                    if other > 0 {
                        problems.push(format!(
                            "{spec}: {other} inferred frames miss ground-truth writes"
                        ));
                    }
                }
                let key = format!("{spec} {:?}", r.answer.edits);
                let found = reverified
                    .entry(key)
                    .or_insert_with(|| reverify(spec, &r.answer.edits));
                problems.extend(found.iter().cloned());
            }
        }
        report.attempt(problems);
    }
}

/// Judges every implementation of a check or explain answer, including
/// diagnosis blame.
fn judge_impls(unit: &Unit, answer: &Answer) -> Vec<String> {
    let mut problems = Vec::new();
    if answer.impls.is_empty() {
        problems.push(format!("{}: no implementations answered", unit.name));
    }
    problems.extend(unit.judge_all(answer.impls.iter().map(|i| (i.proc.as_str(), &i.outcome))));
    for i in &answer.impls {
        if let Some((kind, start, end)) = &i.blame {
            if let Err(e) = unit.judge_blame(&i.proc, kind, *start, *end) {
                problems.push(e);
            }
        }
    }
    problems
}

/// Applies an infer response's edits to its unit and checks the result
/// with a fresh engine: a proposal set that leaves a rejection is unsound.
fn reverify(spec: &str, edits: &[oolong_infer::Edit]) -> Vec<String> {
    let resolved = match oolong_infer::resolve_spec(spec) {
        Some(Ok(u)) => u,
        _ => return vec![format!("{spec}: cannot resolve the infer unit")],
    };
    let expect = match spec.strip_prefix("stripped:").and_then(paper_answers) {
        Some(table) => Expect::Paper(table),
        None => Expect::Correct,
    };
    let unit = Unit {
        name: format!("{spec}+proposals"),
        family: "infer",
        size: 0,
        source: oolong_infer::apply_edits(&resolved.source, edits),
        expect,
    };
    let (_, report) = check_cold(&unit);
    judge_report(&unit, &report)
}

/// Calibration probes before each set-up. A set-up takes about 0.4 s and
/// single probes vary by a sixth within a run, so one probe per set-up
/// would leave the scale of `setup_s` noisier than its median.
const SETUP_PROBES: usize = 3;

/// Runs the workload; in a traced run, also replays the answered
/// requests through the layers and returns the spans.
pub fn run(
    oolong: &Path,
    dir: &Path,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_repeats: usize,
    report: &mut Report,
) -> Result<Option<Tracer>, String> {
    // Set-up, `setup_repeats` times: inputs, daemon start, priming. The
    // last daemon stays up for the timed window.
    let mut setup_times = Vec::new();
    let mut setup_probes = Vec::new();
    let mut daemon = None;
    let mut schedule = None;
    for _ in 0..setup_repeats {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        setup_probes.extend((0..SETUP_PROBES).map(|_| calib::probe()));
        let start = Instant::now();
        let s = Schedule::new(seed);
        daemon = Some(start_primed(oolong, dir, &s)?);
        setup_times.push(start.elapsed().as_secs_f64());
        schedule = Some(s);
    }
    let daemon = daemon.expect("set up at least once");
    let schedule = schedule.expect("set up at least once");
    let rss_after_setup = proc_status_mb(daemon.pid(), "VmRSS");

    let window = if trace {
        seconds as f64 / 2.0
    } else {
        seconds as f64
    };
    let clients = clients();
    // A traced run answers at least the request prefix its replay covers.
    let at_least = if trace {
        REPLAY_CYCLES * SLOTS.len()
    } else {
        0
    };
    let (records, slices) = drive(&daemon, &schedule, clients, window, at_least)?;
    let judge_start = Instant::now();
    // A daemon that died mid-run still gets a report: its loss shows as
    // failed requests and a failed `stats` request.
    let stats = daemon_stats(&daemon).unwrap_or_else(|e| {
        report.attempt(vec![format!("daemon stats after the window: {e}")]);
        Json::Null
    });
    let peak_rss = proc_status_mb(daemon.pid(), "VmHWM");
    let rss_growth = proc_status_mb(daemon.pid(), "VmRSS") - rss_after_setup;
    Daemon::stop(daemon);

    judge_records(&records, report);
    let judge_s = judge_start.elapsed().as_secs_f64();
    let rtt = |pred: &dyn Fn(Kind) -> bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.answer.error.is_none() && pred(r.request.kind()))
            .map(|r| r.rtt_ms)
            .collect()
    };
    let all = rtt(&|_| true);
    let edits = rtt(&|k| k == Edit);
    let explains = rtt(&|k| k == Explain);
    let infers = rtt(&|k| k == Infer);
    let (mut obligations, mut decided) = (0u64, 0u64);
    for r in &records {
        if r.request.kind() != Infer {
            obligations += r.answer.impls.len() as u64;
            decided += r
                .answer
                .impls
                .iter()
                .filter(|i| i.outcome.decided())
                .count() as u64;
        }
    }
    let server: Vec<f64> = records.iter().map(|r| r.answer.millis).collect();
    let wait: Vec<f64> = records.iter().map(|r| r.rtt_ms - r.answer.millis).collect();
    if !trace {
        report.metric(
            "setup_s",
            median(&setup_times) * calib::scale(&setup_probes),
            "s",
        );
        report.line(format!(
            "set-ups, wall s: {}; calibration kernel median={:.4} ms over {} probes",
            setup_times
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" "),
            median(&setup_probes),
            setup_probes.len()
        ));
        let probes: Vec<f64> = slices.iter().map(|s| s.probe_ms).collect();
        let scale = calib::scale(&probes);
        // Median over slices of a per-slice latency, or of a count per
        // second (`rate`), scaled to reference time or raw.
        let over = |stat: &dyn Fn(&Slice) -> f64, rate: bool, scaled: bool| -> f64 {
            let values: Vec<f64> = slices
                .iter()
                .map(|s| if rate { stat(s) / s.seconds } else { stat(s) })
                .collect();
            match (scaled, rate) {
                (false, _) => median(&values),
                (true, false) => median(&values) * scale,
                (true, true) => median(&values) / scale,
            }
        };
        let edit_pct = |q: f64, scaled: bool| over(&|s| percentile(&s.edit_ms, q), false, scaled);
        let rtt_pct = |q: f64, scaled: bool| over(&|s| percentile(&s.rtt_ms, q), false, scaled);
        let requests = |scaled: bool| over(&|s| s.rtt_ms.len() as f64, true, scaled);
        let obligations_rate = |scaled: bool| over(&|s| s.obligations as f64, true, scaled);
        report.timing("unit_ms.p50", edit_pct(0.5, true), "ms", edits.len());
        report.timing("unit_ms.p90", edit_pct(0.9, true), "ms", edits.len());
        report.timing("request_ms.p50", rtt_pct(0.5, true), "ms", all.len());
        report.timing("request_ms.p99", rtt_pct(0.99, true), "ms", all.len());
        report.timing("requests_per_s", requests(true), "1/s", all.len());
        report.timing(
            "obligations_per_s",
            obligations_rate(true),
            "1/s",
            obligations as usize,
        );
        report.line(format!(
            "raw wall clock: unit_ms.p50={:.4} unit_ms.p90={:.4} request_ms.p50={:.4} \
             request_ms.p99={:.4} requests_per_s={:.4} obligations_per_s={:.4}",
            edit_pct(0.5, false),
            edit_pct(0.9, false),
            rtt_pct(0.5, false),
            rtt_pct(0.99, false),
            requests(false),
            obligations_rate(false),
        ));
        report.timing(
            "decided_share",
            decided as f64 / obligations.max(1) as f64,
            "ratio",
            obligations as usize,
        );
        report.metric("peak_rss_mb", peak_rss, "MB");
        report.timing(
            "explain_ms.p50",
            percentile(&explains, 0.5),
            "ms",
            explains.len(),
        );
        report.timing("infer_ms.p50", percentile(&infers, 0.5), "ms", infers.len());
        report.metric("rss_growth_mb", rss_growth, "MB");
    }
    report.timing("serve.server_ms", median(&server), "ms", server.len());
    report.timing("serve.wait_ms", median(&wait), "ms", wait.len());
    report.metric(
        "serve.queue_peak",
        stat(&stats, &["queue", "peak"]),
        "count",
    );
    report.metric(
        "serve.degraded",
        stat(&stats, &["requests", "degraded"]),
        "count",
    );
    report.metric(
        "serve.errors",
        stat(&stats, &["requests", "errors"]),
        "count",
    );
    let (exact, procs) = records
        .iter()
        .filter_map(|r| r.answer.accuracy)
        .fold((0, 0), |(e, p), (ae, ap, _)| (e + ae, p + ap));
    report.metric(
        "infer.exact_share",
        exact as f64 / procs.max(1) as f64,
        "ratio",
    );
    let probes: Vec<f64> = slices.iter().map(|s| s.probe_ms).collect();
    report.line(format!(
        "clients={clients} (closed loop) window_s={window} in {} slices of {:.3} s wall \
         (median), judged in {judge_s:.3} s; calibration kernel median={:.4} ms \
         (min {:.4}, max {:.4}), scale={:.4}",
        slices.len(),
        median(&slices.iter().map(|s| s.seconds).collect::<Vec<_>>()),
        median(&probes),
        percentile(&probes, 0.0),
        percentile(&probes, 1.0),
        calib::scale(&probes),
    ));
    for kind in [Recheck, Edit, Explain, Infer] {
        let ms = rtt(&|k| k == kind);
        report.line(format!(
            "{kind:?}: n={} p50_ms={:.3} p99_ms={:.3} max_ms={:.3}",
            ms.len(),
            percentile(&ms, 0.5),
            percentile(&ms, 0.99),
            percentile(&ms, 1.0)
        ));
    }
    report.line(format!(
        "daemon store over the window: mem_hits={} disk_hits={} mem_misses={} inserts={} prover_calls={} obligations={}",
        stat(&stats, &["store", "mem_hits"]),
        stat(&stats, &["store", "disk_hits"]),
        stat(&stats, &["store", "mem_misses"]),
        stat(&stats, &["store", "inserts"]),
        stat(&stats, &["engine", "prover_calls"]),
        stat(&stats, &["engine", "obligations"]),
    ));
    if !trace {
        return Ok(None);
    }
    Ok(Some(replay(&schedule, &records, clients, report)))
}

/// Cycles of the request schedule per client that the traced replay
/// covers: a fixed prefix, whatever the window answered beyond it, so the
/// per-layer figures measure a fixed amount of work. Thirteen cycles hold
/// every request kind of every client, `array_table` explains included,
/// and one edit whose proof runs out of budget, so edit misses reach
/// `prover.prove_ms.unknown`.
const REPLAY_CYCLES: usize = 13;

/// Rounds of the replay (one untraced pass, then one traced); the `*_ms`
/// figures are medians over rounds.
const REPLAY_ROUNDS: usize = 3;

/// The traced replay of the fixed request prefix, in request order, with
/// the benchmark's own fingerprint set standing in for the verdict store.
fn replay(schedule: &Schedule, records: &[Record], clients: usize, report: &mut Report) -> Tracer {
    // The store as priming left it: every re-check unit answered.
    let mut primed = ReplayMode::default();
    for (i, unit) in schedule.repeat.iter().enumerate() {
        let mut quiet = Tracer::new(false);
        let _ = replay_unit(
            &mut quiet,
            i as u64,
            unit,
            &mut primed,
            &mut LayerCounts::default(),
        );
    }
    let primed = primed.answered;

    // Records are in (n, client) order, so this is the schedule's order.
    let length = REPLAY_CYCLES * SLOTS.len();
    let prefix: Vec<&Record> = records.iter().filter(|r| r.n < length).collect();
    if prefix.len() < length * clients {
        report.attempt(vec![format!(
            "the window answered {} of the {} requests the replay covers",
            prefix.len(),
            length * clients
        )]);
    }
    let mut tracer = Tracer::new(true);
    let mut quiet_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut layer_rounds: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut first: Option<ReplayPass> = None;
    let mut stable = true;
    for round in 0..REPLAY_ROUNDS {
        quiet_ms.push(replay_pass(&mut Tracer::new(false), &prefix, &primed, None).ms);
        let mark = tracer.mark();
        let fidelity = if round == 0 { Some(&mut *report) } else { None };
        let pass = replay_pass(&mut tracer, &prefix, &primed, fidelity);
        traced_ms.push(pass.ms);
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (&(_, name), &ms) in &tracer.self_ms_since(mark) {
            *by_layer.entry(name).or_insert(0.0) += ms;
        }
        for (name, ms) in by_layer {
            layer_rounds.entry(name).or_default().push(ms);
        }
        match &first {
            None => first = Some(pass),
            Some(f) => stable &= (f.counts, f.infer_rounds) == (pass.counts, pass.infer_rounds),
        }
    }
    if !stable {
        report.attempt(vec![
            "replay work counters drifted between rounds".to_string()
        ]);
    }
    let ReplayPass {
        counts,
        infer_rounds,
        ..
    } = first.expect("at least one replay round");
    let layer = |name: &str| layer_rounds.get(name).map_or(0.0, |v| median(v));
    layer_metrics(report, &layer, &counts, REPLAY_ROUNDS);
    let server_engine_ms: f64 = prefix
        .iter()
        .filter(|r| r.request.kind() != Infer)
        .map(|r| r.answer.millis)
        .sum();
    let replay_layers: f64 =
        ENGINE_LAYERS.iter().map(|l| layer(l)).sum::<f64>() + layer("diagnose");
    // Store traffic of the same prefix, counted by the stand-in: every
    // miss is a prover call.
    let (hits, misses) = (counts.store_hits as f64, counts.store_misses as f64);
    report.metric("engine.store_hits", hits, "count");
    report.metric("engine.store_misses", misses, "count");
    report.metric(
        "engine.store_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    report.metric("engine.prover_calls", counts.prover.proofs as f64, "count");
    report.timing(
        "engine.self_ms",
        server_engine_ms - replay_layers,
        "ms",
        REPLAY_ROUNDS,
    );
    report.timing(
        "trace.overhead_ms",
        median(&traced_ms) - median(&quiet_ms),
        "ms",
        REPLAY_ROUNDS,
    );
    report.timing(
        "diagnose.diagnose_ms",
        layer("diagnose"),
        "ms",
        REPLAY_ROUNDS,
    );
    report.metric(
        "diagnose.confirmed_share",
        counts.confirmed as f64 / counts.diagnoses.max(1) as f64,
        "ratio",
    );
    report.timing("infer.infer_ms", layer("infer"), "ms", REPLAY_ROUNDS);
    report.metric("infer.rounds", infer_rounds as f64, "count");
    report.line(format!(
        "replay of the first {REPLAY_CYCLES} request cycles of every client ({} of {} \
         answered requests), {REPLAY_ROUNDS} rounds: untraced median {:.3} ms, traced \
         median {:.3} ms",
        prefix.len(),
        records.len(),
        median(&quiet_ms),
        median(&traced_ms)
    ));
    report.line(format!(
        "work counters of the replay (deterministic{}): {} vc_size={} vc_labels={} \
         store_hits={} store_misses={}",
        if stable {
            ", identical in every round"
        } else {
            ", DRIFTED between rounds"
        },
        counts.prover.render(),
        counts.vc_size,
        counts.vc_labels,
        counts.store_hits,
        counts.store_misses
    ));
    tracer
}

/// What one replay pass did.
struct ReplayPass {
    ms: f64,
    counts: LayerCounts,
    infer_rounds: u64,
}

/// Replays `records` in order; with `fidelity`, compares each replayed
/// answer with the daemon's.
fn replay_pass(
    tr: &mut Tracer,
    records: &[&Record],
    primed: &HashMap<oolong_engine::Fingerprint, Held>,
    mut fidelity: Option<&mut Report>,
) -> ReplayPass {
    let mut mode = ReplayMode {
        answered: primed.clone(),
        diagnose: false,
    };
    let engine = Engine::new(EngineOptions::default()).expect("in-memory engine");
    let mut pass = ReplayPass {
        ms: 0.0,
        counts: LayerCounts::default(),
        infer_rounds: 0,
    };
    let start = Instant::now();
    for (id, r) in records.iter().enumerate() {
        match &r.request {
            Request::Check(_, unit) | Request::Explain(unit, _) => {
                mode.diagnose = r.request.kind() == Explain;
                let out = replay_unit(tr, id as u64, unit, &mut mode, &mut pass.counts);
                if let Some(report) = fidelity.as_deref_mut() {
                    report.attempt(replay_fidelity(unit, out, r));
                }
            }
            Request::Infer(spec) => {
                let Some(Ok(u)) = oolong_infer::resolve_spec(spec) else {
                    continue;
                };
                if let Ok(o) = replay_infer(tr, id as u64, &engine, &u.name, &u.source) {
                    pass.infer_rounds += o.rounds as u64;
                }
            }
        }
    }
    pass.ms = start.elapsed().as_secs_f64() * 1e3;
    pass
}

/// The replay must reach the daemon's verdicts and prover counters for
/// every obligation it proved (explain answers carry no counters).
fn replay_fidelity(
    unit: &Unit,
    traced: Result<Vec<crate::trace::ObligationTrace>, String>,
    record: &Record,
) -> Vec<String> {
    let traced = match traced {
        Ok(t) => t,
        Err(e) => return vec![format!("{}: replay error: {e}", unit.name)],
    };
    let answer = &record.answer;
    if answer.error.is_some() {
        return Vec::new();
    }
    // `explain` answers only the requested procedure.
    let traced: Vec<_> = match &record.request {
        Request::Explain(_, proc) => traced.iter().filter(|t| &t.proc == proc).collect(),
        _ => traced.iter().collect(),
    };
    if answer.impls.len() != traced.len() {
        return vec![format!(
            "{}: fidelity: daemon answered {} implementations, replay {}",
            unit.name,
            answer.impls.len(),
            traced.len()
        )];
    }
    compare(unit, traced, answer.impls.iter().collect())
}

fn compare(
    unit: &Unit,
    traced: Vec<&crate::trace::ObligationTrace>,
    answered: Vec<&ImplAnswer>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (t, a) in traced.into_iter().zip(answered) {
        let counters_differ = a.counters.is_some() && a.counters != t.counters;
        if a.outcome != t.outcome || counters_differ {
            problems.push(format!(
                "{}::{}: fidelity: daemon {} {:?}, replay {} {:?}",
                unit.name,
                t.proc,
                a.outcome.label(),
                a.counters,
                t.outcome.label(),
                t.counters
            ));
        }
    }
    problems
}
