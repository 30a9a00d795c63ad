//! The resident daemon: accept loop, session threads, worker pool,
//! admission control, and load metrics.
//!
//! ## Threading model
//!
//! One thread accepts connections; each connection gets a session thread
//! that reads request lines and writes response lines in order; a fixed
//! pool of worker threads executes the proving work. Sessions hand each
//! proving request (`check` / `batch` / `explain`) to the pool through a
//! *bounded* queue and block for its response, so concurrency equals the
//! number of live sessions but CPU work is capped by the pool size.
//! `stats` and `shutdown` are answered inline — they must stay responsive
//! precisely when the pool is saturated.
//!
//! ## Admission control
//!
//! The queue bound is the admission limit. When a session cannot enqueue
//! (pool busy, queue full), the request is *not* dropped and does *not*
//! wait: the session runs it immediately under the server's **degraded
//! budget** (default [`Budget::tiny`]). A starved budget turns hard
//! obligations into fast `unknown` verdicts that carry the usual
//! divergence attribution, so overload degrades per-request answer
//! quality instead of collapsing into an unbounded queue — the same
//! bounded-effort philosophy the paper applies to diverging proofs (§5).
//! Degraded responses are marked `"degraded":true`.
//!
//! ## Shared cache
//!
//! All requests share one [`TieredStore`] opened at bind time: a bounded
//! in-memory LRU tier in front of the persistent on-disk tier. Engines
//! are built per request (each request may override its prover budget)
//! against the same store handle, so a warm obligation is served from
//! memory no matter which session, budget, or engine asks.

use crate::histogram::LatencyHistogram;
use crate::protocol::{
    check_response, error_response, explain_result_json, ok_response, parse_request, Command,
    Request, UnitRef,
};
use datagroups::CheckOptions;
use oolong_engine::{
    BatchReport, BatchUnit, ContextPool, Engine, EngineOptions, EventLogWriter, Json, TieredStore,
    VerdictStore, DEFAULT_CONTEXT_CAPACITY, DEFAULT_MEMORY_CAPACITY,
};
use oolong_prover::Budget;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Path of the Unix socket to listen on. A stale socket file is
    /// replaced.
    pub socket: PathBuf,
    /// Directory of the persistent verdict tier; `None` serves from
    /// memory only.
    pub cache_dir: Option<PathBuf>,
    /// Entry bound of the in-memory LRU tier.
    pub mem_capacity: usize,
    /// Worker threads executing proving requests; `0` means one per
    /// available core.
    pub workers: usize,
    /// Admission-queue bound: proving requests beyond this many waiting
    /// are run degraded instead of queued.
    pub queue: usize,
    /// Default checking options; requests may override budget dimensions
    /// and toggles per request.
    pub check: CheckOptions,
    /// The budget applied to requests admitted past a full queue.
    pub degraded_budget: Budget,
    /// Stream every engine event of every request to this JSONL file,
    /// flushed per line so aborted requests stay observable.
    pub events: Option<PathBuf>,
    /// Log one JSON object per request to stderr instead of a human
    /// line.
    pub json_log: bool,
    /// Suppress per-request logging entirely (tests, benches).
    pub quiet: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("oolong.sock"),
            cache_dir: None,
            mem_capacity: DEFAULT_MEMORY_CAPACITY,
            workers: 0,
            queue: 64,
            check: CheckOptions::default(),
            degraded_budget: Budget::tiny(),
            events: None,
            json_log: false,
            quiet: false,
        }
    }
}

/// Monotonic counters and the latency histogram behind the `stats`
/// request.
#[derive(Debug, Default)]
struct Metrics {
    received: AtomicU64,
    answered: AtomicU64,
    errors: AtomicU64,
    degraded: AtomicU64,
    by_cmd: [AtomicU64; 6],
    queue_depth: AtomicUsize,
    queue_peak: AtomicUsize,
    cache_hits: AtomicU64,
    prover_calls: AtomicU64,
    obligations: AtomicU64,
    latencies: LatencyHistogram,
}

const CMD_NAMES: [&str; 6] = ["check", "batch", "explain", "infer", "stats", "shutdown"];

fn cmd_index(name: &str) -> usize {
    CMD_NAMES.iter().position(|&c| c == name).unwrap_or(0)
}

/// State shared by every server thread.
struct Shared {
    options: ServeOptions,
    store: Arc<TieredStore>,
    /// Warm scope contexts, shared across requests: the first obligation
    /// of a scope saturates its background, later requests reuse it.
    contexts: Arc<ContextPool>,
    metrics: Metrics,
    stop: AtomicBool,
    started: Instant,
    events: Option<Mutex<EventLogWriter>>,
}

impl Shared {
    fn log(&self, cmd: &str, id: Option<i64>, millis: f64, degraded: bool, report: &str) {
        if self.options.quiet {
            return;
        }
        if self.options.json_log {
            let mut members = vec![
                ("at".to_string(), Json::Str("request".to_string())),
                ("cmd".to_string(), Json::Str(cmd.to_string())),
            ];
            if let Some(id) = id {
                members.push(("id".to_string(), Json::Int(id)));
            }
            members.push(("millis".to_string(), Json::Float(millis)));
            members.push(("degraded".to_string(), Json::Bool(degraded)));
            members.push(("report".to_string(), Json::Str(report.to_string())));
            eprintln!("{}", Json::Object(members).render());
        } else {
            let id = id.map(|i| format!(" id={i}")).unwrap_or_default();
            let flag = if degraded { " [degraded]" } else { "" };
            eprintln!("serve: {cmd}{id} {millis:.1}ms{flag} {report}");
        }
    }

    /// Resolves a unit reference into a batch unit, reading corpus
    /// programs and server-side files for named references.
    fn resolve(&self, unit: &UnitRef) -> Result<BatchUnit, String> {
        match unit {
            UnitRef::Inline { name, source } => Ok(BatchUnit {
                name: name.clone(),
                source: source.clone(),
            }),
            UnitRef::Named(spec) => {
                let source = if let Some(name) = spec.strip_prefix("corpus:") {
                    oolong_corpus::by_name(name)
                        .map(|p| p.source.to_string())
                        .ok_or_else(|| format!("no corpus program named `{name}`"))?
                } else {
                    std::fs::read_to_string(spec)
                        .map_err(|e| format!("cannot read `{spec}`: {e}"))?
                };
                Ok(BatchUnit {
                    name: spec.clone(),
                    source,
                })
            }
        }
    }

    /// An engine over the shared store and warm contexts, with the
    /// request's effective options.
    fn engine_for(&self, check: CheckOptions, diagnose: bool) -> Engine {
        Engine::with_store_and_contexts(
            EngineOptions {
                check,
                // Sessions are the unit of parallelism; one request keeps
                // to one core so the pool bound means what it says.
                workers: 1,
                cache_dir: None,
                diagnose,
            },
            self.store.clone() as Arc<dyn VerdictStore>,
            self.contexts.clone(),
        )
    }

    /// Runs one proving request to a finished [`BatchReport`], absorbing
    /// its events into the server log and its counters into the metrics.
    fn run_engine(&self, units: &[BatchUnit], check: CheckOptions, diagnose: bool) -> BatchReport {
        let engine = self.engine_for(check, diagnose);
        let report = engine.check_batch(units);
        self.metrics
            .cache_hits
            .fetch_add(report.cache_hits as u64, Ordering::Relaxed);
        self.metrics
            .prover_calls
            .fetch_add(report.prover_calls as u64, Ordering::Relaxed);
        self.metrics
            .obligations
            .fetch_add(report.obligations.len() as u64, Ordering::Relaxed);
        if let Some(writer) = &self.events {
            let mut writer = writer.lock().expect("event writer lock poisoned");
            // Durability over availability: each line is flushed, and a
            // full disk degrades logging, never request service.
            let _ = writer.write_all(&report.events);
        }
        report
    }

    /// Executes one proving command and renders its response line.
    fn serve_proving(&self, request: &Request, degraded: bool) -> String {
        let start = Instant::now();
        let base = if degraded {
            CheckOptions {
                budget: self.options.degraded_budget.clone(),
                ..self.options.check.clone()
            }
        } else {
            self.options.check.clone()
        };
        let rendered = match &request.command {
            Command::Check { unit, options } => {
                let resolved = match self.resolve(unit) {
                    Ok(u) => u,
                    Err(e) => return self.error(request.id, &e),
                };
                let report = self.run_engine(
                    std::slice::from_ref(&resolved),
                    options.apply(&base),
                    options.explain,
                );
                if let Some(error) = report.unit_errors.first() {
                    return self.error(request.id, &error.message);
                }
                check_response(
                    request.id,
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    &report,
                )
            }
            Command::Batch { units, options } => {
                let resolved: Result<Vec<_>, _> = units.iter().map(|u| self.resolve(u)).collect();
                let resolved = match resolved {
                    Ok(units) => units,
                    Err(e) => return self.error(request.id, &e),
                };
                let report = self.run_engine(&resolved, options.apply(&base), options.explain);
                ok_response(
                    request.id,
                    "batch",
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    report.to_json(),
                    Some(&report.events),
                )
            }
            Command::Explain {
                unit,
                proc,
                options,
            } => {
                let resolved = match self.resolve(unit) {
                    Ok(u) => u,
                    Err(e) => return self.error(request.id, &e),
                };
                let report =
                    self.run_engine(std::slice::from_ref(&resolved), options.apply(&base), true);
                if let Some(error) = report.unit_errors.first() {
                    return self.error(request.id, &error.message);
                }
                let filter = proc.as_deref();
                if !report
                    .obligations
                    .iter()
                    .any(|o| filter.is_none_or(|f| o.proc_name == f))
                {
                    return self.error(
                        request.id,
                        &match filter {
                            Some(f) => format!("no implementation of `{f}` in `{}`", unit.name()),
                            None => format!("no implementations in `{}`", unit.name()),
                        },
                    );
                }
                ok_response(
                    request.id,
                    "explain",
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    explain_result_json(unit.name(), &report, filter),
                    Some(&report.events),
                )
            }
            Command::Infer {
                unit,
                proc,
                max_rounds,
                options,
            } => {
                // Named references accept the inference schemes
                // (`stripped:NAME`, `unannotated:SEED`) on top of the
                // usual corpus/file resolution.
                let resolved = match unit {
                    UnitRef::Named(spec) => match oolong_infer::resolve_spec(spec) {
                        Some(Ok(u)) => u,
                        Some(Err(e)) => return self.error(request.id, &e),
                        None => match self.resolve(unit) {
                            Ok(u) => oolong_infer::InferUnit {
                                name: u.name,
                                source: u.source,
                                truth: None,
                            },
                            Err(e) => return self.error(request.id, &e),
                        },
                    },
                    UnitRef::Inline { name, source } => oolong_infer::InferUnit {
                        name: name.clone(),
                        source: source.clone(),
                        truth: None,
                    },
                };
                let mut opts = oolong_infer::InferOptions {
                    check: options.apply(&base),
                    proc: proc.clone(),
                    ..Default::default()
                };
                if let Some(n) = max_rounds {
                    opts.max_rounds = *n;
                }
                let engine = self.engine_for(opts.check.clone(), false);
                let outcome =
                    match oolong_infer::infer(&engine, &resolved.name, &resolved.source, &opts) {
                        Ok(o) => o,
                        Err(e) => return self.error(request.id, &e),
                    };
                let accuracy = match &resolved.truth {
                    Some(truth) => match oolong_infer::accuracy(&outcome, truth) {
                        Ok(a) => Some(a),
                        Err(e) => return self.error(request.id, &e),
                    },
                    None => None,
                };
                ok_response(
                    request.id,
                    "infer",
                    degraded,
                    start.elapsed().as_secs_f64() * 1_000.0,
                    oolong_infer::infer_json(&outcome, accuracy.as_ref(), false),
                    None,
                )
            }
            Command::Stats | Command::Shutdown => {
                unreachable!("control commands are served inline")
            }
        };
        let millis = start.elapsed().as_secs_f64() * 1_000.0;
        self.metrics.latencies.record(millis);
        if degraded {
            self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.metrics.answered.fetch_add(1, Ordering::Relaxed);
        self.log(request.command.name(), request.id, millis, degraded, "ok");
        rendered
    }

    fn error(&self, id: Option<i64>, message: &str) -> String {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        self.log("error", id, 0.0, false, message);
        error_response(id, message)
    }

    /// The `stats` response: load metrics of the running server.
    fn stats_json(&self) -> Json {
        let m = &self.metrics;
        let latencies = &m.latencies;
        let store = self.store.metrics();
        Json::Object(vec![
            (
                "uptime_millis".to_string(),
                Json::Float(self.started.elapsed().as_secs_f64() * 1_000.0),
            ),
            (
                "requests".to_string(),
                Json::Object(vec![
                    (
                        "received".to_string(),
                        Json::Int(m.received.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "answered".to_string(),
                        Json::Int(m.answered.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "errors".to_string(),
                        Json::Int(m.errors.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "degraded".to_string(),
                        Json::Int(m.degraded.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "by_cmd".to_string(),
                        Json::Object(
                            CMD_NAMES
                                .iter()
                                .zip(&m.by_cmd)
                                .map(|(name, n)| {
                                    (
                                        name.to_string(),
                                        Json::Int(n.load(Ordering::Relaxed) as i64),
                                    )
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "queue".to_string(),
                Json::Object(vec![
                    ("capacity".to_string(), Json::Int(self.options.queue as i64)),
                    (
                        "depth".to_string(),
                        Json::Int(m.queue_depth.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "peak".to_string(),
                        Json::Int(m.queue_peak.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            (
                "store".to_string(),
                Json::Object(vec![
                    (
                        "mem_entries".to_string(),
                        Json::Int(store.mem_entries as i64),
                    ),
                    (
                        "mem_capacity".to_string(),
                        Json::Int(store.mem_capacity as i64),
                    ),
                    ("mem_hits".to_string(), Json::Int(store.mem_hits as i64)),
                    ("mem_misses".to_string(), Json::Int(store.mem_misses as i64)),
                    ("evictions".to_string(), Json::Int(store.evictions as i64)),
                    ("disk_hits".to_string(), Json::Int(store.disk_hits as i64)),
                    (
                        "disk_misses".to_string(),
                        Json::Int(store.disk_misses as i64),
                    ),
                    ("inserts".to_string(), Json::Int(store.inserts as i64)),
                    (
                        "disk_entries".to_string(),
                        Json::Int(self.store.disk_len() as i64),
                    ),
                ]),
            ),
            (
                "engine".to_string(),
                Json::Object(vec![
                    (
                        "obligations".to_string(),
                        Json::Int(m.obligations.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "cache_hits".to_string(),
                        Json::Int(m.cache_hits.load(Ordering::Relaxed) as i64),
                    ),
                    (
                        "prover_calls".to_string(),
                        Json::Int(m.prover_calls.load(Ordering::Relaxed) as i64),
                    ),
                ]),
            ),
            ("contexts".to_string(), {
                let c = self.contexts.metrics();
                Json::Object(vec![
                    ("warm".to_string(), Json::Int(c.size as i64)),
                    ("hits".to_string(), Json::Int(c.hits as i64)),
                    ("misses".to_string(), Json::Int(c.misses as i64)),
                    ("evictions".to_string(), Json::Int(c.evictions as i64)),
                ])
            }),
            (
                "latency_millis".to_string(),
                Json::Object(vec![
                    ("count".to_string(), Json::Int(latencies.count() as i64)),
                    ("p50".to_string(), Json::Float(latencies.percentile(0.50))),
                    ("p95".to_string(), Json::Float(latencies.percentile(0.95))),
                    ("p99".to_string(), Json::Float(latencies.percentile(0.99))),
                    ("max".to_string(), Json::Float(latencies.max())),
                ]),
            ),
        ])
    }
}

/// One queued proving request: the parsed request plus the channel its
/// session blocks on for the rendered response.
struct Job {
    request: Request,
    reply: SyncSender<String>,
}

/// The resident verification service. See the [module docs](self) for
/// the threading and admission model.
pub struct Server {
    listener: UnixListener,
    shared: Arc<Shared>,
}

/// A server running on a background thread (tests, benches, and the
/// CLI's foreground wrapper).
pub struct ServerHandle {
    thread: std::thread::JoinHandle<std::io::Result<()>>,
    socket: PathBuf,
}

impl ServerHandle {
    /// The socket path the server listens on.
    pub fn socket(&self) -> &std::path::Path {
        &self.socket
    }

    /// Waits for the server to stop (after a `shutdown` request).
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's I/O error, if it died on one.
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().expect("server thread panicked")
    }
}

impl Server {
    /// Opens the shared store and binds the socket. A stale socket file
    /// at the path is removed first (Unix sockets do not unlink
    /// themselves).
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the cache directory, event log, or
    /// socket cannot be created.
    pub fn bind(options: ServeOptions) -> std::io::Result<Server> {
        let store = Arc::new(match &options.cache_dir {
            Some(dir) => TieredStore::at_dir(dir, options.mem_capacity)?,
            None => TieredStore::in_memory(options.mem_capacity),
        });
        let events = match &options.events {
            Some(path) => Some(Mutex::new(EventLogWriter::create(path)?)),
            None => None,
        };
        let _ = std::fs::remove_file(&options.socket);
        let listener = UnixListener::bind(&options.socket)?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                store,
                contexts: Arc::new(ContextPool::with_capacity(DEFAULT_CONTEXT_CAPACITY)),
                metrics: Metrics::default(),
                stop: AtomicBool::new(false),
                started: Instant::now(),
                events,
                options,
            }),
        })
    }

    /// The socket path the server listens on.
    pub fn socket(&self) -> &std::path::Path {
        &self.shared.options.socket
    }

    /// Serves until a `shutdown` request, then drains the queue, joins
    /// the workers, and removes the socket file.
    ///
    /// # Errors
    ///
    /// Returns the accept loop's I/O error, if any.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let workers = match shared.options.workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        };
        let (job_tx, job_rx) = sync_channel::<Job>(shared.options.queue.max(1));
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut pool = Vec::with_capacity(workers);
        for _ in 0..workers {
            let shared = shared.clone();
            let job_rx: Arc<Mutex<Receiver<Job>>> = job_rx.clone();
            pool.push(std::thread::spawn(move || loop {
                let job = job_rx.lock().expect("queue lock poisoned").recv();
                let Ok(job) = job else {
                    break; // every sender dropped: server is done
                };
                shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
                let rendered = shared.serve_proving(&job.request, false);
                let _ = job.reply.send(rendered); // session may have gone
            }));
        }

        if !shared.options.quiet {
            eprintln!(
                "serve: listening on {} ({} workers, queue {}, cache {})",
                shared.options.socket.display(),
                workers,
                shared.options.queue,
                shared
                    .options
                    .cache_dir
                    .as_ref()
                    .map(|d| d.display().to_string())
                    .unwrap_or_else(|| "memory".to_string()),
            );
        }

        for stream in listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            let shared = shared.clone();
            let job_tx = job_tx.clone();
            std::thread::spawn(move || session(&shared, stream, &job_tx));
        }
        drop(job_tx);
        for worker in pool {
            let _ = worker.join();
        }
        let _ = std::fs::remove_file(&shared.options.socket);
        if !shared.options.quiet {
            eprintln!(
                "serve: shut down after {} requests",
                shared.metrics.received.load(Ordering::Relaxed)
            );
        }
        Ok(())
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let socket = self.shared.options.socket.clone();
        ServerHandle {
            thread: std::thread::spawn(move || self.run()),
            socket,
        }
    }
}

/// One client session: read request lines, write response lines, in
/// order.
fn session(shared: &Shared, stream: UnixStream, job_tx: &SyncSender<Job>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = std::io::BufWriter::new(write_half);
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else {
            break; // client hung up mid-line
        };
        if line.trim().is_empty() {
            continue;
        }
        shared.metrics.received.fetch_add(1, Ordering::Relaxed);
        let response = match parse_request(&line) {
            Err(message) => shared.error(None, &message),
            Ok(request) => {
                shared.metrics.by_cmd[cmd_index(request.command.name())]
                    .fetch_add(1, Ordering::Relaxed);
                match &request.command {
                    Command::Stats => {
                        shared.metrics.answered.fetch_add(1, Ordering::Relaxed);
                        ok_response(request.id, "stats", false, 0.0, shared.stats_json(), None)
                    }
                    Command::Shutdown => {
                        shared.metrics.answered.fetch_add(1, Ordering::Relaxed);
                        let response = ok_response(
                            request.id,
                            "shutdown",
                            false,
                            0.0,
                            Json::Object(vec![("shutdown".to_string(), Json::Bool(true))]),
                            None,
                        );
                        let _ = writeln!(writer, "{response}");
                        let _ = writer.flush();
                        shared.stop.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so it observes the flag.
                        let _ = UnixStream::connect(&shared.options.socket);
                        return;
                    }
                    _ if shared.stop.load(Ordering::SeqCst) => {
                        shared.error(request.id, "server is shutting down")
                    }
                    _ => dispatch(shared, job_tx, request),
                }
            }
        };
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break; // client hung up; the event log already has the events
        }
    }
}

/// Admission control: enqueue for the pool, or degrade on a full queue.
fn dispatch(shared: &Shared, job_tx: &SyncSender<Job>, request: Request) -> String {
    let (reply_tx, reply_rx) = sync_channel::<String>(1);
    let depth = shared.metrics.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
    shared
        .metrics
        .queue_peak
        .fetch_max(depth, Ordering::Relaxed);
    match job_tx.try_send(Job {
        request,
        reply: reply_tx,
    }) {
        Ok(()) => reply_rx
            .recv()
            .unwrap_or_else(|_| error_response(None, "worker dropped the request")),
        Err(TrySendError::Full(job)) | Err(TrySendError::Disconnected(job)) => {
            // Queue full: answer now, degraded, on the session thread.
            shared.metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
            shared.serve_proving(&job.request, true)
        }
    }
}
