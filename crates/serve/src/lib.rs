//! **The resident verification service** for oolong.
//!
//! Everything below the engine is already incremental: verdicts are
//! content-addressed by VC fingerprint ([`oolong_engine::fingerprint`])
//! and cached across runs. What a batch CLI cannot amortize is *process
//! residency* — every invocation re-opens the cache, re-warms nothing,
//! and answers exactly one request. This crate keeps one warm process
//! serving many: a daemon on a Unix socket speaking newline-delimited
//! JSON, a worker pool in front of a shared two-tier verdict store
//! (bounded in-memory LRU over the persistent on-disk cache), and
//! admission control that degrades overloaded requests to cheap
//! `unknown(budget)` answers — with the usual divergence attribution —
//! instead of queueing without bound.
//!
//! * [`protocol`] — the wire format: requests (`check`, `batch`,
//!   `explain`, `stats`, `shutdown`) and responses whose `result`
//!   members reuse the CLI's `--json` shapes byte for byte;
//! * [`server`] — the daemon: accept loop, session threads, bounded
//!   worker queue, degraded-mode fallback, and load metrics
//!   (throughput, queue depth, latency percentiles from a fixed-size
//!   log-linear histogram);
//! * [`client`] — a minimal blocking client for scripted sessions,
//!   tests, and the stress bench.
//!
//! # Example
//!
//! ```
//! use oolong_serve::{Client, ServeOptions, Server};
//!
//! let dir = std::env::temp_dir().join(format!("serve-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir)?;
//! let server = Server::bind(ServeOptions {
//!     socket: dir.join("oolong.sock"),
//!     quiet: true,
//!     ..ServeOptions::default()
//! })?;
//! let handle = server.spawn();
//!
//! let mut client = Client::connect(handle.socket())?;
//! let cold = client.request(r#"{"id":1,"cmd":"check","unit":"corpus:example1"}"#)?;
//! assert!(oolong_serve::response_ok(&cold));
//!
//! client.request(r#"{"id":2,"cmd":"shutdown"}"#)?;
//! handle.join()?;
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod client;
mod histogram;
pub mod protocol;
pub mod server;

pub use client::{response_ok, Client};
pub use protocol::{
    check_response, error_response, explain_result_json, ok_response, parse_request,
    write_check_impl, write_check_summary, Command, RenderedStats, Request, RequestOptions,
    UnitRef,
};
pub use server::{ServeOptions, Server, ServerHandle};
