//! # ss-daemon — `sspard`, the long-running analysis/execution service
//!
//! Everything below `sspar` is a library (`ss_interp::Session` is
//! `Send + Sync`, artifacts are cached content-addressed, engines are
//! trait objects); this crate puts a **server** on top of it: a daemon
//! that keeps sessions — and their compiled-artifact caches and warm
//! thread teams — alive across many clients, so the per-request cost of
//! an `analyze` or `run` collapses to the work itself.
//!
//! The pieces:
//!
//! * [`protocol`] — the newline-delimited JSON wire format: `analyze`,
//!   `run`, `engines`, `stats`, `shutdown` requests, whose `run` knobs
//!   are the rows of the one request-schema table
//!   (`ss_interp::request`) the CLI's flags come from too; `{"ok":…}`
//!   response envelopes whose payloads are the *same* stable JSON schemas
//!   the CLI prints (one serializer path, `ss_interp::json`);
//! * [`jsonin`] — the matching minimal JSON parser (hand-rolled: the
//!   workspace builds offline and std-only);
//! * [`service`] — multi-tenant dispatch: one [`Session`] per tenant,
//!   requests hashed onto persistent thread-team **shards**
//!   (`ss_runtime::with_shared_team_in` groups, one team each, respawned
//!   when a request names another thread count);
//! * [`server`] — the std-thread TCP server: nonblocking acceptor,
//!   per-connection readers with byte-capped framing and idle timeouts,
//!   a bounded worker queue whose overflow answers a structured
//!   `overloaded` error, workers that answer `internal` instead of dying
//!   when a request's handler panics, and graceful drain on `shutdown`;
//! * [`stats`] — per-endpoint request counts and latency percentiles,
//!   served by the `stats` op.
//!
//! Binary: `sspard` (the server).  Load is measured by `ssbench`'s
//! `daemon_mix` workload, through the [`Client`] this crate ships.
//!
//! ```
//! use ss_daemon::server::{self, DaemonConfig};
//!
//! let mut daemon = server::start(DaemonConfig::default()).unwrap();
//! let addr = daemon.local_addr().to_string();
//! let reply = server::request(
//!     &addr,
//!     r#"{"op":"run","kernel":"fig2_ua_transfer","threads":2,"scale":32}"#,
//! )
//! .unwrap();
//! assert!(reply.starts_with(r#"{"ok":true"#));
//! server::request(&addr, r#"{"op":"shutdown"}"#).unwrap();
//! daemon.join();
//! ```
//!
//! [`Session`]: ss_interp::Session

#![warn(missing_docs)]

pub mod jsonin;
pub mod protocol;
pub mod server;
pub mod service;
pub mod stats;

pub use protocol::{Op, Request, WireError};
pub use server::{request, start, Client, DaemonConfig, DaemonHandle};
pub use service::{Service, ServiceConfig};
pub use stats::StatsRegistry;
