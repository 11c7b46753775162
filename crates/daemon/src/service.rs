//! The daemon's request brain: multi-tenant [`Session`]s, shard-affine
//! thread teams, and the dispatch of parsed protocol requests to the
//! embeddable API.
//!
//! Tenancy: every request names a `tenant`; each tenant gets its own
//! [`Session`] (created on first use), so artifact caches — and their
//! hit/miss/eviction counters — are isolated per tenant while the
//! process-wide thread teams are shared through the shard map.
//!
//! Sharding: a request is hashed (tenant, program name) onto one of
//! `shards` persistent `ss_runtime` thread teams, keyed by team *group*
//! (see `ss_runtime::with_shared_team_in`).  Group 0 is left alone — it
//! belongs to in-process/CLI callers — so daemon shards use groups
//! `1..=shards`.  Same program, same tenant → same team: warm threads,
//! no team churn under concurrency.  Each group holds one team, respawned
//! when a request asks its shard for another thread count, so the daemon
//! holds at most `shards + 1` teams whatever thread counts requests name.

use crate::protocol::{Op, Request, WireError};
use crate::stats::StatsRegistry;
use ss_interp::{analysis_json, json, registry_json, Session};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The configuration the service half of the daemon needs (the transport
/// half's knobs live in `server::DaemonConfig`).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of persistent thread-team shards (≥ 1).
    pub shards: usize,
    /// Per-tenant artifact-cache entry bound (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Per-tenant artifact-cache byte bound (`None` = unbounded).
    pub cache_capacity_bytes: Option<usize>,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 2,
            cache_capacity: None,
            cache_capacity_bytes: None,
        }
    }
}

/// Multi-tenant request dispatcher over [`Session`]s.
pub struct Service {
    config: ServiceConfig,
    tenants: Mutex<BTreeMap<String, Arc<Session>>>,
    catalogue: BTreeMap<&'static str, &'static str>,
    /// Transport + endpoint metrics (the server records into this too).
    pub stats: StatsRegistry,
}

impl Service {
    /// A service with the given shard/cache configuration and the full
    /// study-kernel catalogue.
    pub fn new(config: ServiceConfig) -> Service {
        let catalogue = ss_npb::study_kernels()
            .into_iter()
            .map(|k| (k.name, k.source))
            .collect();
        Service {
            config: ServiceConfig {
                shards: config.shards.max(1),
                ..config
            },
            tenants: Mutex::new(BTreeMap::new()),
            catalogue,
            stats: StatsRegistry::new(),
        }
    }

    /// The tenant's session, created on first use (with the configured
    /// cache bounds).
    pub fn session(&self, tenant: &str) -> Arc<Session> {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(tenants.entry(tenant.to_string()).or_insert_with(|| {
            let mut session = Session::new();
            if let Some(cap) = self.config.cache_capacity {
                session = session.with_cache_capacity(cap);
            }
            if let Some(bytes) = self.config.cache_capacity_bytes {
                session = session.with_cache_capacity_bytes(bytes);
            }
            Arc::new(session)
        }))
    }

    /// The shard — and thereby the persistent thread-team group — a
    /// (tenant, program) pair is pinned to.  FNV-1a over both strings,
    /// reduced mod `shards`; stable across requests so repeated work
    /// lands on warm threads.
    pub fn shard(&self, tenant: &str, program: &str) -> usize {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for byte in tenant.bytes().chain([0u8]).chain(program.bytes()) {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        (hash % self.config.shards as u64) as usize
    }

    fn resolve_program(&self, req: &Request) -> Result<(String, String), WireError> {
        match (&req.kernel, &req.source) {
            (Some(kernel), None) => match self.catalogue.get(kernel.as_str()) {
                Some(source) => Ok((kernel.clone(), source.to_string())),
                None => Err(WireError::from(&ss_interp::SsError::UnknownKernel(
                    kernel.clone(),
                ))),
            },
            (None, Some(source)) => Ok((
                req.name.clone().unwrap_or_else(|| "inline".to_string()),
                source.clone(),
            )),
            // parse_request already rejected the other combinations.
            _ => Err(WireError::malformed("no program in request")),
        }
    }

    /// Serves one parsed request, returning the `result` JSON for the
    /// response envelope.  `shutdown` returns an acknowledgement here —
    /// actually draining the process is the server's job.
    pub fn dispatch(&self, req: &Request) -> Result<String, WireError> {
        match req.op {
            Op::Engines => Ok(registry_json(self.session(&req.tenant).registry())),
            Op::Stats => Ok(self.stats_json()),
            Op::Shutdown => Ok(json::object([("draining", "true".to_string())])),
            Op::Analyze => {
                let (name, source) = self.resolve_program(req)?;
                let session = self.session(&req.tenant);
                let artifacts = session
                    .artifacts(&name, &source)
                    .map_err(|e| WireError::from(&e))?;
                Ok(analysis_json(&artifacts))
            }
            Op::Run => {
                // The request schema already applied every knob; what is
                // left is the service's own: the program and the shard's
                // thread team.
                let (name, source) = self.resolve_program(req)?;
                let session = self.session(&req.tenant);
                let mut run = req.run.clone();
                run.team_group = self.shard(&req.tenant, &name) + 1;
                run.name = name;
                run.source = source;
                let outcome = session.run(&run).map_err(|e| WireError::from(&e))?;
                Ok(if req.include_heap {
                    outcome.to_json_with_heap()
                } else {
                    outcome.to_json()
                })
            }
        }
    }

    /// The `stats` endpoint payload: shard count, per-tenant cache
    /// statistics, and the transport/endpoint metrics.
    pub fn stats_json(&self) -> String {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let tenants_json = json::object(tenants.iter().map(|(name, session)| {
            let cache = session.cache_stats();
            (
                name.as_str(),
                json::object([
                    ("hits", cache.hits.to_string()),
                    ("misses", cache.misses.to_string()),
                    ("evictions", cache.evictions.to_string()),
                    ("entries", cache.entries.to_string()),
                    (
                        "capacity",
                        cache
                            .capacity
                            .map(|c| c.to_string())
                            .unwrap_or_else(|| "null".to_string()),
                    ),
                    ("bytes", cache.bytes.to_string()),
                    (
                        "capacity_bytes",
                        cache
                            .capacity_bytes
                            .map(|c| c.to_string())
                            .unwrap_or_else(|| "null".to_string()),
                    ),
                    ("policy", json::string(cache.policy)),
                ]),
            )
        }));
        json::object([
            ("shards", self.config.shards.to_string()),
            ("tenants", tenants_json),
            ("metrics", self.stats.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonin;
    use crate::protocol::parse_request;

    fn service() -> Service {
        Service::new(ServiceConfig::default())
    }

    #[test]
    fn sharding_is_stable_and_in_range() {
        let s = service();
        let a = s.shard("default", "fig2_ua_transfer");
        assert_eq!(a, s.shard("default", "fig2_ua_transfer"));
        assert!(a < 2);
        // The separator byte keeps ("ab", "c") and ("a", "bc") distinct
        // inputs (they may still collide mod shards, but hash differently).
        let many: std::collections::BTreeSet<usize> = (0..32)
            .map(|i| s.shard("default", &format!("k{i}")))
            .collect();
        assert!(!many.is_empty());
    }

    #[test]
    fn tenants_get_isolated_sessions_with_configured_bounds() {
        let s = Service::new(ServiceConfig {
            shards: 2,
            cache_capacity: Some(8),
            cache_capacity_bytes: Some(1 << 20),
        });
        let a = s.session("a");
        let b = s.session("b");
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a, &s.session("a")));
        assert_eq!(a.cache_stats().capacity, Some(8));
        assert_eq!(a.cache_stats().capacity_bytes, Some(1 << 20));

        // Compiling in tenant a leaves tenant b's counters untouched.
        let req =
            parse_request(r#"{"op":"analyze","tenant":"a","kernel":"fig2_ua_transfer"}"#).unwrap();
        s.dispatch(&req).unwrap();
        assert_eq!(s.session("a").cache_stats().misses, 1);
        assert_eq!(s.session("b").cache_stats().misses, 0);
    }

    #[test]
    fn analyze_run_engines_stats_dispatch() {
        let s = service();
        let analyze = parse_request(r#"{"op":"analyze","kernel":"fig2_ua_transfer"}"#).unwrap();
        let report = jsonin::parse(&s.dispatch(&analyze).unwrap()).unwrap();
        assert!(report.get("verdicts").and_then(|v| v.as_arr()).is_some());

        let run = parse_request(
            r#"{"op":"run","kernel":"fig2_ua_transfer","threads":2,"scale":48,
                "validate":true,"include_heap":true}"#,
        )
        .unwrap();
        let outcome = jsonin::parse(&s.dispatch(&run).unwrap()).unwrap();
        assert_eq!(
            outcome.get("program").and_then(|p| p.as_str()),
            Some("fig2_ua_transfer")
        );
        assert_eq!(
            outcome
                .get("validation")
                .and_then(|v| v.get("heaps_match"))
                .and_then(|h| h.as_bool()),
            Some(true)
        );
        assert!(outcome.get("heap").and_then(|h| h.get("arrays")).is_some());

        // Cache hit on the second run of the same program.
        let again = jsonin::parse(&s.dispatch(&run).unwrap()).unwrap();
        assert_eq!(again.get("cache_hit").and_then(|c| c.as_bool()), Some(true));

        let engines = parse_request(r#"{"op":"engines"}"#).unwrap();
        let listed = jsonin::parse(&s.dispatch(&engines).unwrap()).unwrap();
        assert!(listed.get("engines").and_then(|e| e.as_arr()).is_some());

        let stats = parse_request(r#"{"op":"stats"}"#).unwrap();
        let snapshot = jsonin::parse(&s.dispatch(&stats).unwrap()).unwrap();
        let default_tenant = snapshot
            .get("tenants")
            .and_then(|t| t.get("default"))
            .unwrap();
        // analyze compiled it once; both runs then hit the cache.
        assert_eq!(
            default_tenant.get("misses").and_then(|m| m.as_i64()),
            Some(1)
        );
        assert_eq!(default_tenant.get("hits").and_then(|m| m.as_i64()), Some(2));
        assert!(
            default_tenant
                .get("bytes")
                .and_then(|b| b.as_i64())
                .unwrap()
                > 0
        );
    }

    #[test]
    fn unknown_names_map_to_wire_errors() {
        let s = service();
        let req = parse_request(r#"{"op":"run","kernel":"nope"}"#).unwrap();
        let err = s.dispatch(&req).unwrap_err();
        assert_eq!((err.class, err.exit_code), ("unknown_kernel", 5));

        let req = parse_request(r#"{"op":"run","source":"x = 1;","engine":"jit"}"#).unwrap();
        let err = s.dispatch(&req).unwrap_err();
        assert_eq!((err.class, err.exit_code), ("unknown_engine", 5));

        let req = parse_request(r#"{"op":"analyze","source":"x = "}"#).unwrap();
        let err = s.dispatch(&req).unwrap_err();
        assert_eq!((err.class, err.exit_code), ("parse", 4));
    }
}
