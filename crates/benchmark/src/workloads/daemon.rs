//! `daemon_mix`: an in-process `ss_daemon::start` (workers `T`, one shard,
//! a 1 MiB byte-bounded cache so eviction happens) driven in a closed loop
//! — callers wait for replies — through the **shipped** `ss_daemon::Client`.
//! Every connection replays its seeded block of [`gen::BLOCK`] requests:
//! 40 % `analyze` of a cached kernel, 15 % `analyze` of a unique inline
//! source, 40 % `run` at scale 128 with the final heap, 5 % `stats` /
//! `engines`.  Protocol, JSON in and out, queue, socket and session cache
//! do the work; the exec layers do little.
//!
//! A round has two phases: connection 0 replays its block alone (`serial`),
//! then all `T` connections replay theirs at once (`parallel`).  Each
//! request is an op; a phase's wall time per request is the leg sample (row
//! `mix`), so `parallel_speedup` is the request throughput `T` connections
//! buy.  Per-kind latencies are reported as `latency:<phase>` rows.
//!
//! Oracle: `{"ok":true` envelope; a `run` reply must carry, byte for byte,
//! the heap the `ast` reference engine computed in set-up; `overloaded` and
//! every other error count as failed.

use super::{time_ms, Layers, OpLog, Size, Workload, PARALLEL, SERIAL};
use crate::gen::{self, Kind, RequestSpec};
use crate::stats;
use crate::trace::Tracer;
use ss_daemon::jsonin::{self, Value};
use ss_daemon::{Client, DaemonConfig, DaemonHandle, Service, ServiceConfig};
use ss_interp::{
    heap_json, synthesize_inputs, EngineRegistry, ExecOptions, InputSpec, RunRequest, Session,
};
use ss_parallelizer::Artifacts;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Instant;

const MIX: &str = "mix";
const CACHE_BYTES: usize = 1 << 20;

/// One answered request, checked after its phase is over.
struct Reply {
    kind: Kind,
    target: String,
    ms: f64,
    response: std::io::Result<String>,
}

/// The `daemon_mix` workload.
pub struct DaemonMix {
    seed: u64,
    /// Input scale of `run` requests.
    scale: i64,
    threads: usize,
    /// Declared before the daemon so the connections close first on drop.
    clients: Vec<Client>,
    /// Drains and joins the daemon's threads when the workload is dropped.
    _daemon: DaemonHandle,
    blocks: Vec<Vec<RequestSpec>>,
    /// `heap_json` of the reference run per kernel.
    reference_heaps: BTreeMap<String, String>,
    proven_loops: u64,
    /// Makes every miss's source unique for the life of this daemon.
    unique: u64,
    response_bytes: Vec<f64>,
}

fn reference_heap(kernel: &str, seed: u64, scale: i64) -> Result<String, String> {
    let program = gen::named_program(kernel).ok_or_else(|| format!("no kernel '{kernel}'"))?;
    let art =
        Artifacts::compile_source(kernel, &program.source).map_err(|e| format!("{kernel}: {e}"))?;
    let spec = InputSpec { scale, seed };
    let heap = synthesize_inputs(&art.program, &spec).map_err(|e| format!("{kernel}: {e}"))?;
    let reference = EngineRegistry::builtin()
        .reference()
        .ok_or("no reference engine")?;
    let out = reference
        .run_serial(&art, heap, &ExecOptions::default())
        .map_err(|e| format!("{kernel}: reference run: {e}"))?;
    Ok(heap_json(&out.heap))
}

fn daemon_config(threads: usize) -> DaemonConfig {
    DaemonConfig {
        workers: threads,
        shards: 1,
        cache_capacity_bytes: Some(CACHE_BYTES),
        ..DaemonConfig::default()
    }
}

impl DaemonMix {
    /// Builds the schedule and the reference heaps from `seed`, starts the
    /// daemon, connects `T` clients, and replays every block once untimed so
    /// the session cache, lowerings and the shard's team are warm.
    pub fn set_up(seed: u64, size: Size) -> Result<DaemonMix, String> {
        let scale = match size {
            Size::Full => 128,
            Size::Smoke => 32,
        };
        let threads = crate::team_threads();
        let input_seed = seed % (1 << 31);
        let blocks: Vec<Vec<RequestSpec>> =
            (0..threads).map(|c| gen::request_block(seed, c)).collect();
        let mut reference_heaps = BTreeMap::new();
        for spec in blocks.iter().flatten() {
            if spec.kind == Kind::Run && !reference_heaps.contains_key(&spec.target) {
                reference_heaps.insert(
                    spec.target.clone(),
                    reference_heap(&spec.target, input_seed, scale)?,
                );
            }
        }
        // Over the whole catalogue the daemon serves, not the seeded draw
        // from it, so the count repeats exactly.
        let mut proven_loops = 0;
        for kernel in ss_npb::study_kernels() {
            let art = Artifacts::compile_source(kernel.name, kernel.source)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            proven_loops += super::compile::proven_in(&art.report);
        }
        let daemon =
            ss_daemon::start(daemon_config(threads)).map_err(|e| format!("daemon start: {e}"))?;
        let addr = daemon.local_addr().to_string();
        let clients = (0..threads)
            .map(|_| Client::connect(&addr).map_err(|e| format!("connect {addr}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut workload = DaemonMix {
            seed: input_seed,
            scale,
            threads,
            clients,
            _daemon: daemon,
            blocks,
            reference_heaps,
            proven_loops,
            unique: 0,
            response_bytes: Vec::new(),
        };
        let mut warm_up = OpLog::default();
        workload.phase(threads, PARALLEL, &mut warm_up);
        match warm_up.failures.first() {
            Some(why) => Err(format!("warm-up failed its oracle: {why}")),
            None => Ok(workload),
        }
    }

    fn lines(&mut self, conn: usize) -> Vec<(Kind, String, String)> {
        let block = &self.blocks[conn];
        let base = self.unique;
        self.unique += block.len() as u64;
        block
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                (
                    spec.kind,
                    spec.target.clone(),
                    gen::request_line(spec, base + i as u64, self.seed, self.threads, self.scale),
                )
            })
            .collect()
    }

    fn check(&self, reply: &Reply) -> Result<(), String> {
        let what = || format!("{} {}", reply.kind.label(), reply.target);
        let response = reply
            .response
            .as_ref()
            .map_err(|e| format!("{}: {e}", what()))?;
        if !response.starts_with("{\"ok\":true") {
            let head: String = response.chars().take(160).collect();
            return Err(format!("{}: {head}", what()));
        }
        if reply.kind == Kind::Run && !response.contains(&self.reference_heaps[&reply.target]) {
            return Err(format!(
                "{}: reply heap differs from the ast reference",
                what()
            ));
        }
        Ok(())
    }

    /// Connections `0..conns` replay their blocks at once; the phase's wall
    /// time per request is one `leg` sample.
    fn phase(&mut self, conns: usize, leg: &str, log: &mut OpLog) {
        let scripts: Vec<_> = (0..conns).map(|c| self.lines(c)).collect();
        let play = |client: &mut Client, script: Vec<(Kind, String, String)>| -> Vec<Reply> {
            script
                .into_iter()
                .map(|(kind, target, line)| {
                    let (ms, response) = time_ms(|| client.call(&line));
                    Reply {
                        kind,
                        target,
                        ms,
                        response,
                    }
                })
                .collect()
        };
        let start = Instant::now();
        let replies: Vec<Reply> = std::thread::scope(|scope| {
            let mut pairs = self.clients.iter_mut().zip(scripts);
            let (mine, my_script) = pairs.next().expect("at least one connection");
            let others: Vec<_> = pairs
                .map(|(client, script)| scope.spawn(move || play(client, script)))
                .collect();
            let mut all = play(mine, my_script);
            for handle in others {
                all.extend(handle.join().expect("connection thread panicked"));
            }
            all
        });
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        log.section(MIX, leg, wall_ms, replies.len());
        for reply in &replies {
            let class = format!("{} {}", reply.kind.label(), reply.target);
            log.op(&class, leg, reply.ms, self.check(reply));
            if let Ok(r) = &reply.response {
                self.response_bytes.push(r.len() as f64);
            }
        }
    }

    fn stats(&mut self) -> Option<Value> {
        let reply = self.clients[0].call("{\"op\":\"stats\"}").ok()?;
        jsonin::parse(&reply).ok()?.get("result").cloned()
    }
}

/// The benchmark's own client: `TCP_NODELAY`, one write per request.  What
/// the wire costs without the shipped client's two-write stall.
struct WireClient {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl WireClient {
    fn connect(addr: &str) -> std::io::Result<WireClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireClient {
            stream,
            pending: Vec::new(),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<Vec<u8>> {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.stream.write_all(&request)?;
        let mut chunk = [0u8; 65536];
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                return Ok(self.pending.drain(..=nl).collect());
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }
}

impl Workload for DaemonMix {
    fn round(&mut self, log: &mut OpLog) {
        self.phase(1, SERIAL, log);
        self.phase(self.threads, PARALLEL, log);
    }

    fn traced_round(&mut self, log: &mut OpLog, tracer: &mut Tracer) {
        // The daemon's threads cannot be spanned from here: the traced
        // round is the plain round inside one span per phase, and `layers`
        // measures the layers by calling them directly.
        tracer.begin_op(0);
        tracer.span("daemon.phase.serial", || self.phase(1, SERIAL, log));
        tracer.begin_op(1);
        let threads = self.threads;
        tracer.span("daemon.phase.parallel", || {
            self.phase(threads, PARALLEL, log)
        });
    }

    fn proven_loops(&self) -> u64 {
        self.proven_loops
    }

    fn layers(&mut self, _tracer: &Tracer, out: &mut Layers) {
        let script = self.lines(0);
        let of_kind = |kind: Kind| script.iter().filter(move |(k, _, _)| *k == kind);
        let run_lines: Vec<&String> = of_kind(Kind::Run).map(|(_, _, l)| l).collect();

        // The same `run` requests through the shipped client and through a
        // single-write TCP_NODELAY socket, against a fresh daemon so that
        // its own clock (`stats`) covers exactly these unloaded requests.
        let mut shipped = Vec::new();
        let mut wire = Vec::new();
        let mut server_p50 = None;
        if let Ok(probe) = ss_daemon::start(daemon_config(self.threads)) {
            let addr = probe.local_addr().to_string();
            if let (Ok(mut client), Ok(mut direct)) =
                (Client::connect(&addr), WireClient::connect(&addr))
            {
                // Compile through `analyze`, so the `run` endpoint's clock
                // only ever sees the warm requests the workload's runs are.
                for (_, kernel, _) in of_kind(Kind::Run) {
                    let _ = direct.call(&format!("{{\"op\":\"analyze\",\"kernel\":\"{kernel}\"}}"));
                }
                for _ in 0..3 {
                    for line in &run_lines {
                        wire.push(time_ms(|| direct.call(line)).0);
                        shipped.push(time_ms(|| client.call(line)).0);
                    }
                }
                server_p50 = client
                    .call("{\"op\":\"stats\"}")
                    .ok()
                    .and_then(|reply| jsonin::parse(&reply).ok())
                    .and_then(|v| {
                        v.get("result")?
                            .get("metrics")?
                            .get("endpoints")?
                            .get("run")?
                            .get("p50_ms")?
                            .as_f64()
                    });
            }
        }
        let stats_reply = self.stats();
        if let (Some(shipped_p50), Some(wire_p50)) = (stats::median(&shipped), stats::median(&wire))
        {
            out.set("daemon.wire_ms_p50", wire_p50, wire.len());
            out.set(
                "daemon.client_stall_ms",
                shipped_p50 - wire_p50,
                shipped.len(),
            );
            if let Some(server_p50) = server_p50 {
                out.set("daemon.server_reported_ms_p50", server_p50, wire.len());
                out.set("daemon.queue_socket_ms", wire_p50 - server_p50, wire.len());
            }
        }
        if let Some(stats_reply) = &stats_reply {
            let count = |path: [&str; 3]| -> Option<f64> {
                stats_reply
                    .get(path[0])?
                    .get(path[1])?
                    .get(path[2])?
                    .as_f64()
            };
            let cache = |field: &str| count(["tenants", "default", field]);
            if let (Some(hits), Some(misses)) = (cache("hits"), cache("misses")) {
                out.set(
                    "interp.cache_hit_ratio",
                    hits / (hits + misses).max(1.0),
                    (hits + misses) as usize,
                );
                out.set(
                    "interp.cache_evictions",
                    cache("evictions").unwrap_or(0.0),
                    1,
                );
                out.set("interp.cache_bytes", cache("bytes").unwrap_or(0.0), 1);
            }
            out.set(
                "daemon.overloaded",
                count(["metrics", "rejected", "overloaded"]).unwrap_or(0.0),
                1,
            );
        }
        if let Some(p50) = stats::median(&self.response_bytes) {
            out.set("daemon.response_bytes_p50", p50, self.response_bytes.len());
        }

        // The layers behind the socket, called directly on a service with
        // the daemon's configuration.
        let parse_us: Vec<f64> = script
            .iter()
            .flat_map(|(_, _, line)| {
                (0..5).map(move |_| time_ms(|| ss_daemon::protocol::parse_request(line)).0 * 1e3)
            })
            .collect();
        out.set(
            "daemon.parse_request_us",
            stats::median(&parse_us).unwrap_or(0.0),
            parse_us.len(),
        );
        let service = Service::new(ServiceConfig {
            shards: 1,
            cache_capacity: None,
            cache_capacity_bytes: Some(CACHE_BYTES),
        });
        for (metric, kind, repeats) in [
            ("daemon.dispatch_analyze_miss_ms", Kind::AnalyzeMiss, 1),
            ("daemon.dispatch_analyze_hit_ms", Kind::AnalyzeHit, 5),
            ("daemon.dispatch_run_ms", Kind::Run, 3),
        ] {
            let mut samples = Vec::new();
            for (_, _, line) in of_kind(kind) {
                let Ok(request) = ss_daemon::protocol::parse_request(line) else {
                    continue;
                };
                if kind == Kind::AnalyzeHit {
                    let _ = service.dispatch(&request); // the first one compiles
                }
                for _ in 0..repeats {
                    samples.push(time_ms(|| service.dispatch(&request)).0);
                }
            }
            if let Some(m) = stats::median(&samples) {
                out.set(metric, m, samples.len());
            }
        }

        // One layer further down: the session's run, its input synthesis
        // and its JSON rendering.
        let session = Session::new();
        let (mut run_ms, mut json_ms, mut inputs_ms) = (Vec::new(), Vec::new(), Vec::new());
        for (_, kernel, _) in of_kind(Kind::Run) {
            let Some(program) = gen::named_program(kernel) else {
                continue;
            };
            let request = RunRequest::new(kernel, &program.source)
                .threads(self.threads)
                .scale(self.scale)
                .seed(self.seed);
            let _ = session.run(&request); // compile once: the daemon's runs are cache hits
            let (ms, outcome) = time_ms(|| session.run(&request));
            let Ok(outcome) = outcome else { continue };
            run_ms.push(ms);
            json_ms.push(time_ms(|| outcome.to_json_with_heap()).0);
            if let Ok(art) = session.artifacts(kernel, &program.source) {
                let spec = InputSpec {
                    scale: self.scale,
                    seed: self.seed,
                };
                inputs_ms.push(time_ms(|| synthesize_inputs(&art.program, &spec)).0);
            }
        }
        for (metric, samples) in [
            ("interp.session_run_ms", &run_ms),
            ("interp.to_json_ms", &json_ms),
            ("interp.inputs_ms", &inputs_ms),
        ] {
            if let Some(m) = stats::median(samples) {
                out.set(metric, m, samples.len());
            }
        }
    }
}
