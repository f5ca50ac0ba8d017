//! The `service` workload: an in-process `stoneage_server::Server` with
//! two cores, driven by a closed loop of two client threads. Each client
//! submits a churned, faulted, checkpointed `selfstab_mis` job, follows
//! its event stream to the terminal event and reads its status document.
//! Job bodies cycle through a pool that derives from the workload seed;
//! every pool entry is replayed once as a direct `Simulation`, outside
//! the timed phase, for the gate.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use stoneage_core::{MultiFsm, Protocol};
use stoneage_graph::{generators, Graph, NodeId, TopologyEvent};
use stoneage_protocols::SelfStabMis;
use stoneage_server::client::{self, EventStream};
use stoneage_server::{outcome_fingerprint, parse_spec, Server, ServerConfig};
use stoneage_sim::{
    write_snapshot_file, ChurnPlan, ExecError, FaultPlan, Observer, Simulation, Snapshot,
};
use stoneage_wire::Value;

use crate::layers::{clock_overhead_ns, engine_probe, CountingMulti, RoundObserver};
use crate::{derive, median, quantile, time_median, Config, RunResult, Scale, Trace};

const POOL_GRAPH: u64 = 10;
const POOL_RUN: u64 = 11;
const POOL_CHURN: u64 = 12;
const POOL_FAULT: u64 = 13;

/// Edge probability of the job graphs (average degree ≈ 8 at n = 1000).
const P_EDGE: f64 = 0.008;
/// Checkpoint cadence in rounds: one frame every 4 rounds. The server
/// keeps frames in memory (it has no jobs directory), so the timed path
/// takes and publishes every frame but does not wait on the disk; the
/// durable write is timed directly in the traced run.
const CHECKPOINT_EVERY: u64 = 4;
/// Duplicate-fault rate (one extra copy per firing).
const DUPLICATE_RATE: f64 = 0.02;
/// Churn schedule: crash, insert an extra edge, restart, delete it.
const CRASH_AT: u64 = 4;
const INSERT_AT: u64 = 6;
const RESTART_AT: u64 = 10;
const DELETE_AT: u64 = 14;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Workload sizes.
struct Sizes {
    nodes: usize,
    pool: usize,
    budget: u64,
    /// The untimed run keeps going until it has this many jobs.
    min_jobs: usize,
}

fn sizes(scale: Scale) -> Sizes {
    match scale {
        Scale::Full => Sizes {
            nodes: 1000,
            pool: 400,
            budget: 300,
            min_jobs: 1000,
        },
        Scale::Tiny => Sizes {
            nodes: 120,
            pool: 4,
            budget: 300,
            min_jobs: 8,
        },
    }
}

/// What the direct replica of a pool entry produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expected {
    /// An output configuration with this fingerprint; `mis` tells
    /// whether it is an MIS of the topology the run ended on.
    Done { fingerprint: u64, mis: bool },
    /// No output within the round budget.
    RoundLimit,
}

/// One job body plus everything needed to replay it directly.
struct PoolEntry {
    body: String,
    graph: Graph,
    graph_seed: u64,
    seed: u64,
    churn: ChurnPlan,
    /// The edge the churn plan inserts and later deletes.
    extra: (NodeId, NodeId),
    faults: FaultPlan,
    expected: Expected,
}

/// Below 2^48, so every seed is a plain JSON integer.
fn json_seed(x: u64) -> u64 {
    x & ((1 << 48) - 1)
}

/// Builds the pool's graphs, job bodies and plans (no replicas yet).
fn build_pool(cfg: &Config, sz: &Sizes) -> Vec<PoolEntry> {
    (0..sz.pool as u64)
        .map(|i| {
            let graph_seed = json_seed(derive(cfg.seed, POOL_GRAPH, i));
            let seed = json_seed(derive(cfg.seed, POOL_RUN, i));
            let fault_seed = json_seed(derive(cfg.seed, POOL_FAULT, i));
            let graph = generators::gnp(sz.nodes, P_EDGE, graph_seed);
            let n = sz.nodes as u64;
            let pick = |k: u64| (derive(cfg.seed, POOL_CHURN, i * 64 + k) % n) as NodeId;
            let crash = pick(0);
            let (u, v) = (1..)
                .map(|k| (pick(2 * k), pick(2 * k + 1)))
                .find(|&(u, v)| u != v && !graph.has_edge(u, v))
                .expect("a sparse graph has non-edges");
            let churn = ChurnPlan::new()
                .at(CRASH_AT, TopologyEvent::Crash(crash))
                .at(INSERT_AT, TopologyEvent::EdgeInsert(u, v))
                .at(RESTART_AT, TopologyEvent::Restart(crash))
                .at(DELETE_AT, TopologyEvent::EdgeDelete(u, v))
                .with_extra_edge(u, v);
            let faults = FaultPlan::new(fault_seed).duplicate_rate(DUPLICATE_RATE, 1);
            let body = format!(
                concat!(
                    "{{\"graph\":{{\"family\":\"gnp\",\"n\":{n},\"p\":{p},\"seed\":{gs}}},",
                    "\"protocol\":\"selfstab_mis\",\"seeds\":[{seed}],\"budget\":{budget},",
                    "\"checkpoint_every\":{ck},",
                    "\"churn\":{{\"events\":[",
                    "{{\"round\":{r1},\"event\":\"crash\",\"node\":{c}}},",
                    "{{\"round\":{r2},\"event\":\"edge_insert\",\"u\":{u},\"v\":{v}}},",
                    "{{\"round\":{r3},\"event\":\"restart\",\"node\":{c}}},",
                    "{{\"round\":{r4},\"event\":\"edge_delete\",\"u\":{u},\"v\":{v}}}],",
                    "\"extra_edges\":[[{u},{v}]]}},",
                    "\"faults\":{{\"seed\":{fs},\"duplicate\":[{dup},1]}}}}"
                ),
                n = sz.nodes,
                p = P_EDGE,
                gs = graph_seed,
                seed = seed,
                budget = sz.budget,
                ck = CHECKPOINT_EVERY,
                r1 = CRASH_AT,
                r2 = INSERT_AT,
                r3 = RESTART_AT,
                r4 = DELETE_AT,
                c = crash,
                u = u,
                v = v,
                fs = fault_seed,
                dup = DUPLICATE_RATE,
            );
            PoolEntry {
                body,
                graph,
                graph_seed,
                seed,
                churn,
                extra: (u, v),
                faults,
                expected: Expected::RoundLimit,
            }
        })
        .collect()
}

/// What a direct replica of a pool entry produced.
struct Replica {
    fingerprint: u64,
    rounds: u64,
    messages: u64,
    /// Churn events the run applied.
    applied: u64,
    /// Deliveries examined by the fault plan, and duplicates fired.
    evaluated: u64,
    duplicated: u64,
    outputs: Vec<u64>,
    /// Live flag per node at the end of the run.
    live: Vec<bool>,
    /// Whether the extra edge was still inserted at the end.
    extra_live: bool,
}

/// Whether the outputs form an MIS of the topology the run ended on. A
/// run stops at its first output configuration, which may come before
/// the plan's last events: a node can still be crashed and the extra
/// edge still present.
fn is_final_mis(entry: &PoolEntry, r: &Replica) -> bool {
    let in_set = |v: NodeId| r.outputs[v as usize] == 1;
    let (a, b) = entry.extra;
    (0..entry.graph.node_count() as NodeId)
        .filter(|&v| r.live[v as usize])
        .all(|v| {
            let extra = match (r.extra_live, v == a, v == b) {
                (true, true, _) => Some(b),
                (true, _, true) => Some(a),
                _ => None,
            };
            let mut live_nbrs = entry
                .graph
                .neighbors(v)
                .iter()
                .copied()
                .chain(extra)
                .filter(|&u| r.live[u as usize]);
            if in_set(v) {
                !live_nbrs.any(in_set)
            } else {
                live_nbrs.any(in_set)
            }
        })
}

/// Replays a pool entry directly, optionally without its fault plan and
/// with an observer. Returns the run and its host seconds.
fn replica<'g>(
    protocol: &'g (impl MultiFsm<State = <SelfStabMis as Protocol>::State> + Sync),
    entry: &'g PoolEntry,
    budget: u64,
    with_faults: bool,
    observer: Option<&'g mut (dyn Observer<<SelfStabMis as Protocol>::State> + 'g)>,
) -> (Result<Replica, ExecError>, f64) {
    let mut sim = Simulation::sync(protocol, &entry.graph)
        .seed(entry.seed)
        .budget(budget)
        .with_churn(&entry.churn);
    if with_faults {
        sim = sim.with_faults(&entry.faults);
    }
    if let Some(o) = observer {
        sim = sim.observe(o);
    }
    let start = Instant::now();
    let run = sim.run();
    let seconds = start.elapsed().as_secs_f64();
    let run = run.map(|o| {
        let rounds = o.rounds().unwrap_or(0);
        let messages = o.messages_sent().unwrap_or(0);
        let faults = o.faults().copied().unwrap_or_default();
        let churn = o
            .churn()
            .cloned()
            .expect("the replica runs under a churn plan");
        Replica {
            fingerprint: outcome_fingerprint(&o.outputs, rounds, messages),
            rounds,
            messages,
            applied: churn.crashes + churn.restarts + churn.edge_inserts + churn.edge_deletes,
            evaluated: faults.evaluated,
            duplicated: faults.duplicated,
            outputs: o.outputs,
            live: churn.live_nodes,
            extra_live: churn.edge_inserts > churn.edge_deletes,
        }
    });
    (run, seconds)
}

/// Computes every entry's expected result.
fn replay_pool(pool: &mut [PoolEntry], budget: u64, result: &mut RunResult) {
    let protocol = SelfStabMis::new();
    let mut done_rounds = Vec::new();
    for entry in pool.iter_mut() {
        let (run, _) = replica(&protocol, entry, budget, true, None);
        entry.expected = match run {
            Ok(r) => {
                done_rounds.push(r.rounds as f64);
                Expected::Done {
                    fingerprint: r.fingerprint,
                    mis: is_final_mis(entry, &r),
                }
            }
            Err(ExecError::RoundLimit { .. }) => Expected::RoundLimit,
            Err(e) => {
                let failure = format!("replica seed {}: {e}", entry.seed);
                result.gate.record(Some(failure), true);
                Expected::RoundLimit
            }
        };
    }
    let share = |f: fn(&Expected) -> bool| {
        pool.iter().filter(|e| f(&e.expected)).count() as f64 / pool.len() as f64
    };
    result.note(
        "pool_round_limit_share",
        share(|e| *e == Expected::RoundLimit),
    );
    result.note(
        "pool_not_mis_share",
        share(|e| matches!(e, Expected::Done { mis: false, .. })),
    );
    result.note("replica_rounds_p50", median(&done_rounds));
    result.note("replica_rounds_max", quantile(&done_rounds, 1.0));
}

/// One job as the client saw it.
#[derive(Debug, Default)]
struct JobRecord {
    entry: usize,
    http_status: u16,
    submit_ms: f64,
    /// Submit sent → terminal event read.
    latency_ms: f64,
    /// Submit sent → `started` event read.
    queue_ms: f64,
    /// `started` → terminal event.
    run_ms: f64,
    /// Terminal event → end of stream.
    close_ms: f64,
    status_ms: f64,
    frames: u64,
    persist_errors: u64,
    terminal: String,
    state: String,
    fingerprint: Option<String>,
    error: Option<String>,
    rounds: u64,
    messages: u64,
    id: i64,
    /// The status document as received.
    status_body: String,
    /// The latest checkpoint frame, downloaded on traced runs.
    frame: Option<Vec<u8>>,
    error_io: Option<String>,
    spans: Vec<(&'static str, Instant, Instant)>,
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Submits one job, follows its stream, reads its status and, when
/// `download` is set, fetches its latest checkpoint frame.
fn drive_job(addr: &str, entry: usize, body: &str, download: bool) -> JobRecord {
    let mut rec = JobRecord {
        entry,
        ..Default::default()
    };
    if let Err(e) = drive_job_into(addr, body, download, &mut rec) {
        rec.error_io = Some(e.to_string());
    }
    rec
}

fn drive_job_into(
    addr: &str,
    body: &str,
    download: bool,
    rec: &mut JobRecord,
) -> std::io::Result<()> {
    let t0 = Instant::now();
    let resp = client::request(addr, "POST", "/jobs", body.as_bytes())?;
    let t_submit = Instant::now();
    rec.spans.push(("http.submit", t0, t_submit));
    rec.submit_ms = ms(t0, t_submit);
    rec.http_status = resp.status;
    if resp.status != 201 {
        return Ok(());
    }
    rec.id = json(&resp.body)?
        .get("id")
        .and_then(Value::as_i64)
        .ok_or_else(|| std::io::Error::other("submit response has no id"))?;
    let mut stream = EventStream::open(addr, &format!("/jobs/{}/events", rec.id))?;
    let mut started = None;
    let mut terminal_at = None;
    while let Some(line) = stream.next_line()? {
        let now = Instant::now();
        let kind = event_type(&line);
        match kind {
            "started" => started = Some(now),
            "checkpoint" => rec.frames += 1,
            "persist_error" => rec.persist_errors += 1,
            "done" | "failed" | "cancelled" => {
                rec.terminal = kind.to_string();
                terminal_at = Some(now);
            }
            _ => {}
        }
    }
    let closed = Instant::now();
    let terminal_at = terminal_at.ok_or_else(|| std::io::Error::other("stream ended early"))?;
    let started = started.unwrap_or(terminal_at);
    rec.spans.push(("server.queue", t0, started));
    rec.spans.push(("server.run", started, terminal_at));
    rec.spans.push(("server.stream_close", terminal_at, closed));
    rec.latency_ms = ms(t0, terminal_at);
    rec.queue_ms = ms(t0, started);
    rec.run_ms = ms(started, terminal_at);
    rec.close_ms = ms(terminal_at, closed);

    let t1 = Instant::now();
    let status = client::request(addr, "GET", &format!("/jobs/{}", rec.id), b"")?;
    let t2 = Instant::now();
    rec.spans.push(("http.status", t1, t2));
    rec.status_ms = ms(t1, t2);
    rec.status_body = String::from_utf8_lossy(&status.body).into_owned();
    let doc = json(&status.body)?;
    rec.state = doc
        .get("state")
        .and_then(Value::as_str)
        .unwrap_or("")
        .to_string();
    rec.error = doc.get("error").and_then(Value::as_str).map(str::to_string);
    if let Some(first) = doc
        .get("results")
        .and_then(Value::as_array)
        .and_then(|r| r.first())
    {
        rec.fingerprint = first
            .get("fingerprint")
            .and_then(Value::as_str)
            .map(str::to_string);
        rec.rounds = first.get("rounds").and_then(Value::as_i64).unwrap_or(0) as u64;
        rec.messages = first.get("messages").and_then(Value::as_i64).unwrap_or(0) as u64;
    }
    if download {
        let frame = client::request(addr, "GET", &format!("/jobs/{}/snapshot", rec.id), b"")?;
        if frame.status == 200 {
            rec.frame = Some(frame.body);
        }
    }
    Ok(())
}

/// A response body as JSON; a malformed body is a client error, not a panic.
fn json(body: &[u8]) -> std::io::Result<Value> {
    std::str::from_utf8(body)
        .ok()
        .and_then(|text| stoneage_wire::parse(text).ok())
        .ok_or_else(|| std::io::Error::other("response body is not JSON"))
}

/// The `type` of a compact NDJSON event line.
fn event_type(line: &str) -> &str {
    line.split("\"type\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .unwrap_or("")
}

/// Runs the closed loop: two clients, each taking the next job index
/// until `more(index, elapsed_s)` says stop. Returns records and the
/// wall seconds of the load phase.
fn closed_loop(
    addr: &str,
    pool: &[PoolEntry],
    download: bool,
    more: &(dyn Fn(usize, f64) -> bool + Sync),
) -> (Vec<JobRecord>, f64) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut records: Vec<JobRecord> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if !more(i, start.elapsed().as_secs_f64()) {
                            return out;
                        }
                        let entry = i % pool.len();
                        out.push(drive_job(addr, entry, &pool[entry].body, download));
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    records.sort_by_key(|r| r.id);
    (records, wall)
}

/// Applies the gate to one job record. A job whose result equals its
/// replica's ran correctly; when that result is no MIS (the budget ran
/// out, or the output is not an MIS of the final topology) the job is
/// counted as unsolved, not failed.
fn gate_job(cfg: &Config, result: &mut RunResult, rec: &JobRecord, pool: &[PoolEntry]) {
    let expected = pool[rec.entry].expected;
    let (failure, wrong) = if let Some(e) = &rec.error_io {
        (Some(format!("job {}: client error: {e}", rec.id)), false)
    } else if rec.http_status != 201 {
        (Some(format!("submit answered {}", rec.http_status)), false)
    } else if rec.persist_errors > 0 {
        let failure = format!(
            "job {}: {} persist_error events",
            rec.id, rec.persist_errors
        );
        (Some(failure), false)
    } else {
        match (rec.terminal.as_str(), rec.state.as_str(), expected) {
            ("done", "done", Expected::Done { fingerprint, mis }) => {
                let expected = if cfg.tamper_expected {
                    !fingerprint
                } else {
                    fingerprint
                };
                if rec.fingerprint.as_deref() != Some(format!("{expected:#018x}").as_str()) {
                    let failure = format!("job {}: fingerprint differs from replica", rec.id);
                    (Some(failure), true)
                } else if !mis {
                    result.gate.record_unsolved();
                    return;
                } else {
                    (None, false)
                }
            }
            ("failed", "failed", Expected::RoundLimit)
                if rec
                    .error
                    .as_deref()
                    .is_some_and(|e| e.contains("no output configuration")) =>
            {
                result.gate.record_unsolved();
                return;
            }
            (terminal, state, expected) => {
                let failure = format!(
                    "job {}: ended {terminal}/{state}, replica {expected:?}",
                    rec.id
                );
                (Some(failure), true)
            }
        }
    };
    result.gate.record(failure, wrong);
}

/// Rounds a job executed: the reported count, or the budget when it
/// ran out.
fn job_rounds(rec: &JobRecord, budget: u64) -> u64 {
    if rec.terminal == "done" {
        rec.rounds
    } else {
        budget
    }
}

fn start_server() -> Server {
    Server::start(ServerConfig {
        cores: 2,
        ..ServerConfig::default()
    })
    .expect("the benchmark server binds a loopback port")
}

/// `service`.
pub fn run(cfg: &Config) -> RunResult {
    let mut result = RunResult::default();
    let sz = sizes(cfg.scale);
    let mut trace = Trace::new(Instant::now());

    // Set-up: the pool's graphs and bodies plus a server start, SETUP_REPS
    // times; every server but the last is shut down again.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let ((pool, server), dt) =
            trace.span("setup", None, |_, _| (build_pool(cfg, &sz), start_server()));
        setup.push(dt);
        if let Some((_, old)) = built.replace((pool, server)) {
            Server::shutdown(old);
        }
    }
    let setup_s = median(&setup);
    let (mut pool, server) = built.expect("SETUP_REPS > 0");
    replay_pool(&mut pool, sz.budget, &mut result);
    result.note("nodes", sz.nodes);
    result.note("pool", sz.pool);
    result.note("budget", sz.budget);
    let addr = server.addr().to_string();

    if !cfg.trace {
        let min_jobs = sz.min_jobs;
        let seconds = cfg.seconds;
        let (records, wall) = closed_loop(&addr, &pool, false, &move |i, t| {
            i < min_jobs || t < seconds
        });
        server.shutdown();
        for rec in &records {
            gate_job(cfg, &mut result, rec, &pool);
        }
        let finished: Vec<&JobRecord> = records.iter().filter(|r| !r.terminal.is_empty()).collect();
        let lat: Vec<f64> = finished.iter().map(|r| r.latency_ms).collect();
        // Per-job rates over the client-observed run time; their medians,
        // like those of the direct workloads, resist short host stalls.
        let rate = |work: &dyn Fn(&JobRecord) -> u64| -> Vec<f64> {
            finished
                .iter()
                .map(|r| work(r) as f64 / (r.run_ms / 1e3).max(1e-9))
                .collect()
        };
        let rounds = rate(&|r| job_rounds(r, sz.budget));
        let events = rate(&|r| job_rounds(r, sz.budget) * sz.nodes as u64 + r.messages);
        result.set("rounds_per_s", median(&rounds));
        result.set("events_per_s", median(&events));
        result.set("job_p50_ms", median(&lat));
        result.set("job_p99_ms", quantile(&lat, 0.99));
        result.set("jobs_per_s", finished.len() as f64 / wall);
        result.set("setup_s", setup_s);
        result.note("samples", lat.len());
        result.note(
            "samples_beyond_p99",
            lat.len() - (0.99 * lat.len() as f64).ceil() as usize,
        );
        result.note("load", "closed loop, 2 clients");
        return result;
    }

    // Traced run: the pool once untraced, then once with client spans.
    let pool_len = pool.len();
    let once = move |i: usize, _t: f64| i < pool_len;
    let (plain, plain_wall) = closed_loop(&addr, &pool, true, &once);
    let (records, traced_wall) = closed_loop(&addr, &pool, true, &once);
    server.shutdown();
    for rec in plain.iter().chain(&records) {
        gate_job(cfg, &mut result, rec, &pool);
    }
    for rec in &records {
        let (Some(start), Some(end)) = (
            rec.spans.iter().map(|s| s.1).min(),
            rec.spans.iter().map(|s| s.2).max(),
        ) else {
            continue;
        };
        let root = trace.spans.len() as u32;
        trace.push("job", None, start, end);
        for &(name, a, b) in &rec.spans {
            trace.push(name, Some(root), a, b);
        }
    }
    result.set("trace_overhead", traced_wall / plain_wall);
    let col = |f: fn(&JobRecord) -> f64| -> Vec<f64> { records.iter().map(f).collect() };
    result.set("http.submit_ms_p50", median(&col(|r| r.submit_ms)));
    result.set("http.status_ms_p50", median(&col(|r| r.status_ms)));
    result.set("server.queue_ms_p50", median(&col(|r| r.queue_ms)));
    result.set("server.queue_ms_p99", quantile(&col(|r| r.queue_ms), 0.99));
    result.set("server.run_ms_p50", median(&col(|r| r.run_ms)));
    result.set("server.stream_close_ms_p50", median(&col(|r| r.close_ms)));
    let rejected = records.iter().filter(|r| r.http_status != 201).count();
    result.set("server.rejected", rejected as f64);
    let frames: u64 = records.iter().map(|r| r.frames).sum();
    result.set(
        "snapshot.frames_per_job",
        frames as f64 / records.len().max(1) as f64,
    );
    let persist_errors: u64 = records.iter().map(|r| r.persist_errors).sum();
    result.set("snapshot.persist_errors", persist_errors as f64);
    result.note("job_samples", records.len());

    // Snapshot frames as the clients downloaded them, then the codec and
    // the durable write called directly on the first frame.
    let frames: Vec<&Vec<u8>> = records.iter().filter_map(|r| r.frame.as_ref()).collect();
    let status_doc = records.first().map_or("", |r| r.status_body.as_str());
    let sizes_b: Vec<f64> = frames.iter().map(|f| f.len() as f64).collect();
    result.set(
        "snapshot.frame_bytes",
        sizes_b.iter().sum::<f64>() / sizes_b.len().max(1) as f64,
    );
    if let Some(bytes) = frames.first() {
        match Snapshot::from_bytes(bytes) {
            Ok(snap) => {
                let (_, _) = trace.span("snapshot.probe", None, |_, _| {
                    result.set(
                        "snapshot.decode_us",
                        time_median(201, || {
                            std::hint::black_box(Snapshot::from_bytes(bytes).ok());
                        }) * 1e6,
                    );
                    result.set(
                        "snapshot.encode_us",
                        time_median(201, || {
                            std::hint::black_box(snap.to_bytes());
                        }) * 1e6,
                    );
                    let dir = cfg.out_dir.join(format!("probe-{}", std::process::id()));
                    let path = dir.join("probe.snap");
                    let mut errors = u64::from(std::fs::create_dir_all(&dir).is_err());
                    let persist = time_median(21, || {
                        if write_snapshot_file(&path, &snap).is_err() {
                            errors += 1;
                        }
                    });
                    let _ = std::fs::remove_dir_all(&dir);
                    result.set("snapshot.persist_us", persist * 1e6);
                    result.set(
                        "snapshot.persist_errors",
                        persist_errors as f64 + errors as f64,
                    );
                });
            }
            Err(e) => result
                .gate
                .record(Some(format!("downloaded frame rejected: {e}")), true),
        }
    }
    let body = pool[0].body.as_bytes();
    result.set(
        "spec.parse_us",
        time_median(501, || {
            std::hint::black_box(parse_spec(body).ok());
        }) * 1e6,
    );
    result.set(
        "wire.parse_us",
        time_median(501, || {
            std::hint::black_box(stoneage_wire::parse(status_doc).ok());
        }) * 1e6,
    );

    // Direct replicas of every pool entry: with an observer and the
    // counting protocol, and again without the fault plan.
    let clock_ns = clock_overhead_ns();
    let counting = CountingMulti::new(SelfStabMis::new());
    let (mut run_s, mut prelude, mut epilogue, mut gaps) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut rounds, mut messages, mut und_ns, mut und) = (0u64, 0u64, 0u64, 0u64);
    let (mut applied, mut evaluated, mut duplicated) = (0u64, 0u64, 0u64);
    let mut boundary = Vec::new();
    let (mut with_f, mut with_r, mut without_f, mut without_r) = (0.0, 0u64, 0.0, 0u64);
    let boundary_rounds = [CRASH_AT, INSERT_AT, RESTART_AT, DELETE_AT];
    for entry in &pool {
        let mut observer = RoundObserver::new(&counting, sz.nodes);
        observer.arm();
        let ((run, secs), _) = trace.span("replica", None, |_, _| {
            replica(&counting, entry, sz.budget, true, Some(&mut observer))
        });
        let returned = Instant::now();
        let same = match (&run, entry.expected) {
            (Ok(r), Expected::Done { fingerprint, .. }) => r.fingerprint == fingerprint,
            (Err(_), Expected::RoundLimit) => true,
            _ => false,
        };
        if !same {
            let failure = format!("replica seed {}: traced run differs", entry.seed);
            result.gate.record(Some(failure), true);
        }
        let r = match &run {
            Ok(r) => {
                messages += r.messages;
                applied += r.applied;
                evaluated += r.evaluated;
                duplicated += r.duplicated;
                r.rounds
            }
            Err(_) => sz.budget,
        };
        rounds += r;
        with_f += secs;
        with_r += r;
        run_s.push(secs);
        if let Some(first) = observer.first {
            prelude.push(first.duration_since(observer.start).as_secs_f64() * 1e3);
        }
        epilogue.push(returned.duration_since(observer.last_exit).as_secs_f64() * 1e3);
        for &(round, gap, u) in &observer.rounds {
            gaps.push(gap as f64 / 1e6);
            und_ns += gap;
            und += u;
            if boundary_rounds.contains(&round) {
                boundary.push(gap as f64 / 1e6);
            }
        }
        let (plain, secs) = replica(&SelfStabMis::new(), entry, sz.budget, false, None);
        without_f += secs;
        without_r += plain.map_or(sz.budget, |p| p.rounds);
    }
    result.set("sim.run_s", median(&run_s));
    result.set("sim.prelude_ms", median(&prelude));
    result.set("sim.epilogue_ms", median(&epilogue));
    result.set("pipeline.round_ms_p50", quantile(&gaps, 0.5));
    result.set("pipeline.round_ms_p90", quantile(&gaps, 0.9));
    result.set("pipeline.rounds", rounds as f64);
    result.set("pipeline.messages", messages as f64);
    result.set(
        "pipeline.ns_per_undecided_node",
        und_ns as f64 / und.max(1) as f64,
    );
    result.set("protocols.delta_calls", counting.stats.calls() as f64);
    result.set("protocols.delta_ns", counting.stats.mean_ns(clock_ns));
    result.set("churn.events_applied", applied as f64);
    result.set("churn.boundary_round_ms", median(&boundary));
    result.set("faults.evaluated", evaluated as f64);
    result.set("faults.duplicated", duplicated as f64);
    result.set(
        "faults.replica_overhead",
        (with_f / with_r.max(1) as f64) / (without_f / without_r.max(1) as f64),
    );
    result.set("parbuf.workers_used", 1.0);
    result.set(
        "graph.build_s",
        time_median(SETUP_REPS, || {
            std::hint::black_box(generators::gnp(sz.nodes, P_EDGE, pool[0].graph_seed));
        }),
    );
    let protocol = SelfStabMis::new();
    let (init, bcast, obs) = engine_probe(
        &pool[0].graph,
        protocol.alphabet().len(),
        protocol.initial_letter(),
        protocol.bound(),
    );
    result.set("engine.init_ms", init);
    result.set("engine.broadcast_ns_per_slot", bcast);
    result.set("engine.observe_ns_per_node", obs);
    result.spans = trace.spans;
    result
}
