//! The repository benchmark: three workloads, their end-to-end metrics, a
//! correctness gate, and a separate traced run that times each layer's
//! public functions from outside the program.
//!
//! Workloads (see `perfbench/METHOD.md` for why each exists):
//! * `sync-mis` — paper MIS to termination on gnp(2000, avg deg 8), serial;
//!   its traced run also runs every seed on the 2-worker schedule;
//! * `async-mis` — `Synchronized(SingleLetter(MIS))` on gnp(16) under a
//!   uniform random adversary;
//! * `service` — an in-process job server driven by a closed loop of two
//!   clients submitting churned, faulted, checkpointed `selfstab_mis` jobs.
//!
//! Every input derives from one workload seed; the program only sees the
//! generated graphs, seeds and job bodies.

pub mod direct;
pub mod layers;
pub mod service;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// The end-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("rounds_per_s", "rounds/s"),
    ("events_per_s", "events/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, printed by every traced run: `(name, unit)`.
/// A layer the workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_frac", "fraction"),
    ("trace_overhead", "ratio"),
    ("graph.build_s", "s"),
    ("sim.run_s", "s"),
    ("sim.prelude_ms", "ms"),
    ("sim.epilogue_ms", "ms"),
    ("pipeline.round_ms_p50", "ms"),
    ("pipeline.round_ms_p90", "ms"),
    ("pipeline.rounds", "count"),
    ("pipeline.messages", "count"),
    ("pipeline.ns_per_undecided_node", "ns"),
    ("engine.init_ms", "ms"),
    ("engine.broadcast_ns_per_slot", "ns"),
    ("engine.observe_ns_per_node", "ns"),
    ("protocols.delta_calls", "count"),
    ("protocols.delta_ns", "ns"),
    ("core.synchronized_delta_calls", "count"),
    ("core.synchronized_delta_ns", "ns"),
    ("parbuf.workers_used", "count"),
    ("parbuf.speedup", "ratio"),
    ("parbuf.shard_slot_imbalance", "ratio"),
    ("parbuf.shardplan_ms", "ms"),
    ("parbuf.bucket_ns_per_slot", "ns"),
    ("parbuf.merge_ns_per_slot", "ns"),
    ("async.steps", "count"),
    ("async.deliveries", "count"),
    ("async.lost_frac", "fraction"),
    ("async.time_units", "time_units"),
    ("async.host_ns_per_step", "ns"),
    ("schedule.push_pop_ns", "ns"),
    ("adversary.draws", "count"),
    ("adversary.draw_ns", "ns"),
    ("snapshot.frames_per_job", "count"),
    ("snapshot.frame_bytes", "bytes"),
    ("snapshot.encode_us", "us"),
    ("snapshot.decode_us", "us"),
    ("snapshot.persist_us", "us"),
    ("snapshot.persist_errors", "count"),
    ("churn.events_applied", "count"),
    ("churn.boundary_round_ms", "ms"),
    ("faults.evaluated", "count"),
    ("faults.duplicated", "count"),
    ("faults.replica_overhead", "ratio"),
    ("http.submit_ms_p50", "ms"),
    ("http.status_ms_p50", "ms"),
    ("server.queue_ms_p50", "ms"),
    ("server.queue_ms_p99", "ms"),
    ("server.run_ms_p50", "ms"),
    ("server.stream_close_ms_p50", "ms"),
    ("server.rejected", "count"),
    ("spec.parse_us", "us"),
    ("wire.parse_us", "us"),
];

/// Environment variables that silently swap the measured parallel code
/// path; the benchmark refuses to run while either is set.
pub const FORBIDDEN_ENV: &[&str] = &[stoneage_sim::ROUND_MODE_ENV, stoneage_sim::SCHEDULER_ENV];

/// One of the three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper MIS on the serial Sync backend.
    SyncMis,
    /// The synchronizer-compiled MIS on the Async backend.
    AsyncMis,
    /// The in-process job server under a closed loop of two clients.
    Service,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::SyncMis, Workload::AsyncMis, Workload::Service];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SyncMis => "sync-mis",
            Workload::AsyncMis => "async-mis",
            Workload::Service => "service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is the benchmark, `Tiny` keeps the tests fast.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Small inputs for the benchmark's own tests.
    Tiny,
}

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Where traces, run records and the snapshot-write probe go.
    pub out_dir: PathBuf,
    /// Flips every expected fingerprint, so the gate must report
    /// failures; used only by the benchmark's own tests.
    pub tamper_expected: bool,
}

/// Counts attempted and failed operations and whether every checked
/// output was correct.
#[derive(Debug, Default)]
pub struct Gate {
    /// Runs or jobs attempted.
    pub attempted: u64,
    /// Runs or jobs that failed (see `METHOD.md` for what counts).
    pub failed: u64,
    /// Jobs the program ran correctly, with the same result as their
    /// direct replica, but whose protocol reached no MIS: no output
    /// within the round budget, or an output that is not an MIS of the
    /// final topology. They are not failed operations; they count
    /// towards the per-layer `failed_frac`.
    pub unsolved: u64,
    /// Outputs found wrong: an invalid MIS or a fingerprint mismatch.
    pub incorrect: u64,
    /// One line per failure, for the run record.
    pub notes: Vec<String>,
}

impl Gate {
    /// Records one attempted operation. `failure` names why it failed
    /// (`None` = success); `wrong` marks a wrong output.
    pub fn record(&mut self, failure: Option<String>, wrong: bool) {
        self.attempted += 1;
        if wrong {
            self.incorrect += 1;
        }
        if let Some(why) = failure {
            self.failed += 1;
            if self.notes.len() < 32 {
                self.notes.push(why);
            }
        }
    }

    /// Records one job that ran correctly but whose protocol reached
    /// no MIS.
    pub fn record_unsolved(&mut self) {
        self.attempted += 1;
        self.unsolved += 1;
    }

    /// `(failed + unsolved) / attempted`.
    pub fn failed_frac(&self) -> f64 {
        (self.failed + self.unsolved) as f64 / self.attempted.max(1) as f64
    }
}

/// One recorded span: a call into a layer, timed from the benchmark.
#[derive(Clone, Debug)]
pub struct Span {
    /// Identifier, unique within one trace.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer boundary name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

/// In-memory span recorder; written out when the run ends.
#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    /// Spans in recording order; a span's id is its index.
    pub spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose clock starts at `t0`.
    pub fn new(t0: Instant) -> Trace {
        Trace {
            t0,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` under `parent`; returns the
    /// result, the span id and the elapsed seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        f: impl FnOnce(&mut Trace, u32) -> T,
    ) -> (T, f64) {
        let id = self.spans.len() as u32;
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: 0,
        });
        let out = f(self, id);
        let end = Instant::now();
        let end_ns = self.ns(end);
        self.spans[id as usize].end_ns = end_ns;
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Appends a span measured elsewhere (e.g. on a client thread).
    pub fn push(&mut self, name: &'static str, parent: Option<u32>, start: Instant, end: Instant) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }
}

/// The spans as JSON lines, one object per span.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.id, parent, s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct RunResult {
    /// The correctness gate.
    pub gate: Gate,
    /// Metric values by name (units come from the metric tables).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Method notes recorded with the result (sample counts, sizes).
    pub method: Vec<(String, String)>,
    /// Spans of the traced run (empty when untraced).
    pub spans: Vec<Span>,
}

impl RunResult {
    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Adds a method note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.method.push((key.to_string(), value.to_string()));
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics of the run's table, each with its unit.
    pub fn result_line(&self, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.metrics.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.gate.incorrect == 0 && self.gate.attempted > 0,
            self.gate.attempted,
            self.gate.failed,
            metrics.join(",")
        )
    }
}

/// A finite number as JSON, with all its digits.
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Runs one configured workload.
pub fn run(cfg: &Config) -> RunResult {
    let mut result = match cfg.workload {
        Workload::SyncMis => direct::sync_mis(cfg),
        Workload::AsyncMis => direct::async_mis(cfg),
        Workload::Service => service::run(cfg),
    };
    result.set("peak_rss_mb", peak_rss_mb());
    let frac = result.gate.failed_frac();
    result.set("failed_frac", frac);
    result.note("failed_frac", json_num(frac));
    result.note("unsolved", result.gate.unsolved);
    result
}

/// SplitMix64 finaliser: the seed-derivation hash.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the `index`-th seed of stream `stream` from the workload seed.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed, stream), index)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Median seconds of `reps` timed calls of `f`.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Writes the run record (method, result line and, when traced, the
/// spans) under the configured output directory.
pub fn write_record(
    cfg: &Config,
    method_line: &str,
    result: &RunResult,
    line: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    );
    std::fs::write(
        cfg.out_dir.join(format!("{stem}.json")),
        format!("{method_line}\n{line}\n"),
    )?;
    if cfg.trace {
        std::fs::write(
            cfg.out_dir.join(format!("{stem}.spans.jsonl")),
            spans_jsonl(&result.spans),
        )?;
    }
    Ok(())
}
