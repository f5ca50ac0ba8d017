//! The two workloads that call the `Simulation` builder directly:
//! `sync-mis` and `async-mis`. The traced run of `sync-mis` also runs a
//! few seeds on one large graph, serially and on the default 2-worker
//! schedule, which is where the `parbuf` layer is measured.

use std::time::Instant;
use stoneage_core::{MultiFsm, Protocol, SingleLetter, Synchronized};
use stoneage_graph::{generators, validate, Graph};
use stoneage_protocols::{decode_mis, MisProtocol};
use stoneage_server::outcome_fingerprint;
use stoneage_sim::adversary::UniformRandom;
use stoneage_sim::{Detail, ExecError, Observer, Outcome, ParallelPolicy, Simulation};

use crate::layers::{
    adversary_probe, clock_overhead_ns, engine_probe, parbuf_probe, schedule_probe,
    CountingAdversary, CountingFsm, CountingMulti, RoundObserver,
};
use crate::{derive, median, quantile, Config, RunResult, Scale, Trace};

/// Seed streams.
const SYNC_GRAPH: u64 = 1;
const SYNC_RUN: u64 = 2;
const ASYNC_GRAPH: u64 = 3;
const ASYNC_RUN: u64 = 4;
const ASYNC_ADVERSARY: u64 = 5;
const PAR_GRAPH: u64 = 6;
const PAR_RUN: u64 = 7;

/// Graphs per workload; job `i` runs on graph `i % GRAPHS`, so every
/// run's medians and tails cover many inputs, not a few hard ones.
const GRAPHS: usize = 32;

/// The measured loop stops after this many times `--seconds` of wall
/// time even when failed runs left the measured time short.
const WALL_CAP: f64 = 4.0;

/// Set-up samples taken before the first timed call, and the gap
/// between the samples taken during the measured loop.
const SETUP_SAMPLES: usize = 5;
const SETUP_EVERY_S: f64 = 1.0;

/// One set-up sample builds the graph pool repeatedly for at least this
/// long, so a sample of a small pool is not a single clock reading.
const SETUP_SAMPLE_S: f64 = 0.02;

/// gnp with average degree 8.
fn gnp8(n: usize, seed: u64) -> Graph {
    generators::gnp(n, 8.0 / (n - 1) as f64, seed)
}

/// Set-up: the workload's graph pool. `setup_s` is the median seconds
/// per pool build over samples taken before the first timed call and,
/// because the host's speed drifts over seconds, once a second during
/// the run as well.
struct Setup {
    n: usize,
    seeds: Vec<u64>,
    samples: Vec<f64>,
    last: Instant,
}

impl Setup {
    /// Builds the pool (once untimed, to warm the heap), takes the first
    /// samples and returns the pool.
    fn start(n: usize, seed: u64, stream: u64, trace: &mut Trace) -> (Vec<Graph>, Setup) {
        let seeds: Vec<u64> = (0..GRAPHS as u64)
            .map(|i| derive(seed, stream, i))
            .collect();
        let mut setup = Setup {
            n,
            seeds,
            samples: Vec::new(),
            last: Instant::now(),
        };
        let (graphs, _) = trace.span("graph.build", None, |_, _| setup.build());
        for _ in 0..SETUP_SAMPLES {
            setup.sample();
        }
        (graphs, setup)
    }

    fn build(&self) -> Vec<Graph> {
        self.seeds.iter().map(|&s| gnp8(self.n, s)).collect()
    }

    /// Takes one sample.
    fn sample(&mut self) {
        let start = Instant::now();
        let mut builds = 0;
        while builds == 0 || start.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            std::hint::black_box(self.build());
            builds += 1;
        }
        self.samples
            .push(start.elapsed().as_secs_f64() / builds as f64);
        self.last = Instant::now();
    }

    /// Takes a sample when the last one is `SETUP_EVERY_S` old.
    fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            self.sample();
        }
    }

    fn median(&self) -> f64 {
        median(&self.samples)
    }
}

fn run_sync<'g, P>(
    protocol: &'g P,
    graph: &'g Graph,
    seed: u64,
    workers: Option<usize>,
    observer: Option<&'g mut (dyn Observer<P::State> + 'g)>,
) -> Result<Outcome<P>, ExecError>
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
{
    let mut sim = Simulation::sync(protocol, graph).seed(seed);
    if let Some(w) = workers {
        sim = sim.parallel(ParallelPolicy {
            workers: Some(w),
            ..Default::default()
        });
    }
    if let Some(o) = observer {
        sim = sim.observe(o);
    }
    sim.run()
}

/// One solved sync seed.
struct SyncRun {
    seconds: f64,
    /// When `run()` returned, before the gate's own work.
    returned: Instant,
    rounds: u64,
    messages: u64,
    fingerprint: u64,
    workers: usize,
}

/// Runs one seed on `workers` (serial when `None`), timing only `run()`,
/// and applies the gate: the output must be an MIS and, when `expected`
/// is given, its fingerprint must equal it.
fn gated_sync_run<P>(
    result: &mut RunResult,
    protocol: &P,
    graph: &Graph,
    seed: u64,
    workers: Option<usize>,
    expected: Option<u64>,
    observer: Option<&mut RoundObserver<'_, P>>,
) -> Option<SyncRun>
where
    P: MultiFsm + Sync,
    P::State: Send + Sync,
{
    let start = Instant::now();
    let run = match observer {
        Some(o) => {
            o.arm();
            run_sync(protocol, graph, seed, workers, Some(o))
        }
        None => run_sync(protocol, graph, seed, workers, None),
    };
    let returned = Instant::now();
    let seconds = returned.duration_since(start).as_secs_f64();
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            result.gate.record(Some(format!("seed {seed}: {e}")), false);
            return None;
        }
    };
    let rounds = outcome.rounds().unwrap_or(0);
    let messages = outcome.messages_sent().unwrap_or(0);
    let fingerprint = outcome_fingerprint(&outcome.outputs, rounds, messages);
    let mut failure = None;
    let mut wrong = false;
    if !validate::is_maximal_independent_set(graph, &decode_mis(&outcome.outputs)) {
        failure = Some(format!("seed {seed}: output is not an MIS"));
        wrong = true;
    } else if expected.is_some_and(|e| e != fingerprint) {
        failure = Some(format!(
            "seed {seed}: fingerprint on {workers:?} workers differs from the serial run"
        ));
        wrong = true;
    } else if workers.is_some_and(|w| w != outcome.workers) {
        failure = Some(format!(
            "seed {seed}: ran on {} workers, not {workers:?}",
            outcome.workers
        ));
    }
    result.gate.record(failure, wrong);
    Some(SyncRun {
        seconds,
        returned,
        rounds,
        messages,
        fingerprint,
        workers: outcome.workers,
    })
}

/// One solved seed as the end-to-end metrics see it.
struct Job {
    seconds: f64,
    /// `Outcome::cost`: rounds, or normalized time units on `async-mis`.
    cost: f64,
    /// Engine events: node steps plus transmissions or deliveries.
    events: f64,
}

/// Sets the end-to-end metrics. Rates are medians of per-job rates, so a
/// short stall of the host moves a few samples rather than the figure.
fn end_to_end(result: &mut RunResult, jobs: &[Job], setup_s: f64) {
    let rate = |f: fn(&Job) -> f64| -> Vec<f64> { jobs.iter().map(|j| f(j) / j.seconds).collect() };
    let ms: Vec<f64> = jobs.iter().map(|j| j.seconds * 1e3).collect();
    result.set("rounds_per_s", median(&rate(|j| j.cost)));
    result.set("events_per_s", median(&rate(|j| j.events)));
    result.set("job_p50_ms", median(&ms));
    result.set("job_p99_ms", quantile(&ms, 0.99));
    result.set(
        "jobs_per_s",
        jobs.len() as f64 / jobs.iter().map(|j| j.seconds).sum::<f64>(),
    );
    result.set("setup_s", setup_s);
    result.note("samples", jobs.len());
    result.note(
        "samples_beyond_p99",
        jobs.len() - (0.99 * jobs.len() as f64).ceil() as usize,
    );
}

/// Runs jobs `0, 1, ...` until `cfg.seconds` of measured time (or the
/// wall cap) have passed, taking a set-up sample once a second.
fn measured_loop(
    cfg: &Config,
    result: &mut RunResult,
    setup: &mut Setup,
    mut job: impl FnMut(&mut RunResult, u64) -> Option<Job>,
) -> Vec<Job> {
    let mut jobs = Vec::new();
    let mut measured = 0.0;
    let wall = Instant::now();
    let mut i = 0;
    while i == 0
        || (measured < cfg.seconds && wall.elapsed().as_secs_f64() < WALL_CAP * cfg.seconds)
    {
        if let Some(j) = job(result, i) {
            measured += j.seconds;
            jobs.push(j);
        }
        setup.tick();
        i += 1;
    }
    jobs
}

/// `sync-mis`: paper MIS on the serial Sync backend.
pub fn sync_mis(cfg: &Config) -> RunResult {
    let mut result = RunResult::default();
    let mut trace = Trace::new(Instant::now());
    let n = match cfg.scale {
        Scale::Full => 2_000,
        Scale::Tiny => 300,
    };
    let (graphs, mut setup) = Setup::start(n, cfg.seed, SYNC_GRAPH, &mut trace);
    result.note("nodes", n);
    result.note("graphs", GRAPHS);
    let protocol = MisProtocol::new();
    let seed_of = |i: u64| derive(cfg.seed, SYNC_RUN, i);
    let graph_of = |i: u64| &graphs[i as usize % GRAPHS];

    if !cfg.trace {
        let jobs = measured_loop(cfg, &mut result, &mut setup, |result, i| {
            let r = gated_sync_run(result, &protocol, graph_of(i), seed_of(i), None, None, None)?;
            Some(Job {
                seconds: r.seconds,
                cost: r.rounds as f64,
                events: (r.rounds * n as u64 + r.messages) as f64,
            })
        });
        end_to_end(&mut result, &jobs, setup.median());
        return result;
    }

    // Traced run: a fixed seed list, first untraced, then with the
    // counting protocol wrapper and the round observer.
    let seeds = match cfg.scale {
        Scale::Full => 32,
        Scale::Tiny => 4,
    };
    let mut untraced = Vec::new();
    for i in 0..seeds {
        let run = gated_sync_run(
            &mut result,
            &protocol,
            graph_of(i),
            seed_of(i),
            None,
            None,
            None,
        );
        untraced.push(run.map(|r| (r.seconds, r.fingerprint)));
    }
    let clock_ns = clock_overhead_ns();
    let counting = CountingMulti::new(MisProtocol::new());
    let (mut run_s, mut prelude, mut epilogue) = (Vec::new(), Vec::new(), Vec::new());
    let (mut gaps, mut rounds, mut messages, mut undecided_ns, mut undecided) =
        (Vec::new(), 0u64, 0u64, 0u64, 0u64);
    let mut traced_total = 0.0;
    let mut untraced_total = 0.0;
    for (i, plain) in untraced.iter().enumerate() {
        let i = i as u64;
        let Some((plain_s, plain_fp)) = *plain else {
            continue;
        };
        let seed = seed_of(i);
        let mut observer = RoundObserver::new(&counting, n);
        let (run, _) = trace.span("seed", None, |t, parent| {
            t.span("sim.run", Some(parent), |_, _| {
                gated_sync_run(
                    &mut result,
                    &counting,
                    graph_of(i),
                    seed,
                    None,
                    Some(plain_fp),
                    Some(&mut observer),
                )
            })
            .0
        });
        if let Some(r) = run {
            traced_total += r.seconds;
            untraced_total += plain_s;
            run_s.push(r.seconds);
            if let Some(first) = observer.first {
                prelude.push(first.duration_since(observer.start).as_secs_f64() * 1e3);
            }
            epilogue.push(r.returned.duration_since(observer.last_exit).as_secs_f64() * 1e3);
            for &(_, gap, und) in &observer.rounds {
                gaps.push(gap as f64 / 1e6);
                undecided_ns += gap;
                undecided += und;
            }
            rounds += r.rounds;
            messages += r.messages;
        }
    }
    result.set(
        "trace_overhead",
        traced_total / untraced_total.max(f64::MIN_POSITIVE),
    );
    result.set("graph.build_s", setup.median());
    result.set("sim.run_s", median(&run_s));
    result.set("sim.prelude_ms", median(&prelude));
    result.set("sim.epilogue_ms", median(&epilogue));
    result.set("pipeline.round_ms_p50", quantile(&gaps, 0.5));
    result.set("pipeline.round_ms_p90", quantile(&gaps, 0.9));
    result.set("pipeline.rounds", rounds as f64);
    result.set("pipeline.messages", messages as f64);
    result.set(
        "pipeline.ns_per_undecided_node",
        undecided_ns as f64 / undecided.max(1) as f64,
    );
    result.set("protocols.delta_calls", counting.stats.calls() as f64);
    result.set("protocols.delta_ns", counting.stats.mean_ns(clock_ns));
    result.note("round_samples", gaps.len());
    result.note("traced_seeds", seeds);

    let sigma = protocol.alphabet().len();
    let ((init, bcast, obs), _) = trace.span("engine.probe", None, |_, _| {
        engine_probe(
            &graphs[0],
            sigma,
            protocol.initial_letter(),
            protocol.bound(),
        )
    });
    result.set("engine.init_ms", init);
    result.set("engine.broadcast_ns_per_slot", bcast);
    result.set("engine.observe_ns_per_node", obs);

    // The 2-worker schedule falls back to the serial engine below
    // `PARALLEL_MIN_NODES`, so it runs on one large graph: each seed
    // serially, then on 2 workers, whose fingerprint must equal the
    // serial one.
    let par_n = match cfg.scale {
        Scale::Full => 200_000,
        Scale::Tiny => 5_000,
    };
    let par_seeds = match cfg.scale {
        Scale::Full => 3,
        Scale::Tiny => 2,
    };
    let (big, _) = trace.span("graph.build", None, |_, _| {
        gnp8(par_n, derive(cfg.seed, PAR_GRAPH, 0))
    });
    let (mut serial_total, mut par_total, mut workers_used) = (0.0, 0.0, 0);
    for i in 0..par_seeds {
        let seed = derive(cfg.seed, PAR_RUN, i);
        let (serial, _) = trace.span("serial.run", None, |_, _| {
            gated_sync_run(&mut result, &protocol, &big, seed, None, None, None)
        });
        let Some(serial) = serial else {
            continue;
        };
        let expected = if cfg.tamper_expected {
            !serial.fingerprint
        } else {
            serial.fingerprint
        };
        let (par, _) = trace.span("parallel.run", None, |_, _| {
            gated_sync_run(
                &mut result,
                &protocol,
                &big,
                seed,
                Some(2),
                Some(expected),
                None,
            )
        });
        if let Some(p) = par {
            serial_total += serial.seconds;
            par_total += p.seconds;
            workers_used = p.workers;
        }
    }
    result.set("parbuf.workers_used", workers_used as f64);
    result.set(
        "parbuf.speedup",
        serial_total / par_total.max(f64::MIN_POSITIVE),
    );
    result.note("parallel_nodes", par_n);
    result.note("parallel_seeds", par_seeds);
    let ((plan_ms, imbalance, bucket, merge), _) = trace.span("parbuf.probe", None, |_, _| {
        parbuf_probe(&big, 2, sigma, protocol.initial_letter())
    });
    result.set("parbuf.shardplan_ms", plan_ms);
    result.set("parbuf.shard_slot_imbalance", imbalance);
    result.set("parbuf.bucket_ns_per_slot", bucket);
    result.set("parbuf.merge_ns_per_slot", merge);
    result.spans = trace.spans;
    result
}

/// The paper's asynchronous pipeline: MIS → single letter → synchronizer.
type AsyncMis = Synchronized<SingleLetter<MisProtocol>>;

/// One solved async seed: `(seconds, time_units, steps, deliveries, lost)`.
type AsyncRun = (f64, f64, u64, u64, u64);

fn gated_async_run<P>(
    result: &mut RunResult,
    protocol: &P,
    graph: &Graph,
    seed: u64,
    adversary: &dyn stoneage_sim::Adversary,
) -> Option<AsyncRun>
where
    P: stoneage_core::Fsm,
{
    let start = Instant::now();
    let run = Simulation::asynchronous(protocol, graph, adversary)
        .seed(seed)
        .run();
    let seconds = start.elapsed().as_secs_f64();
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            result.gate.record(Some(format!("seed {seed}: {e}")), false);
            return None;
        }
    };
    let Detail::Async {
        total_steps,
        deliveries,
        lost_overwrites,
        ..
    } = outcome.detail
    else {
        result
            .gate
            .record(Some(format!("seed {seed}: not an async outcome")), true);
        return None;
    };
    let valid = validate::is_maximal_independent_set(graph, &decode_mis(&outcome.outputs));
    let failure = (!valid).then(|| format!("seed {seed}: output is not an MIS"));
    result.gate.record(failure, !valid);
    Some((
        seconds,
        outcome.cost.value(),
        total_steps,
        deliveries,
        lost_overwrites,
    ))
}

/// `async-mis`.
pub fn async_mis(cfg: &Config) -> RunResult {
    let mut result = RunResult::default();
    let mut trace = Trace::new(Instant::now());
    let n = match cfg.scale {
        Scale::Full => 16,
        Scale::Tiny => 12,
    };
    let (graphs, mut setup) = Setup::start(n, cfg.seed, ASYNC_GRAPH, &mut trace);
    result.note("nodes", n);
    result.note("graphs", GRAPHS);
    let seed_of = |i: u64| derive(cfg.seed, ASYNC_RUN, i);
    let graph_of = |i: u64| &graphs[i as usize % GRAPHS];
    let adversary_of = |i: u64| UniformRandom {
        seed: derive(cfg.seed, ASYNC_ADVERSARY, i),
    };
    let protocol: AsyncMis = Synchronized::new(SingleLetter::new(MisProtocol::new()));

    if !cfg.trace {
        let jobs = measured_loop(cfg, &mut result, &mut setup, |result, i| {
            let (seconds, units, steps, deliveries, _) =
                gated_async_run(result, &protocol, graph_of(i), seed_of(i), &adversary_of(i))?;
            Some(Job {
                seconds,
                cost: units,
                events: (steps + deliveries) as f64,
            })
        });
        end_to_end(&mut result, &jobs, setup.median());
        return result;
    }

    let seeds = match cfg.scale {
        Scale::Full => 8,
        Scale::Tiny => 2,
    };
    let clock_ns = clock_overhead_ns();
    let traced_protocol = CountingFsm::new(Synchronized::new(SingleLetter::new(
        CountingMulti::new(MisProtocol::new()),
    )));
    let (mut untraced_total, mut traced_total) = (0.0, 0.0);
    let (mut steps, mut deliveries, mut lost, mut units, mut draws) = (0u64, 0u64, 0u64, 0.0, 0u64);
    let mut run_s = Vec::new();
    for i in 0..seeds {
        let graph = graph_of(i);
        let plain = gated_async_run(&mut result, &protocol, graph, seed_of(i), &adversary_of(i));
        let adversary = CountingAdversary::new(adversary_of(i));
        let (traced, _) = trace.span("seed", None, |t, parent| {
            t.span("sim.run", Some(parent), |_, _| {
                gated_async_run(&mut result, &traced_protocol, graph, seed_of(i), &adversary)
            })
            .0
        });
        let (Some(plain), Some(traced)) = (plain, traced) else {
            continue;
        };
        if (plain.1, plain.2, plain.3) != (traced.1, traced.2, traced.3) {
            result
                .gate
                .record(Some(format!("seed {i}: traced run differs")), true);
        }
        untraced_total += plain.0;
        traced_total += traced.0;
        run_s.push(traced.0);
        units += traced.1;
        steps += traced.2;
        deliveries += traced.3;
        lost += traced.4;
        draws += adversary.draws();
    }
    result.set(
        "trace_overhead",
        traced_total / untraced_total.max(f64::MIN_POSITIVE),
    );
    result.set("graph.build_s", setup.median());
    result.set("sim.run_s", median(&run_s));
    result.set("async.steps", steps as f64);
    result.set("async.deliveries", deliveries as f64);
    result.set("async.lost_frac", lost as f64 / deliveries.max(1) as f64);
    result.set("async.time_units", units);
    result.set(
        "async.host_ns_per_step",
        untraced_total * 1e9 / steps.max(1) as f64,
    );
    result.set(
        "core.synchronized_delta_calls",
        traced_protocol.stats.calls() as f64,
    );
    result.set(
        "core.synchronized_delta_ns",
        traced_protocol.stats.mean_ns(clock_ns),
    );
    let inner = traced_protocol.inner().inner().inner();
    result.set("protocols.delta_calls", inner.stats.calls() as f64);
    result.set("protocols.delta_ns", inner.stats.mean_ns(clock_ns));
    result.set("adversary.draws", draws as f64);
    result.note("traced_seeds", seeds);

    let graph = &graphs[0];
    let adversary = adversary_of(0);
    let (draw_ns, _) = trace.span("adversary.probe", None, |_, _| {
        adversary_probe(graph, &adversary)
    });
    result.set("adversary.draw_ns", draw_ns);
    let (push_pop, _) = trace.span("schedule.probe", None, |_, _| {
        schedule_probe(graph, &adversary, 2_000_000)
    });
    result.set("schedule.push_pop_ns", push_pop);
    let ((init, bcast, obs), _) = trace.span("engine.probe", None, |_, _| {
        engine_probe(
            graph,
            protocol.alphabet().len(),
            protocol.initial_letter(),
            protocol.bound(),
        )
    });
    result.set("engine.init_ms", init);
    result.set("engine.broadcast_ns_per_slot", bcast);
    result.set("engine.observe_ns_per_node", obs);
    result.spans = trace.spans;
    result
}
