//! `perfbench`: the OFTT benchmark. One command, two workloads, every
//! end-to-end metric by name with its unit, correctness checked.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run measures all four stages — the checkpoint stream, the
//! resync path, the simulated demo campaign and the real-process
//! failover — because every run reports every end-to-end metric. The
//! stages are interleaved in slots so each samples the host across the
//! whole run. The workload sets the application's write load: how many
//! variables each checkpoint carries in the stream and in the node pairs.
//! With `--trace 1` the run measures exactly as untraced and reports its
//! latency figures from those untraced phases; each slot then repeats its
//! heavy window, resync batch and campaign rounds with allocation counting
//! or span tracing on, for the per-layer metrics and the tracing overhead.
//!
//! The last line of stdout is the result object; earlier lines give the
//! host facts and each percentile's sample count. See `README.md`.

mod ckpt;
mod metrics;
mod node;
mod procfs;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ckpt::{Phase, Topology};
use metrics::{Values, END_TO_END, PER_LAYER};
use stats::{median, pct};
use trace::{self_times_us, Span, Tracer};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// A workload: the application's write load. Every run measures every
/// stage; the workload sets how many of the 10k × 64 B variables each
/// checkpoint carries, in the in-process stream and in the node pairs.
struct Workload {
    name: &'static str,
    /// Variables each streamed checkpoint dirties.
    delta_vars: usize,
    /// Variables each `oftt-node` dirties per 20 ms tick (five ticks per
    /// 100 ms checkpoint).
    node_dirty_per_tick: usize,
    /// The stream capacity of the seed commit at this delta on the
    /// reference host (2 cores), fixed once from its measured runs. The
    /// reference rates, the ladder and the saturating burst derive from
    /// it, never from a run's own measurements.
    seed_capacity: f64,
    /// A window whose generator posted later than this at p99 measured
    /// the host's scheduling more than the program: it is invalid. On 2
    /// cores the 10% delta's checkpoint work (about 4 ms of ship and 1 ms
    /// of install CPU each) delays the generator's wake-ups by several ms
    /// by itself, so its limit is the ack limit: a later generator could
    /// not tell whether the system met it.
    gen_late_limit_us: f64,
}

impl Workload {
    /// Reference rates: a quarter and three quarters of the seed capacity.
    fn light_rate(&self) -> f64 {
        0.25 * self.seed_capacity
    }

    fn heavy_rate(&self) -> f64 {
        0.75 * self.seed_capacity
    }
}

const WORKLOADS: [Workload; 2] = [
    // The acceptance delta: 1% per checkpoint (~7.9 KB frames), where the
    // per-message costs of the wire runtime and actor host are about a
    // quarter of the ship path at the seed. Seed capacity: ladder maxima of 2,300–2,850 ckpt/s on calm runs.
    Workload {
        name: "delta-1pct",
        delta_vars: 100,
        node_dirty_per_tick: 20,
        seed_capacity: 2_700.0,
        gen_late_limit_us: 2_000.0,
    },
    // 10% per checkpoint (~78 KB frames), where per-variable and per-byte
    // work (capture, digests, marshalling, install) is about nine tenths
    // of the ship path at the seed. Seed capacity: saturating bursts of 260–300 ckpt/s on calm
    // runs.
    Workload {
        name: "delta-10pct",
        delta_vars: 1_000,
        node_dirty_per_tick: 200,
        seed_capacity: 290.0,
        gen_late_limit_us: ACK_P99_LIMIT_US,
    },
];

/// Ladder rates as multiples of the seed capacity, from 0.25× to 2.4×.
const LADDER: [f64; 16] =
    [0.25, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2, 1.35, 1.5, 1.75, 2.0, 2.4];
/// Length of one ladder step.
const LADDER_STEP: Duration = Duration::from_millis(300);
/// A ladder step passes when its ack p99 is within this limit (a tenth
/// of the 100 ms checkpoint period) …
const ACK_P99_LIMIT_US: f64 = 10_000.0;
/// … and at most this share of a second's commands is still unacked
/// when posting stops.
const BACKLOG_LIMIT_S: f64 = 0.01;
/// Posting stops once this many commands are outstanding.
const BACKLOG_CAP: u64 = 20_000;
/// A saturating burst holds this many seconds of work at the seed
/// capacity, posted as fast as the generator can: the backlog is full
/// from the first post on, whatever the program's capacity.
const BURST_S: f64 = 1.0;
/// The offered rate of a burst; far above any capacity the path can
/// reach, so posting ends within milliseconds.
const BURST_RATE: f64 = 1e6;
/// Length of the light and heavy windows.
const LIGHT_WINDOW: Duration = Duration::from_millis(1_500);
const HEAVY_WINDOW: Duration = Duration::from_millis(1_000);
/// A phase during which the hypervisor took more than this share of the
/// guest's CPU time (`steal`) measured the host, not the program.
const STEAL_LIMIT: f64 = 0.015;

/// Full in-process set-ups in each slot, besides the one that starts the
/// run; `setup_s` is the median over all of them.
const SETUPS_PER_SLOT: usize = 4;
/// Resync images per slot run for this long.
const RESYNC_PER_SLOT: Duration = Duration::from_millis(300);
/// Resync images: at least this many left after the steal filter.
const MIN_RESYNC: usize = 20;
/// Steady phase of each failover cycle.
const NODE_STEADY: Duration = Duration::from_millis(1_000);
/// Runs per scenario whose `check_all` is timed apart (traced runs).
const INVARIANT_SAMPLES: usize = 4;

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(WORKLOADS.iter().position(|w| w.name == value).ok_or_else(|| {
                        format!("unknown workload {value:?}; one of {}", names().join(", "))
                    })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What a run found besides its metrics.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// The run as interleaved slots, so every stage samples the host across
/// the whole run rather than one stretch of it. Each stage's total is
/// spread evenly over the slots (the single ladder ascent lands in the
/// last). The counts are the same for every workload.
struct Plan {
    /// Each slot runs one light and one heavy window, one saturating
    /// burst, one resync batch and one kill cycle.
    slots: usize,
    sim_rounds: usize,
}

impl Plan {
    /// Five slots and two campaign passes per 45 s.
    fn new(seconds: f64) -> Plan {
        let slots = ((5.0 * seconds / 45.0).round() as usize).max(3);
        let passes = (2.0 * slots as f64 / 5.0).round().max(1.0) as usize;
        Plan { slots, sim_rounds: passes * sim::ROUNDS_PER_PASS }
    }

    /// How many of `total` tasks slot `j` runs.
    fn share(&self, total: usize, j: usize) -> usize {
        (j + 1) * total / self.slots - j * total / self.slots
    }
}

/// Prints a percentile with its sample count; returns the value.
fn report(name: &str, samples: &[f64], p: f64, unit: &str) -> f64 {
    let q = pct(samples, p);
    println!("{name} = {:.3} {unit} (p{p}, n={})", q.value, q.n);
    q.value
}

fn late_p99(phase: &Phase) -> f64 {
    pct(&phase.late_us, 99.0).value
}

/// `true` when `steal` ticks over `wall` stay within `STEAL_LIMIT` of
/// the guest's CPU time (two ticks are always allowed).
fn steal_ok(steal: u64, wall: Duration, ncpu: usize) -> bool {
    steal as f64 <= (wall.as_secs_f64() * ncpu as f64 * 100.0 * STEAL_LIMIT).max(2.0)
}

/// `true` when the host let a window run: the generator kept to its
/// schedule and the hypervisor took little of the CPU.
fn host_ok(phase: &Phase, wl: &Workload, ncpu: usize) -> bool {
    late_p99(phase) <= wl.gen_late_limit_us && steal_ok(phase.steal, phase.wall, ncpu)
}

/// One reference rate's windows.
#[derive(Default)]
struct Windows {
    phases: Vec<Phase>,
    /// Indexes of the windows the figures come from.
    chosen: Vec<usize>,
}

impl Windows {
    /// Chooses `k` windows: valid ones first, then the least host steal.
    fn choose(&mut self, k: usize, wl: &Workload, ncpu: usize) {
        let mut order: Vec<usize> = (0..self.phases.len()).collect();
        order.sort_by_key(|&i| (!host_ok(&self.phases[i], wl, ncpu), self.phases[i].steal, i));
        order.truncate(k);
        order.sort_unstable();
        self.chosen = order;
    }

    fn chosen(&self) -> impl Iterator<Item = &Phase> + '_ {
        self.chosen.iter().map(|&i| &self.phases[i])
    }

    /// The median over the chosen windows of each window's percentile.
    fn report(&self, name: &str, p: f64) -> f64 {
        let each: Vec<f64> = self.chosen().map(|w| pct(w.latencies(), p).value).collect();
        let value = median(&each);
        let shown: Vec<String> = self
            .chosen()
            .map(|w| format!("{:.0}(n={})", pct(w.latencies(), p).value, w.latencies().len()))
            .collect();
        println!(
            "{name} = {value:.3} us (median of {} windows' p{p}, {} measured: {})",
            each.len(),
            self.phases.len(),
            shown.join(" ")
        );
        value
    }
}

/// Measures one open-loop phase and books its commands.
fn measure(topo: &mut Topology, rate: f64, dur: Duration, tally: &mut Tally) -> Phase {
    let phase = topo.stream(rate, dur, BACKLOG_CAP, |_| {});
    tally.attempted += phase.posted;
    tally.failed += phase.unacked;
    phase
}

/// One reference window, measured once more if the host spoiled it and
/// the run is not yet past its retry deadline.
fn window(
    topo: &mut Topology,
    wl: &Workload,
    rate: f64,
    dur: Duration,
    ncpu: usize,
    retry_until: Instant,
    tally: &mut Tally,
) -> Vec<Phase> {
    let first = measure(topo, rate, dur, tally);
    if host_ok(&first, wl, ncpu) || Instant::now() > retry_until {
        vec![first]
    } else {
        vec![first, measure(topo, rate, dur, tally)]
    }
}

/// A ladder step passes with its p99 within the limit and the backlog
/// drained as it was offered.
fn step_ok(phase: &Phase) -> bool {
    !phase.capped
        && phase.unacked == 0
        && !phase.latencies().is_empty()
        && pct(phase.latencies(), 99.0).value <= ACK_P99_LIMIT_US
        && (phase.backlog_at_end as f64) <= (phase.rate * BACKLOG_LIMIT_S).max(16.0)
}

/// Ack throughput with the path saturated, over the CPU time the
/// hypervisor left the guest: the ship process is busy throughout, so a
/// share `s` of CPU time stolen slows it by `1 - s` whatever the program
/// does. A burst of `BURST_S` seconds of seed-capacity work is posted at
/// once, so the backlog is never empty from the first post to the last
/// ack, and commands over that time is the path's service rate. A burst
/// whose backlog had half emptied before posting stopped is flagged.
fn saturate(topo: &mut Topology, wl: &Workload, ncpu: usize, tally: &mut Tally) -> f64 {
    let burst = Duration::from_secs_f64(wl.seed_capacity * BURST_S / BURST_RATE);
    let phase = measure(topo, BURST_RATE, burst, tally);
    if phase.backlog_at_end * 2 < phase.posted {
        println!(
            "INVALID: saturating burst not saturated ({} of {} commands outstanding when posting \
             stopped); ckpt_capacity_per_s under-reads",
            phase.backlog_at_end, phase.posted
        );
    }
    let wall = phase.wall.as_secs_f64();
    let stolen = (phase.steal as f64 / (wall * 100.0 * ncpu as f64)).min(0.9);
    (phase.posted - phase.unacked) as f64 / (wall * (1.0 - stolen))
}

/// The highest ladder rate met. Each step gets two tries that the host
/// did not spoil (at most four tries in all, and no spoiled try counts
/// past the retry deadline); a step missed on every try ends the ladder.
/// Generator lateness is no test here: near capacity the generator shares
/// the saturated cores by design.
fn ladder(
    topo: &mut Topology,
    wl: &Workload,
    ncpu: usize,
    retry_until: Instant,
    tally: &mut Tally,
) -> f64 {
    let mut max_rate = 0.0f64;
    'steps: for factor in LADDER {
        let (mut valid_tries, mut tries) = (0, 0);
        while valid_tries < 2 && tries < 4 {
            let phase = measure(topo, wl.seed_capacity * factor, LADDER_STEP, tally);
            tries += 1;
            let valid = steal_ok(phase.steal, phase.wall, ncpu);
            let ok = step_ok(&phase);
            eprintln!(
                "ladder {:>6.0}/s: {} (p99 {:.0} us, n={}, backlog {}, steal {})",
                phase.rate,
                if ok {
                    "met"
                } else if valid {
                    "missed"
                } else {
                    "missed, host-stalled"
                },
                pct(phase.latencies(), 99.0).value,
                phase.latencies().len(),
                phase.backlog_at_end,
                phase.steal
            );
            if ok {
                max_rate = phase.rate;
                continue 'steps;
            }
            valid_tries += usize::from(valid || Instant::now() > retry_until);
        }
        break;
    }
    max_rate
}

/// ckpt-stream counters read around the counted heavy windows (traced
/// runs).
#[derive(Default)]
struct StreamCounters {
    ckpts: u64,
    bytes: u64,
    allocs: u64,
    trace_entries: u64,
    pool_takes: u64,
    pool_hits: u64,
    wall_ms: f64,
    cpu_ms: std::collections::HashMap<&'static str, f64>,
}

/// A snapshot of the counters [`StreamCounters`] accumulates.
struct Snapshot {
    at: Instant,
    acked: u64,
    bytes: u64,
    allocs: u64,
    trace_entries: u64,
    pool: (u64, u64),
    cpu: std::collections::HashMap<u64, (String, f64)>,
}

impl Snapshot {
    fn take(topo: &Topology) -> Snapshot {
        Snapshot {
            at: Instant::now(),
            acked: topo.acked(),
            bytes: topo.a().health().iter().map(|h| h.bytes_out).sum(),
            allocs: trace::allocs(),
            trace_entries: (topo.a().trace_snapshot().entries().len()
                + topo.b().trace_snapshot().entries().len()) as u64,
            pool: topo.a().pool_stats().map_or((0, 0), |p| (p.takes, p.hits)),
            cpu: procfs::threads_cpu_ms("self"),
        }
    }
}

impl StreamCounters {
    fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        self.ckpts += after.acked - before.acked;
        self.bytes += after.bytes - before.bytes;
        self.allocs += after.allocs - before.allocs;
        self.trace_entries += after.trace_entries - before.trace_entries;
        self.pool_takes += after.pool.0 - before.pool.0;
        self.pool_hits += after.pool.1 - before.pool.1;
        self.wall_ms += (after.at - before.at).as_secs_f64() * 1000.0;
        let by_class = procfs::cpu_delta_by_class(&before.cpu, &after.cpu, |name| {
            if name.starts_with("wire-reactor") {
                "reactor"
            } else if name.starts_with("perfbench-gen") {
                "gen"
            } else {
                "actor"
            }
        });
        for (class, ms) in by_class {
            *self.cpu_ms.entry(class).or_insert(0.0) += ms;
        }
    }
}

/// Everything the slots collect.
#[derive(Default)]
struct Collected {
    light: Windows,
    heavy: Windows,
    max_rate: f64,
    /// Steal-corrected ack throughput of each saturating burst.
    capacity: Vec<f64>,
    resync: Vec<(f64, u64)>,
    passes: Vec<(Vec<oftt_campaign::RunRecord>, Vec<sim::Round>)>,
    cycles: Vec<node::Cycle>,
    // Traced runs only.
    /// Counters over the heavy windows run with allocation counting on.
    counters: StreamCounters,
    /// Each slot's heavy-window ack p50, untraced and traced, in µs.
    heavy_pairs: Vec<(f64, f64)>,
    /// Spans of each traced heavy window, with whether the host left it
    /// alone.
    heavy_spans: Vec<(bool, Vec<Span>)>,
    /// Resync latencies of the traced batches, µs.
    resync_traced: Vec<f64>,
    resync_spans: Vec<Span>,
    /// Each campaign round's wall time, untraced and traced.
    sim_pairs: Vec<(Duration, Duration)>,
    sim_spans: Vec<Span>,
}

/// Runs `f` with span recording on.
fn traced<T>(tracer: &Tracer, f: impl FnOnce() -> T) -> (T, Vec<Span>) {
    tracer.set_enabled(true);
    let out = f();
    tracer.set_enabled(false);
    (out, tracer.take())
}

/// Runs every stage and fills `v` with every end-to-end and (when
/// traced) per-layer metric.
fn run(args: &Args, v: &mut Values, tally: &mut Tally) -> Result<(), String> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe.parent().and_then(|p| p.parent()).ok_or("no target directory")?;
    let out_dir = target.join("perfbench-out");
    let run_dir = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let node_bin = node::node_bin()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let jobs = nproc.min(2);
    let wl = &WORKLOADS[args.workload];
    let plan = Plan::new(args.seconds);

    // Set-up: link up with B holding a full base image, and the corpus
    // loaded and expanded. It is repeated in every slot, so that its
    // median samples the host across the run.
    let tracer = Arc::new(Tracer::new(false));
    let mut setups = Vec::new();
    let mut expand_us = Vec::new();
    let mut set_up = || -> Result<(Topology, Vec<oftt_campaign::Scenario>), String> {
        let t0 = Instant::now();
        let topo = Topology::up(args.seed, wl.delta_vars, Arc::clone(&tracer), None)?;
        let corpus = sim::load_corpus(&manifest.join("scenarios"))?;
        for sc in sim::with_span(&corpus, args.seed, 0) {
            for &s in &sc.seeds {
                let t = Instant::now();
                std::hint::black_box(oftt_campaign::expand(&sc, s));
                expand_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        setups.push(t0.elapsed().as_secs_f64());
        Ok((topo, corpus))
    };
    let (mut topo, corpus) = set_up()?;
    let (io_a, io_b) = topo.io_threads();
    println!(
        "host: nproc={nproc} io_threads(A)={io_a} io_threads(B)={io_b} io_threads(oftt-node)={} \
         generator_threads=1 generator_connections=1 sim_jobs={jobs} workload={} delta_vars={} \
         node_dirty_per_tick={} seed={} seconds={} trace={} slots={}",
        node::NODE_IO_THREADS,
        wl.name,
        wl.delta_vars,
        wl.node_dirty_per_tick,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        plan.slots
    );

    // Host-spoiled windows and ladder tries are measured again only until
    // the run reaches its nominal length.
    let retry_until = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut c = Collected::default();
    let mut pass_records = Vec::new();
    let mut pass_rounds = Vec::new();
    let mut round_index = 0usize;
    // Seconds spent in the stream, resync, campaign and node stages.
    let mut stage_s = [0.0f64; 4];
    for j in 0..plan.slots {
        for _ in 0..SETUPS_PER_SLOT {
            set_up()?.0.shutdown();
        }
        let t = Instant::now();
        c.light.phases.extend(window(
            &mut topo,
            wl,
            wl.light_rate(),
            LIGHT_WINDOW,
            nproc,
            retry_until,
            tally,
        ));
        let heavy = window(&mut topo, wl, wl.heavy_rate(), HEAVY_WINDOW, nproc, retry_until, tally);
        let untraced_p50 = heavy.last().map_or(f64::NAN, |w| pct(w.latencies(), 50.0).value);
        c.heavy.phases.extend(heavy);
        if args.trace {
            // The same window with allocation counting on, for the
            // counters, then with span tracing on, for the spans.
            let before = Snapshot::take(&topo);
            trace::set_counting(true);
            let counted = measure(&mut topo, wl.heavy_rate(), HEAVY_WINDOW, tally);
            trace::set_counting(false);
            c.counters.add(&before, &Snapshot::take(&topo));
            // The generator thread exits with its window; it reads its
            // own CPU time before it goes.
            *c.counters.cpu_ms.entry("gen").or_insert(0.0) += counted.gen_cpu_ms;
            let (phase, spans) =
                traced(&tracer, || measure(&mut topo, wl.heavy_rate(), HEAVY_WINDOW, tally));
            c.heavy_pairs.push((untraced_p50, pct(phase.latencies(), 50.0).value));
            c.heavy_spans.push((host_ok(&phase, wl, nproc), spans));
        }
        c.capacity.push(saturate(&mut topo, wl, nproc, tally));
        if j + 1 == plan.slots {
            c.max_rate = ladder(&mut topo, wl, nproc, retry_until, tally);
        }
        stage_s[0] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        c.resync.extend(topo.resync(1, RESYNC_PER_SLOT)?);
        if args.trace {
            let (resync, spans) = traced(&tracer, || topo.resync(1, RESYNC_PER_SLOT));
            c.resync_traced.extend(resync?.into_iter().map(|(us, _)| us));
            c.resync_spans.extend(spans);
        }
        stage_s[1] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..plan.share(plan.sim_rounds, j) {
            let pass = (round_index / sim::ROUNDS_PER_PASS) as u64;
            let r = round_index % sim::ROUNDS_PER_PASS;
            let (records, round) = sim::round(&corpus, args.seed, pass, r, jobs, None);
            if args.trace {
                // The same round again through the traced pool: its
                // outcomes must match the untraced ones exactly.
                let ((again, traced_round), spans) = traced(&tracer, || {
                    sim::round(&corpus, args.seed, pass, r, jobs, Some(&*tracer))
                });
                c.sim_spans.extend(spans);
                c.sim_pairs.push((round.wall, traced_round.wall));
                tally.attempted += again.len() as u64;
                let differ = records
                    .iter()
                    .zip(&again)
                    .filter(|(x, y)| {
                        (x.scenario, x.seed, &x.outcome) != (y.scenario, y.seed, &y.outcome)
                    })
                    .count()
                    + records.len().abs_diff(again.len());
                tally.failed += differ as u64;
                tally.check(differ == 0, || {
                    format!("{differ} traced campaign runs differ from their untraced runs")
                });
            }
            pass_records.extend(records);
            pass_rounds.push(round);
            round_index += 1;
            if r + 1 == sim::ROUNDS_PER_PASS {
                c.passes
                    .push((std::mem::take(&mut pass_records), std::mem::take(&mut pass_rounds)));
            }
        }
        stage_s[2] += t.elapsed().as_secs_f64();
        let t = Instant::now();
        tally.attempted += 1;
        match node::cycle(
            &node_bin,
            &run_dir,
            args.seed,
            j as u64,
            wl.node_dirty_per_tick,
            NODE_STEADY,
        ) {
            Ok(cycle) => c.cycles.push(cycle),
            Err(e) => {
                tally.failed += 1;
                tally.problems.push(format!("kill cycle {j}: {e}"));
            }
        }
        stage_s[3] += t.elapsed().as_secs_f64();
    }
    let _ = std::fs::remove_dir_all(&run_dir);
    v.set("setup_s", median(&setups));
    let setup_ms: Vec<String> = setups.iter().map(|s| format!("{:.0}", s * 1000.0)).collect();
    println!(
        "setup_s = {:.4} s (median of {} set-ups, ms: {})",
        median(&setups),
        setups.len(),
        setup_ms.join(" ")
    );
    eprintln!(
        "stage seconds: set-up {:.1}, stream {:.1}, resync {:.1}, campaign {:.1}, node {:.1}",
        setups.iter().sum::<f64>(),
        stage_s[0],
        stage_s[1],
        stage_s[2],
        stage_s[3]
    );

    // Correctness of the checkpoint path.
    let errors = topo.errors();
    tally.failed += errors;
    tally.check(errors == 0, || {
        format!("{errors} checkpoints refused, misordered, or crc-mismatched")
    });
    tally.check(topo.images_agree(), || "B's final image differs from A's".into());
    tally.attempted += (c.resync.len() + c.resync_traced.len()) as u64;

    // ckpt-stream: an odd number of windows per rate (the slot count, or
    // one fewer), valid ones first.
    let k = if plan.slots % 2 == 1 { plan.slots } else { plan.slots - 1 };
    for (name, w) in [("light", &mut c.light), ("heavy", &mut c.heavy)] {
        w.choose(k, wl, nproc);
        let invalid = w.chosen().filter(|p| !host_ok(p, wl, nproc)).count();
        if invalid > 0 {
            let late = w.chosen().map(late_p99).fold(0.0, f64::max);
            println!(
                "INVALID: ckpt-stream {name}: {invalid} of {k} windows had a late generator (worst p99 \
                 {late:.0} us) or host steal; these figures measure the host, not the program"
            );
        }
    }
    v.set("ckpt_ack_p50_us.light", c.light.report("ckpt_ack_p50_us.light", 50.0));
    v.set("ckpt_ack_p99_us.light", c.light.report("ckpt_ack_p99_us.light", 99.0));
    v.set("ckpt_ack_p50_us.heavy", c.heavy.report("ckpt_ack_p50_us.heavy", 50.0));
    v.set("ckpt_ack_p99_us.heavy", c.heavy.report("ckpt_ack_p99_us.heavy", 99.0));
    v.set("ckpt_max_rate_per_s", c.max_rate);
    println!("ckpt_max_rate_per_s = {} ckpt/s", c.max_rate);
    v.set("ckpt_capacity_per_s", median(&c.capacity));
    println!(
        "ckpt_capacity_per_s = {:.1} ckpt/s (median of {} saturating bursts: {:.0?})",
        median(&c.capacity),
        c.capacity.len(),
        c.capacity
    );

    // ckpt-resync: images the host stole CPU from are left out when
    // enough others remain.
    let unstolen: Vec<f64> =
        c.resync.iter().filter(|(_, steal)| *steal == 0).map(|(us, _)| us / 1000.0).collect();
    let resync_ms = if unstolen.len() >= MIN_RESYNC {
        unstolen
    } else {
        c.resync.iter().map(|(us, _)| us / 1000.0).collect()
    };
    v.set("resync_ms_p50", report("resync_ms_p50", &resync_ms, 50.0, "ms"));
    v.set("resync_ms_p95", report("resync_ms_p95", &resync_ms, 95.0, "ms"));

    // sim-demo: the median over rounds of each round's rate over the CPU
    // time the hypervisor left the guest. The rounds keep every core busy,
    // so a share `s` of the guest's CPU time stolen stretches a round by
    // 1 / (1 - s) whatever the program does.
    let rates: Vec<f64> = c
        .passes
        .iter()
        .flat_map(|(_, rounds)| rounds)
        .map(|r| {
            let wall = r.wall.as_secs_f64();
            let stolen = (r.steal as f64 / (wall * 100.0 * nproc as f64)).min(0.9);
            r.runs as f64 / (wall * (1.0 - stolen))
        })
        .collect();
    let runs: usize = c.passes.iter().map(|(records, _)| records.len()).sum();
    v.set("sim_runs_per_s", median(&rates));
    println!(
        "sim_runs_per_s = {:.3} runs/s (median of {} rounds, steal-corrected; {runs} runs in {} passes)",
        median(&rates),
        rates.len(),
        c.passes.len()
    );
    tally.attempted += runs as u64;
    for (pass, (records, _)) in c.passes.iter().enumerate() {
        let failures = sim::gate(&sim::with_span(&corpus, args.seed, pass as u64), records);
        tally.failed += failures.len() as u64;
        tally.problems.extend(failures.into_iter().map(|f| format!("corpus gate: {f}")));
    }

    // node-failover.
    let col = |f: fn(&node::Cycle) -> f64| c.cycles.iter().map(f).collect::<Vec<f64>>();
    let steady_ms: f64 = c.cycles.iter().map(|c| c.steady_s * 1000.0).sum();
    let cpu_p: f64 = c.cycles.iter().map(|c| c.cpu_ms_primary).sum();
    let cpu_b: f64 = c.cycles.iter().map(|c| c.cpu_ms_backup).sum();
    v.set("failover_ms_p50", report("failover_ms_p50", &col(|c| c.failover_ms), 50.0, "ms"));
    v.set("node_cpu_pct", 100.0 * (cpu_p + cpu_b) / steady_ms);
    v.set("node_rss_mb", median(&col(|c| c.rss_kb_end)) / 1024.0);
    println!(
        "node_cpu_pct = {:.3} % over {} cycles",
        100.0 * (cpu_p + cpu_b) / steady_ms,
        c.cycles.len()
    );

    if args.trace {
        per_layer(args, wl, v, tally, &c, &corpus, &expand_us, &out_dir)?;
    }
    topo.shutdown();
    Ok(())
}

/// Fills the per-layer metrics of a traced run and writes its spans.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    args: &Args,
    wl: &Workload,
    v: &mut Values,
    tally: &Tally,
    c: &Collected,
    corpus: &[oftt_campaign::Scenario],
    expand_us: &[f64],
    out_dir: &std::path::Path,
) -> Result<(), String> {
    let late: Vec<f64> =
        c.light.chosen().chain(c.heavy.chosen()).flat_map(|w| w.late_us.iter().copied()).collect();
    v.set("gen.late_p99_us", report("gen.late_p99_us", &late, 99.0, "us"));

    // Spans from the windows the host left alone, if there were any.
    let any_valid = c.heavy_spans.iter().any(|(valid, _)| *valid);
    let heavy_spans: Vec<Span> = c
        .heavy_spans
        .iter()
        .filter(|(valid, _)| *valid || !any_valid)
        .flat_map(|(_, spans)| spans.iter().cloned())
        .collect();
    let stream = self_times_us(&heavy_spans);
    let get = |name: &str| stream.get(name).cloned().unwrap_or_default();
    let post_wait = get("ds-net.post_wait");
    v.set("ds-net.post_wait_us_p50", report("ds-net.post_wait_us_p50", &post_wait, 50.0, "us"));
    v.set("ds-net.post_wait_us_p99", report("ds-net.post_wait_us_p99", &post_wait, 99.0, "us"));
    v.set("oftt-wire.send_us", report("oftt-wire.send_us", &get("oftt-wire.send"), 50.0, "us"));
    let fwd = get("oftt-wire.fwd_transit");
    v.set("oftt-wire.fwd_transit_us_p50", report("oftt-wire.fwd_transit_us_p50", &fwd, 50.0, "us"));
    v.set("oftt-wire.fwd_transit_us_p99", report("oftt-wire.fwd_transit_us_p99", &fwd, 99.0, "us"));
    let ack = get("oftt-wire.ack_transit");
    v.set("oftt-wire.ack_transit_us_p50", report("oftt-wire.ack_transit_us_p50", &ack, 50.0, "us"));

    let resync = self_times_us(&c.resync_spans);
    for (span, metric) in [
        ("oftt.checkpoint.capture", "oftt.checkpoint.capture_us"),
        ("oftt.checkpoint.seal", "oftt.checkpoint.seal_us"),
        ("oftt.checkpoint.offer", "oftt.checkpoint.offer_us"),
    ] {
        v.set(metric, report(metric, &resync.get(span).cloned().unwrap_or_default(), 50.0, "us"));
    }

    let n = &c.counters;
    let ckpts = n.ckpts.max(1) as f64;
    v.set("oftt-wire.bytes_per_ckpt", n.bytes as f64 / ckpts);
    v.set("comsim.pool_hit_pct", 100.0 * n.pool_hits as f64 / n.pool_takes.max(1) as f64);
    v.set("oftt-wire.trace_entries_per_ckpt", n.trace_entries as f64 / ckpts);
    v.set("proc.allocs_per_ckpt", n.allocs as f64 / ckpts);
    for (class, metric) in
        [("reactor", "cpu.reactor_pct"), ("actor", "cpu.actor_pct"), ("gen", "cpu.gen_pct")]
    {
        v.set(metric, 100.0 * n.cpu_ms.get(class).copied().unwrap_or(0.0) / n.wall_ms.max(1.0));
    }

    // Link health and queue depth, sampled every 5 ms under the heavy
    // rate on a fresh pair.
    let mut topo = Topology::up(args.seed, wl.delta_vars, Arc::new(Tracer::new(false)), None)?;
    let mut queued_max = 0u64;
    let phase = topo.stream(wl.heavy_rate(), Duration::from_millis(500), BACKLOG_CAP, |t| {
        queued_max = queued_max.max(t.a().health().iter().map(|h| h.queued).max().unwrap_or(0));
    });
    let health: Vec<_> = topo.a().health().into_iter().chain(topo.b().health()).collect();
    topo.shutdown();
    v.set("oftt-wire.queued_max", queued_max as f64);
    v.set("oftt-wire.dropped_frames", health.iter().map(|h| h.dropped_frames).sum::<u64>() as f64);
    v.set("oftt-wire.purged", health.iter().map(|h| h.purged).sum::<u64>() as f64);
    println!(
        "oftt-wire.queued_max = {queued_max} frames (sampled every 5 ms over {} commands)",
        phase.posted
    );

    let sim_self = self_times_us(&c.sim_spans);
    let sget = |name: &str| sim_self.get(name).cloned().unwrap_or_default();
    let to_ms = |xs: Vec<f64>| xs.into_iter().map(|x| x / 1000.0).collect::<Vec<_>>();
    v.set("oftt-campaign.expand_us", report("oftt-campaign.expand_us", expand_us, 50.0, "us"));
    v.set(
        "oftt-check.run_script_ms",
        report("oftt-check.run_script_ms", &to_ms(sget("oftt-check.run_script")), 50.0, "ms"),
    );
    // `check_all` timed apart from the rounds; `outcome_us` includes it,
    // since `RunOutcome::compute` runs the invariant engine.
    let invariants = sim::invariants_ms(corpus, args.seed, INVARIANT_SAMPLES);
    v.set("oftt-check.invariants_ms", report("oftt-check.invariants_ms", &invariants, 50.0, "ms"));
    v.set(
        "oftt-check.outcome_us",
        report("oftt-check.outcome_us", &sget("oftt-check.outcome"), 50.0, "us"),
    );

    // The pair-failover schedule, step by step.
    let tracer = Tracer::new(true);
    let decomposed: Vec<sim::Decomposed> = (0..8u64)
        .map(|i| sim::decomposed_run(args.seed.wrapping_mul(100) + i, &tracer, i))
        .collect();
    let decomposed_spans = tracer.take();
    let dself = self_times_us(&decomposed_spans);
    for (span, metric) in [
        ("oftt-harness.build", "oftt-harness.build_ms"),
        ("ds-sim.run", "ds-sim.run_ms"),
        ("ds-sim.render", "ds-sim.render_ms"),
        ("oftt-check.parse", "oftt-check.parse_ms"),
    ] {
        v.set(
            metric,
            report(metric, &to_ms(dself.get(span).cloned().unwrap_or_default()), 50.0, "ms"),
        );
    }
    let mean = |f: fn(&sim::Decomposed) -> f64| {
        decomposed.iter().map(f).sum::<f64>() / decomposed.len() as f64
    };
    v.set("ds-sim.trace_entries_per_run", mean(|d| d.trace_entries));
    v.set("ds-sim.trace_bytes_per_run", mean(|d| d.trace_bytes));
    v.set("ds-sim.choice_points_per_run", mean(|d| d.choice_points));
    v.set("oftt-check.events_per_run", mean(|d| d.events));
    v.set("ds-net.msgs_per_run", mean(|d| d.msgs));
    v.set(
        "msgq.transfer_ack_ratio",
        mean(|d| d.transfers_acked) / mean(|d| d.transfers_sent).max(1.0),
    );
    v.set("msgq.retransmissions_per_run", mean(|d| d.retransmissions));
    v.set("msgq.duplicates_dropped_per_run", mean(|d| d.duplicates_dropped));
    v.set("msgq.dead_lettered_per_run", mean(|d| d.dead_lettered));
    let failovers: Vec<f64> = decomposed
        .iter()
        .flat_map(|d| d.failover_us.iter().map(|us| *us as f64 / 1000.0))
        .collect();
    v.set("oftt.sim_failover_ms_p50", report("oftt.sim_failover_ms_p50", &failovers, 50.0, "ms"));

    let col = |f: fn(&node::Cycle) -> f64| c.cycles.iter().map(f).collect::<Vec<f64>>();
    let steady_ms: f64 = c.cycles.iter().map(|c| c.steady_s * 1000.0).sum();
    v.set("node.ready_ms", report("node.ready_ms", &col(|c| c.ready_ms), 50.0, "ms"));
    v.set("node.pair_ms", report("node.pair_ms", &col(|c| c.pair_ms), 50.0, "ms"));
    v.set("failover.promote_ms", report("failover.promote_ms", &col(|c| c.promote_ms), 50.0, "ms"));
    v.set(
        "failover.activate_ms",
        report("failover.activate_ms", &col(|c| c.activate_ms), 50.0, "ms"),
    );
    v.set(
        "node.trace_lines_per_s",
        col(|c| c.trace_lines).iter().sum::<f64>() * 1000.0 / steady_ms,
    );
    v.set(
        "node.rss_growth_kb_per_s",
        median(&col(|c| (c.rss_kb_end - c.rss_kb_start) / c.steady_s)),
    );
    v.set("node.threads", median(&col(|c| c.threads)));
    v.set(
        "node.cpu_primary_pct",
        100.0 * col(|c| c.cpu_ms_primary).iter().sum::<f64>() / steady_ms,
    );
    v.set("node.cpu_backup_pct", 100.0 * col(|c| c.cpu_ms_backup).iter().sum::<f64>() / steady_ms);

    // Tracing overhead: the same quantity traced and untraced, measured
    // back to back in every slot — heavy-window ack p50, resync latency
    // p50, campaign-round wall time — each read the same way on both sides.
    let ratio = |pairs: Vec<(f64, f64)>| {
        let (plain, traced): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
        median(&traced) / median(&plain)
    };
    let plain_resync: Vec<f64> = c.resync.iter().map(|(us, _)| *us).collect();
    let overheads = [
        ratio(c.heavy_pairs.clone()),
        median(&c.resync_traced) / median(&plain_resync),
        ratio(c.sim_pairs.iter().map(|(u, t)| (u.as_secs_f64(), t.as_secs_f64())).collect()),
    ]
    .map(|r| 100.0 * (r - 1.0));
    println!(
        "bench.trace_overhead_pct: heavy ack p50 {:.1} % (n={}), resync p50 {:.1} % (n={}/{}), \
         campaign round {:.1} % (n={})",
        overheads[0],
        c.heavy_pairs.len(),
        overheads[1],
        c.resync_traced.len(),
        plain_resync.len(),
        overheads[2],
        c.sim_pairs.len()
    );
    v.set("bench.trace_overhead_pct", median(&overheads));
    v.set("failed_pct", 100.0 * tally.failed as f64 / tally.attempted.max(1) as f64);

    let all: Vec<Span> = [&heavy_spans, &c.resync_spans, &c.sim_spans, &decomposed_spans]
        .into_iter()
        .flat_map(|s| s.iter().cloned())
        .collect();
    let path = out_dir.join(format!("spans-{}-seed{}.tsv", wl.name, args.seed));
    trace::write_spans(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", all.len(), path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let mut values = Values::default();
    let mut tally = Tally::default();
    if let Err(e) = run(&args, &mut values, &mut tally) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics = match values.render(list) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &tally.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = tally.problems.is_empty() && tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        tally.attempted.max(1),
        tally.failed
    );
    ExitCode::SUCCESS
}
