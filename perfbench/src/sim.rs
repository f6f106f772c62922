//! `sim-demo`: the 7-scenario fault corpus over the paper's Figure-3
//! call-track deployment, run through the campaign executor and the full
//! invariant engine. No sockets are involved.
//!
//! The corpus is the benchmark's own frozen copy (`perfbench/scenarios`);
//! each pass replaces every scenario's seed list with a 100-seed span
//! derived from the run's seed and the pass index.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ds_net::fault::Fault;
use ds_sim::prelude::{SimDuration, SimTime};
use ds_sim::schedule::SchedulePolicy;
use oftt_campaign::{aggregate, expand, gate_failures, run_campaign, RunRecord, Scenario};
use oftt_check::parse::parse_trace;
use oftt_check::scenario::HORIZON;
use oftt_check::{check_all, run_script, CheckOptions, RunOutcome};
use oftt_harness::scenario::{Fig3Scenario, ScenarioParams};

use crate::trace::Tracer;

/// Seeds per scenario in one pass (the corpus pins are sized for 100).
pub const SEEDS_PER_PASS: u64 = 100;

/// Loads the frozen corpus, sorted by file name.
pub fn load_corpus(dir: &std::path::Path) -> Result<Vec<Scenario>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let corpus: Vec<Scenario> = paths
        .iter()
        .map(|p| Scenario::load_file(&p.to_string_lossy()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    if corpus.len() != 7 {
        return Err(format!(
            "expected the 7-scenario corpus in {}, found {}",
            dir.display(),
            corpus.len()
        ));
    }
    Ok(corpus)
}

/// The corpus with every scenario's seeds set to pass `pass`'s span.
pub fn with_span(corpus: &[Scenario], seed: u64, pass: u64) -> Vec<Scenario> {
    let base = 1 + (seed.wrapping_mul(1_000) + pass) * SEEDS_PER_PASS;
    corpus
        .iter()
        .map(|sc| Scenario { seeds: (base..base + SEEDS_PER_PASS).collect(), ..sc.clone() })
        .collect()
}

/// Runs that failed the corpus gate, with a reason per failure: an
/// unexpected violation or unrecovered seed, a seeded-defect seed the
/// invariant engine did not flag, or a breached pin.
pub fn gate(scenarios: &[Scenario], records: &[RunRecord]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, sc) in scenarios.iter().enumerate() {
        let mine: Vec<RunRecord> = records.iter().filter(|r| r.scenario == i).cloned().collect();
        for r in &mine {
            if sc.expect_violations && r.outcome.violations.is_empty() {
                out.push(format!("{} seed {}: seeded defect not flagged", sc.name, r.seed));
            }
        }
        out.extend(gate_failures(&aggregate(sc, &mine)));
    }
    out
}

fn check_options(sc: &Scenario) -> CheckOptions {
    CheckOptions {
        inject_startup_bug: sc.inject_startup_bug,
        tie_window: sc.tie_window,
        horizon: sc.horizon,
        overrides: sc.overrides.clone(),
        ..Default::default()
    }
}

/// One pass on the benchmark's own worker pool, doing per run what
/// `run_campaign` does (`expand`, `run_script`, `RunOutcome::compute`) and
/// timing each call as a span. `RunOutcome::compute` runs the invariant
/// engine itself, so `oftt-check.outcome` includes `check_all`.
pub fn traced_pass(
    scenarios: &[Scenario],
    jobs: usize,
    tracer: &Tracer,
    first_req: u64,
) -> Vec<RunRecord> {
    let work: Vec<(usize, u64)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(i, sc)| sc.seeds.iter().map(move |&s| (i, s)))
        .collect();
    let cursor = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(work.len()));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(index, seed)) = work.get(i) else { break };
                let sc = &scenarios[index];
                let t0 = Instant::now();
                let script = expand(sc, seed);
                let t1 = Instant::now();
                let result = run_script(&script, seed, &[], &check_options(sc));
                let t2 = Instant::now();
                let outcome = RunOutcome::compute(&result.events, sc.horizon);
                let t3 = Instant::now();
                let mut b = tracer.batch(first_req + i as u64);
                let root = b.span("sim.run", 0, t0, t3);
                b.span("oftt-campaign.expand", root, t0, t1);
                b.span("oftt-check.run_script", root, t1, t2);
                b.span("oftt-check.outcome", root, t2, t3);
                b.flush();
                out.lock().expect("records poisoned").push(RunRecord {
                    scenario: index,
                    seed,
                    outcome,
                });
            });
        }
    });
    let mut records = out.into_inner().expect("records poisoned");
    records.sort_by_key(|r| (r.scenario, r.seed));
    records
}

/// `check_all` on its own, in ms per call, over the first `per_scenario`
/// seeds of every scenario of pass 0. Measured apart from the campaign
/// rounds, which call it only inside `RunOutcome::compute`.
pub fn invariants_ms(corpus: &[Scenario], seed: u64, per_scenario: usize) -> Vec<f64> {
    let mut out = Vec::new();
    for sc in with_span(corpus, seed, 0) {
        for &s in sc.seeds.iter().take(per_scenario) {
            let result = run_script(&expand(&sc, s), s, &[], &check_options(&sc));
            let t = Instant::now();
            let _ = std::hint::black_box(check_all(&result.events));
            out.push(t.elapsed().as_secs_f64() * 1000.0);
        }
    }
    out
}

/// Exact per-run counts from one decomposed pair-failover run.
#[derive(Debug, Default, Clone)]
pub struct Decomposed {
    pub trace_entries: f64,
    pub trace_bytes: f64,
    pub choice_points: f64,
    pub events: f64,
    pub msgs: f64,
    pub transfers_sent: f64,
    pub transfers_acked: f64,
    pub retransmissions: f64,
    pub duplicates_dropped: f64,
    pub dead_lettered: f64,
    pub failover_us: Vec<u64>,
}

/// The checker's pair-failover schedule (crash node a at 10 s, repair
/// at 25 s) built and run step by step, so the harness, simulator,
/// rendering and parsing layers are timed apart.
pub fn decomposed_run(seed: u64, tracer: &Tracer, req: u64) -> Decomposed {
    let t0 = Instant::now();
    let params =
        ScenarioParams { seed, watchdog: Some(SimDuration::from_secs(5)), ..Default::default() };
    let mut sc = Fig3Scenario::build(&params);
    let t1 = Instant::now();
    sc.cs.set_causality_recording(true);
    sc.cs.set_schedule_policy(SchedulePolicy::Explore {
        forced: Vec::new(),
        window: SimDuration::from_micros(500),
    });
    let a = sc.pair.a;
    sc.inject(SimTime::from_secs(10), Fault::CrashNode(a));
    sc.inject(SimTime::from_secs(25), Fault::RepairNode(a));
    sc.start();
    sc.run_until(HORIZON);
    let t2 = Instant::now();
    let text = sc.cs.trace().to_text();
    let t3 = Instant::now();
    let events = parse_trace(sc.cs.trace());
    let t4 = Instant::now();
    let outcome = RunOutcome::compute(&events, HORIZON);
    let mut b = tracer.batch(req);
    let root = b.span("sim.decomposed", 0, t0, t4);
    b.span("oftt-harness.build", root, t0, t1);
    b.span("ds-sim.run", root, t1, t2);
    b.span("ds-sim.render", root, t2, t3);
    b.span("oftt-check.parse", root, t3, t4);
    b.flush();
    let q = *sc.probes.test_pc_queue.lock();
    Decomposed {
        trace_entries: sc.cs.trace().entries().len() as f64,
        trace_bytes: text.len() as f64,
        choice_points: sc.cs.choice_points().len() as f64,
        events: events.len() as f64,
        msgs: sc.cs.cluster().counters().sent as f64,
        transfers_sent: q.transfers_sent as f64,
        transfers_acked: q.transfers_acked as f64,
        retransmissions: q.retransmissions as f64,
        duplicates_dropped: q.duplicates_dropped as f64,
        dead_lettered: q.dead_lettered as f64,
        failover_us: outcome.failover_us,
    }
}

/// Each pass runs in this many rounds, a round holding an equal share of
/// every scenario's seeds, so every round has the same scenario mix.
pub const ROUNDS_PER_PASS: usize = 4;

/// One round's timing.
pub struct Round {
    pub runs: usize,
    pub wall: Duration,
    /// Host steal ticks while the round ran.
    pub steal: u64,
}

/// Runs round `r` of pass `pass`: the corpus restricted to that round's
/// share of the pass's seed span. Record indexes match the corpus order.
pub fn round(
    corpus: &[Scenario],
    seed: u64,
    pass: u64,
    r: usize,
    jobs: usize,
    tracer: Option<&Tracer>,
) -> (Vec<RunRecord>, Round) {
    let share = SEEDS_PER_PASS as usize / ROUNDS_PER_PASS;
    let part: Vec<Scenario> = with_span(corpus, seed, pass)
        .into_iter()
        .map(|sc| Scenario { seeds: sc.seeds[r * share..(r + 1) * share].to_vec(), ..sc })
        .collect();
    let steal0 = crate::procfs::steal_ticks();
    let t = Instant::now();
    let records = match tracer {
        Some(tr) => traced_pass(&part, jobs, tr, pass * 1_000 + r as u64 * 200),
        None => run_campaign(&part, jobs),
    };
    let round = Round {
        runs: records.len(),
        wall: t.elapsed(),
        steal: crate::procfs::steal_ticks() - steal0,
    };
    (records, round)
}
