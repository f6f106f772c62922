//! The checkpoint path over real sockets: two in-process [`WireNet`]s on
//! one loopback TCP link. Node A hosts a bench *ship* process that owns
//! the application's [`VarStore`]; node B hosts a bench *install* process
//! that owns the backup's [`CheckpointStore`] and acks every install.
//!
//! * `ckpt-stream` (open loop): one generator thread posts `Ship` commands
//!   at fixed absolute times; each dirties the workload's share of the
//!   variables (1% or 10%), seals a delta and sends it. Latency runs from the command's *scheduled* time
//!   to the ack's arrival at A, so a stall is charged to every command
//!   due during it.
//! * `ckpt-resync` (closed loop, one image in flight): full images,
//!   each timed from its command to its install ack.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv, ProcessEnvExt};
use ds_sim::prelude::SimTime;
use oftt::checkpoint::{AcceptOutcome, Checkpoint, CheckpointPayload, CheckpointStore, VarStore};
use oftt::messages::FtimPeerMsg;
use oftt_wire::codec::WireCodec;
use oftt_wire::harness::free_port;
use oftt_wire::runtime::WireNet;
use oftt_wire::supervisor::WireConfig;

use crate::trace::Tracer;

/// Variables in the application image.
pub const VARS: usize = 10_000;
/// Bytes per variable.
pub const VAR_BYTES: usize = 64;
/// The checkpoint term (one primary for the whole run).
const TERM: u64 = 1;
/// Checkpoints whose acks can be told apart in the stamp ring; a phase
/// stops posting long before this many are outstanding.
const RING: usize = 1 << 16;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn ship_ep() -> Endpoint {
    Endpoint::new(A, "ship")
}

fn install_ep() -> Endpoint {
    Endpoint::new(B, "install")
}

/// splitmix64: the deterministic content and placement stream.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn var_bytes(seed: u64, version: u64, var: usize) -> Bytes {
    let mut out = Vec::with_capacity(VAR_BYTES);
    let mut state = mix(seed ^ version.rotate_left(17) ^ var as u64);
    while out.len() < VAR_BYTES {
        state = mix(state);
        out.extend_from_slice(&state.to_le_bytes());
    }
    Bytes::from(out)
}

/// A command to the ship process.
struct Ship {
    phase: u8,
    due: Instant,
    posted: Instant,
    full: bool,
}

/// Per-checkpoint cross-thread timestamps (tracer ns), used only when
/// tracing: when A's send returned and when B's ack send returned.
struct Stamps {
    sent: Vec<AtomicU64>,
    ack_sent: Vec<AtomicU64>,
}

impl Stamps {
    fn new() -> Stamps {
        Stamps {
            sent: (0..RING).map(|_| AtomicU64::new(0)).collect(),
            ack_sent: (0..RING).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Outcome counters and latency samples shared by the two processes.
#[derive(Default)]
struct Log {
    /// Per phase: each command's scheduled time and its ack latency
    /// from that time, µs.
    latency_us: HashMap<u8, Vec<(Instant, f64)>>,
    /// Acks that arrived out of order, twice, or for nothing sent.
    order_errors: u64,
    /// Checkpoints the install side refused.
    nacks: u64,
    /// Full images whose installed crc differed from the crc sent.
    crc_mismatches: u64,
}

struct Shared {
    tracer: Arc<Tracer>,
    log: Mutex<Log>,
    sent: AtomicU64,
    acked: AtomicU64,
    stamps: Stamps,
    /// Test hook: B sleeps this long before installing this seq.
    stall: Option<(u64, Duration)>,
}

struct ShipProc {
    seed: u64,
    /// Variables dirtied per checkpoint.
    delta_vars: usize,
    names: Arc<Vec<String>>,
    store: Arc<Mutex<VarStore>>,
    next_seq: u64,
    outstanding: VecDeque<(u64, u8, Instant)>,
    shared: Arc<Shared>,
}

impl ShipProc {
    fn ship(&mut self, cmd: &Ship, env: &mut dyn ProcessEnv) {
        let dispatched = Instant::now();
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut store = self.store.lock().expect("ship store poisoned");
        // Capture: the application's writes, then the period's delta (or
        // the whole image for a resync).
        let start = mix(self.seed ^ seq) as usize % VARS;
        for k in 0..self.delta_vars {
            let var = (start + k * 97) % VARS;
            store.set(self.names[var].clone(), var_bytes(self.seed, seq, var));
        }
        let vars = if cmd.full {
            store.clear_dirty();
            store.image(None)
        } else {
            store.take_dirty(None)
        };
        let captured = Instant::now();
        // Seal: crc folded from the store's cached digests.
        let (crc, payload) = if cmd.full {
            (store.image_crc(None), CheckpointPayload::Full(vars))
        } else {
            (store.crc_of(&vars), CheckpointPayload::Delta(vars))
        };
        drop(store);
        let ckpt = Checkpoint::with_crc(TERM, seq, SimTime::from_micros(seq), payload, crc);
        let sealed = Instant::now();
        env.send_msg(install_ep(), FtimPeerMsg::Ckpt(ckpt));
        let sent = Instant::now();
        self.outstanding.push_back((seq, cmd.phase, cmd.due));
        self.shared.sent.fetch_add(1, Ordering::Relaxed);
        let tracer = &self.shared.tracer;
        if tracer.enabled() {
            self.shared.stamps.sent[seq as usize % RING].store(tracer.ns(sent), Ordering::Relaxed);
            let mut b = tracer.batch(seq);
            b.span("ds-net.post_wait", 0, cmd.posted, dispatched);
            let root = b.span("ship", 0, dispatched, sent);
            b.span("oftt.checkpoint.capture", root, dispatched, captured);
            b.span("oftt.checkpoint.seal", root, captured, sealed);
            b.span("oftt-wire.send", root, sealed, sent);
            b.flush();
        }
    }

    fn acked(&mut self, seq: u64) {
        let now = Instant::now();
        let mut log = self.shared.log.lock().expect("ship log poisoned");
        match self.outstanding.front() {
            Some(&(want, phase, due)) if want == seq => {
                self.outstanding.pop_front();
                let us = now.saturating_duration_since(due).as_nanos() as f64 / 1000.0;
                log.latency_us.entry(phase).or_default().push((due, us));
                drop(log);
                self.shared.acked.fetch_add(1, Ordering::Release);
            }
            _ => log.order_errors += 1,
        }
        let tracer = &self.shared.tracer;
        if tracer.enabled() {
            let from = self.shared.stamps.ack_sent[seq as usize % RING].load(Ordering::Relaxed);
            let mut b = tracer.batch(seq);
            b.span_ns("oftt-wire.ack_transit", from, tracer.ns(now));
            b.flush();
        }
    }
}

impl Process for ShipProc {
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        if let Some(cmd) = envelope.body.downcast_ref::<Ship>() {
            self.ship(cmd, env);
        } else {
            match envelope.body.downcast_ref::<FtimPeerMsg>() {
                Some(FtimPeerMsg::CkptAck { seq, .. }) => self.acked(*seq),
                Some(FtimPeerMsg::CkptNack) => {
                    self.shared.log.lock().expect("ship log poisoned").nacks += 1;
                }
                _ => {}
            }
        }
    }
}

struct InstallProc {
    store: Arc<Mutex<CheckpointStore>>,
    shared: Arc<Shared>,
}

impl Process for InstallProc {
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let Some(FtimPeerMsg::Ckpt(ckpt)) = envelope.body.downcast_ref::<FtimPeerMsg>() else {
            return;
        };
        let dispatched = Instant::now();
        if let Some((seq, pause)) = self.shared.stall {
            if seq == ckpt.seq {
                std::thread::sleep(pause);
            }
        }
        let mut store = self.store.lock().expect("install store poisoned");
        let outcome = store.offer(ckpt);
        let mismatch = ckpt.payload.is_full()
            && outcome == AcceptOutcome::Installed
            && store.image_crc() != ckpt.crc;
        drop(store);
        let offered = Instant::now();
        if mismatch {
            self.shared.log.lock().expect("install log poisoned").crc_mismatches += 1;
        }
        let reply = match outcome {
            AcceptOutcome::Installed => FtimPeerMsg::CkptAck { term: ckpt.term, seq: ckpt.seq },
            AcceptOutcome::Rejected(_) => FtimPeerMsg::CkptNack,
        };
        env.send_msg(envelope.from.clone(), reply);
        let acked = Instant::now();
        let tracer = &self.shared.tracer;
        if tracer.enabled() {
            let slot = ckpt.seq as usize % RING;
            self.shared.stamps.ack_sent[slot].store(tracer.ns(acked), Ordering::Relaxed);
            let sent = self.shared.stamps.sent[slot].load(Ordering::Relaxed);
            let mut b = tracer.batch(ckpt.seq);
            b.span_ns("oftt-wire.fwd_transit", sent, tracer.ns(dispatched));
            let root = b.span("install", 0, dispatched, acked);
            b.span("oftt.checkpoint.offer", root, dispatched, offered);
            b.span("oftt-wire.ack_send", root, offered, acked);
            b.flush();
        }
    }
}

fn wait_until(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let start = Instant::now();
    while !cond() {
        if start.elapsed() > timeout {
            return false;
        }
        std::thread::sleep(Duration::from_micros(50));
    }
    true
}

fn wire_config(node: NodeId, port: u16, peer: NodeId, peer_port: u16, seed: u64) -> WireConfig {
    let mut config = WireConfig::loopback(node);
    config.listen = format!("127.0.0.1:{port}");
    config.peers = vec![(peer, format!("127.0.0.1:{peer_port}"))];
    config.seed = seed;
    // Deep enough that an overloaded ladder step is stopped by the
    // generator's backlog cap, never by a shed data frame.
    config.queue_limit = RING;
    config
}

/// One open-loop phase's raw results.
pub struct Phase {
    pub rate: f64,
    pub latency_us: Vec<f64>,
    /// Latencies of the commands whose flight (due time to ack) overlapped
    /// no host steal; see [`Phase::latencies`].
    pub clean_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub posted: u64,
    /// Commands still unacked when posting stopped.
    pub backlog_at_end: u64,
    /// Posting stopped early because the backlog cap was hit.
    pub capped: bool,
    /// Commands never acked within the drain timeout.
    pub unacked: u64,
    /// Host steal ticks while the phase ran.
    pub steal: u64,
    /// From the first post to the last ack (or the drain timeout).
    pub wall: Duration,
    /// CPU time of the generator thread.
    pub gen_cpu_ms: f64,
}

impl Phase {
    /// The latencies the phase's figures come from: those of commands that
    /// met no host steal, when at least half did; else all of them.
    pub fn latencies(&self) -> &[f64] {
        if self.clean_us.len() * 2 >= self.latency_us.len() {
            &self.clean_us
        } else {
            &self.latency_us
        }
    }
}

/// A formed A–B pair holding B's base image.
pub struct Topology {
    a: WireNet,
    b: WireNet,
    shared: Arc<Shared>,
    ship_store: Arc<Mutex<VarStore>>,
    install_store: Arc<Mutex<CheckpointStore>>,
    next_phase: u8,
}

impl Topology {
    /// Starts both nodes, waits for the link, and installs one full base
    /// image on B. Each checkpoint dirties `delta_vars` variables.
    pub fn up(
        seed: u64,
        delta_vars: usize,
        tracer: Arc<Tracer>,
        stall: Option<(u64, Duration)>,
    ) -> Result<Self, String> {
        let (port_a, port_b) = (free_port(), free_port());
        let codec = Arc::new(WireCodec::standard());
        let mut a = WireNet::new(seed, wire_config(A, port_a, B, port_b, seed), Arc::clone(&codec))
            .map_err(|e| format!("node A: {e}"))?;
        let mut b = WireNet::new(seed + 1, wire_config(B, port_b, A, port_a, seed + 1), codec)
            .map_err(|e| format!("node B: {e}"))?;
        let names: Arc<Vec<String>> = Arc::new((0..VARS).map(|v| format!("v{v:05}")).collect());
        let mut store = VarStore::new();
        for (var, name) in names.iter().enumerate() {
            store.set(name.clone(), var_bytes(seed, u64::MAX, var));
        }
        let ship_store = Arc::new(Mutex::new(store));
        let install_store = Arc::new(Mutex::new(CheckpointStore::new()));
        let shared = Arc::new(Shared {
            tracer,
            log: Mutex::new(Log::default()),
            sent: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            stamps: Stamps::new(),
            stall,
        });
        {
            let (names, store, shared) = (names, Arc::clone(&ship_store), Arc::clone(&shared));
            a.register(
                ship_ep(),
                Box::new(move || {
                    Box::new(ShipProc {
                        seed,
                        delta_vars,
                        names: Arc::clone(&names),
                        store: Arc::clone(&store),
                        next_seq: 0,
                        outstanding: VecDeque::new(),
                        shared: Arc::clone(&shared),
                    })
                }),
            );
        }
        {
            let (store, shared) = (Arc::clone(&install_store), Arc::clone(&shared));
            b.register(
                install_ep(),
                Box::new(move || {
                    Box::new(InstallProc { store: Arc::clone(&store), shared: Arc::clone(&shared) })
                }),
            );
        }
        if !wait_until(|| a.connected(B) && b.connected(A), Duration::from_secs(10)) {
            return Err("the A-B link never formed".into());
        }
        b.start(&install_ep());
        a.start(&ship_ep());
        let mut topo = Topology { a, b, shared, ship_store, install_store, next_phase: 0 };
        let base = topo.resync(1, Duration::ZERO)?;
        if base.len() != 1 {
            return Err("the base image was never acked".into());
        }
        Ok(topo)
    }

    /// Reactor threads per node.
    pub fn io_threads(&self) -> (usize, usize) {
        (self.a.io_threads(), self.b.io_threads())
    }

    fn new_phase(&mut self) -> u8 {
        self.next_phase = self.next_phase.wrapping_add(1);
        self.next_phase
    }

    fn post(&self, phase: u8, due: Instant, full: bool) {
        let posted = Instant::now();
        self.a.post(ship_ep(), Ship { phase, due, posted, full });
    }

    fn take_latencies(&self, phase: u8) -> Vec<(Instant, f64)> {
        self.shared.log.lock().expect("log poisoned").latency_us.remove(&phase).unwrap_or_default()
    }

    /// Closed loop: ships full images one at a time, each waiting for its
    /// ack, until `count` are done (at least) and `budget` has passed.
    /// Returns each image's latency in µs with the host steal ticks seen
    /// while it was in flight.
    pub fn resync(&mut self, count: usize, budget: Duration) -> Result<Vec<(f64, u64)>, String> {
        let phase = self.new_phase();
        let start = Instant::now();
        let mut steal = Vec::new();
        while steal.len() < count || start.elapsed() < budget {
            let target = self.shared.acked.load(Ordering::Acquire) + 1;
            let steal0 = crate::procfs::steal_ticks();
            self.post(phase, Instant::now(), true);
            let acked = &self.shared.acked;
            if !wait_until(|| acked.load(Ordering::Acquire) >= target, Duration::from_secs(10)) {
                return Err("a full image was never acked".into());
            }
            steal.push(crate::procfs::steal_ticks() - steal0);
        }
        Ok(self.take_latencies(phase).into_iter().map(|(_, us)| us).zip(steal).collect())
    }

    /// Open loop: one generator thread posts delta commands at `rate`
    /// per second for `dur`, then waits for every ack. Posting stops
    /// early once `cap` commands are outstanding. `sample` runs on this
    /// thread about every 5 ms while the generator runs.
    pub fn stream(
        &mut self,
        rate: f64,
        dur: Duration,
        cap: u64,
        mut sample: impl FnMut(&Self),
    ) -> Phase {
        let phase = self.new_phase();
        let base_sent = self.shared.sent.load(Ordering::Relaxed);
        let base_acked = self.shared.acked.load(Ordering::Acquire);
        let running = AtomicBool::new(true);
        let steal0 = crate::procfs::steal_ticks();
        let began = Instant::now();
        // Host steal sampled every 2 ms, to find the commands in flight
        // while the hypervisor held a CPU.
        let mut marks = vec![(began, steal0)];
        let mark = |marks: &mut Vec<(Instant, u64)>| {
            marks.push((Instant::now(), crate::procfs::steal_ticks()))
        };
        let (late_us, posted, capped, backlog_at_end, gen_cpu_ms) = std::thread::scope(|scope| {
            let this = &*self;
            let running = &running;
            let generator = std::thread::Builder::new()
                .name("perfbench-gen".into())
                .spawn_scoped(scope, move || {
                    let interval = Duration::from_secs_f64(1.0 / rate);
                    let start = Instant::now() + Duration::from_millis(1);
                    let mut late_us = Vec::new();
                    let mut posted = 0u64;
                    let mut capped = false;
                    loop {
                        let due = start + interval.mul_f64(posted as f64);
                        if due.duration_since(start) >= dur {
                            break;
                        }
                        let outstanding =
                            base_acked + posted - this.shared.acked.load(Ordering::Acquire);
                        if outstanding >= cap {
                            capped = true;
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        this.post(phase, due, false);
                        late_us.push(
                            Instant::now().saturating_duration_since(due).as_nanos() as f64
                                / 1000.0,
                        );
                        posted += 1;
                    }
                    let backlog = (base_acked + posted)
                        .saturating_sub(this.shared.acked.load(Ordering::Acquire));
                    running.store(false, Ordering::Release);
                    (late_us, posted, capped, backlog, crate::procfs::thread_self_cpu_ms())
                })
                .expect("spawn generator thread");
            let mut next_sample = Instant::now();
            while running.load(Ordering::Acquire) {
                if Instant::now() >= next_sample {
                    sample(this);
                    next_sample += Duration::from_millis(5);
                }
                mark(&mut marks);
                std::thread::sleep(Duration::from_millis(2));
            }
            generator.join().expect("generator thread panicked")
        });
        let target = base_sent + posted;
        let acked = &self.shared.acked;
        let drain_until = Instant::now() + Duration::from_secs(10);
        while acked.load(Ordering::Acquire) < target && Instant::now() < drain_until {
            mark(&mut marks);
            std::thread::sleep(Duration::from_micros(500));
        }
        mark(&mut marks);
        let unacked = target.saturating_sub(acked.load(Ordering::Acquire));
        let steal = crate::procfs::steal_ticks() - steal0;
        let stolen: Vec<(Instant, Instant)> =
            marks.windows(2).filter(|w| w[1].1 > w[0].1).map(|w| (w[0].0, w[1].0)).collect();
        let commands = self.take_latencies(phase);
        let clean_us = commands
            .iter()
            .filter(|(due, us)| {
                let acked_at = *due + Duration::from_secs_f64(us / 1e6);
                !stolen.iter().any(|(from, to)| *due < *to && acked_at > *from)
            })
            .map(|(_, us)| *us)
            .collect();
        Phase {
            gen_cpu_ms,
            steal,
            wall: began.elapsed(),
            rate,
            clean_us,
            latency_us: commands.into_iter().map(|(_, us)| us).collect(),
            late_us,
            posted,
            backlog_at_end,
            capped,
            unacked,
        }
    }

    /// Refused, misordered, or crc-mismatched checkpoints so far.
    pub fn errors(&self) -> u64 {
        let log = self.shared.log.lock().expect("log poisoned");
        log.order_errors + log.nacks + log.crc_mismatches
    }

    /// `true` when B's merged image has A's crc and B holds A's newest
    /// checkpoint.
    pub fn images_agree(&self) -> bool {
        let a = self.ship_store.lock().expect("ship store poisoned").image_crc(None);
        let b = self.install_store.lock().expect("install store poisoned");
        let sent = self.shared.sent.load(Ordering::Relaxed);
        a == b.image_crc() && b.position() == (TERM, sent.saturating_sub(1))
    }

    /// Checkpoints acked so far.
    pub fn acked(&self) -> u64 {
        self.shared.acked.load(Ordering::Acquire)
    }

    pub fn a(&self) -> &WireNet {
        &self.a
    }

    pub fn b(&self) -> &WireNet {
        &self.b
    }

    pub fn shutdown(mut self) {
        self.a.shutdown();
        self.b.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Coordinated omission is counted, not hidden: while B stalls, the
    /// generator keeps posting on schedule, and every command due during
    /// the stall is charged the part of the stall still ahead of it.
    #[test]
    fn an_install_stall_shows_on_every_command_due_during_it() {
        let stall = Duration::from_millis(60);
        let rate = 1000.0;
        let tracer = Arc::new(Tracer::new(false));
        // Seq 0 is the base image; the stall hits the 101st streamed delta.
        let stalled_seq = 101;
        let mut topo = Topology::up(7, 100, tracer, Some((stalled_seq, stall))).expect("topology");
        let phase = topo.stream(rate, Duration::from_millis(400), 10_000, |_| {});
        assert_eq!(phase.unacked, 0);
        assert_eq!(topo.errors(), 0);
        assert!(topo.images_agree());
        topo.shutdown();
        let lat = &phase.latency_us;
        assert_eq!(lat.len() as u64, phase.posted);
        // Command k (0-based) carries seq k + 1; the stall starts when the
        // stalled delta is dispatched, at or after its due time, so the
        // command due d ms later waits at least (60 - d) ms.
        let first = (stalled_seq - 1) as usize;
        let stall_ms = stall.as_secs_f64() * 1000.0;
        let due_during = (stall_ms * rate / 1000.0) as usize;
        for d in 0..due_during {
            let floor_us = (stall_ms - d as f64 * 1000.0 / rate) * 1000.0;
            assert!(
                lat[first + d] >= floor_us * 0.95,
                "command {} due {d} ms into the stall reported {} us, expected >= {floor_us} us",
                first + d,
                lat[first + d]
            );
        }
    }
}
