//! The one real-thread actor host.
//!
//! [`LocalHost`] runs each service on its own OS thread with a crossbeam
//! channel mailbox and a local timer heap, implementing [`ProcessEnv`]
//! against real time via the shared [`crate::transport::run_actor`] loop.
//! It owns everything a node needs to start, kill and restart its
//! services: the spec registry, the generation-tagged mailbox map, the
//! trace and wall clock, per-actor seeds, thread handles and drop
//! accounting.
//!
//! On its own it is the in-process multi-node runtime: its
//! [`NodeRouter`] delivers every envelope to a local mailbox, whatever
//! node the endpoint names, and models no network imperfections.
//! Quantitative experiments use the deterministic [`crate::cluster`]
//! backend; the `oftt-wire` TCP runtime composes one `LocalHost` per node
//! and routes envelopes for other nodes onto sockets instead.
//!
//! [`ProcessEnv`]: crate::process::ProcessEnv

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, SendError, Sender};
use ds_sim::prelude::{SimTime, Trace, TraceCategory, TraceEntry, WallClock};
use parking_lot::{Mutex, RwLock};

use crate::endpoint::Endpoint;
use crate::message::Envelope;
use crate::process::ProcessFactory;
use crate::transport::{run_actor, Control, NodeRouter};

/// A live mailbox: its sender plus the generation of the spawn that
/// registered it, so a killed actor exiting late cannot retire a
/// successor's registration.
type Mailbox = (Sender<Control>, u64);

struct HostState {
    specs: Mutex<HashMap<Endpoint, ProcessFactory>>,
    /// Read on every delivered envelope, written only on spawn/kill/exit.
    mailboxes: RwLock<HashMap<Endpoint, Mailbox>>,
    trace: Mutex<Trace>,
    clock: WallClock,
    seed: u64,
    generation: AtomicU64,
    handles: Mutex<Vec<JoinHandle<()>>>,
    dropped: AtomicU64,
}

/// A thread-backed host for [`Process`] actors — the same actors the
/// deterministic simulation runs.
///
/// `LocalHost` is a cheap handle: clones share one registry. Hosted
/// actors hold clones, so dropping the caller's handle does not stop
/// them; call [`LocalHost::shutdown`].
///
/// [`Process`]: crate::process::Process
///
/// # Examples
///
/// ```
/// use ds_net::host::LocalHost;
/// use ds_net::prelude::*;
///
/// struct Greeter;
/// impl Process for Greeter {}
///
/// let net = LocalHost::new(1);
/// net.register(Endpoint::new(NodeId(0), "greeter"), Box::new(|| Box::new(Greeter)));
/// net.start(&Endpoint::new(NodeId(0), "greeter"));
/// net.shutdown();
/// ```
#[derive(Clone)]
pub struct LocalHost {
    state: Arc<HostState>,
}

impl LocalHost {
    /// Creates an empty host; `seed` controls per-process RNG streams
    /// (each spawn draws `seed + generation`).
    pub fn new(seed: u64) -> Self {
        LocalHost {
            state: Arc::new(HostState {
                specs: Mutex::new(HashMap::new()),
                mailboxes: RwLock::new(HashMap::new()),
                trace: Mutex::new(Trace::new()),
                clock: WallClock::new(),
                seed,
                generation: AtomicU64::new(0),
                handles: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// Registers a service spec (not started yet).
    pub fn register(&self, endpoint: Endpoint, factory: ProcessFactory) {
        self.state.specs.lock().insert(endpoint, factory);
    }

    /// Starts a registered service on its own thread, routed by this host.
    pub fn start(&self, endpoint: &Endpoint) {
        self.spawn(endpoint.clone(), Arc::new(self.clone()));
    }

    /// Starts a registered service on its own thread under a fresh
    /// generation, handing it `router` for everything it sends. A
    /// previous registration under the same endpoint is replaced. No-op
    /// if nothing is registered under `endpoint`.
    pub fn spawn(&self, endpoint: Endpoint, router: Arc<dyn NodeRouter>) {
        let actor = {
            let specs = self.state.specs.lock();
            let Some(factory) = specs.get(&endpoint) else { return };
            factory()
        };
        let (tx, rx) = unbounded();
        let generation = self.state.generation.fetch_add(1, Ordering::Relaxed) + 1;
        self.state.mailboxes.write().insert(endpoint.clone(), (tx, generation));
        let seed = self.state.seed.wrapping_add(generation);
        let handle =
            std::thread::spawn(move || run_actor(actor, endpoint, router, seed, generation, rx));
        self.state.handles.lock().push(handle);
    }

    /// [`LocalHost::spawn`]s `endpoint` unless it already has a mailbox.
    pub fn restart(&self, endpoint: &Endpoint, router: Arc<dyn NodeRouter>) {
        if !self.is_running(endpoint) {
            self.spawn(endpoint.clone(), router);
        }
    }

    /// Kills a running service (no notification to the victim).
    pub fn kill(&self, endpoint: &Endpoint) {
        // Bind first so the registry guard is released before the
        // control send — no lock held across channel traffic.
        let removed = self.state.mailboxes.write().remove(endpoint);
        if let Some((tx, _)) = removed {
            let _ = tx.send(Control::Kill);
        }
    }

    /// Hands `envelope` to its endpoint's mailbox. With no mailbox (or a
    /// disconnected one) the envelope is dropped, but auditably: counted
    /// and traced, like the simulator does.
    pub fn deliver(&self, envelope: Envelope) {
        let target = self.state.mailboxes.read().get(&envelope.to).map(|(tx, _)| tx.clone());
        match target {
            Some(tx) => {
                if let Err(SendError(Control::Deliver(envelope))) =
                    tx.send(Control::Deliver(envelope))
                {
                    self.note_drop(&envelope);
                }
            }
            None => self.note_drop(&envelope),
        }
    }

    fn note_drop(&self, envelope: &Envelope) {
        self.state.dropped.fetch_add(1, Ordering::Relaxed);
        self.record(
            TraceCategory::Net,
            format!("drop {} -> {}: no local mailbox", envelope.from, envelope.to),
        );
    }

    /// Retires `endpoint`'s mailbox if it is still the registration of
    /// `generation` (a killed actor exiting late must not retire its
    /// successor's mailbox).
    pub fn actor_exited(&self, endpoint: &Endpoint, generation: u64) {
        let mut mailboxes = self.state.mailboxes.write();
        if mailboxes.get(endpoint).is_some_and(|(_, g)| *g == generation) {
            mailboxes.remove(endpoint);
        }
    }

    /// Injects a message from outside the hosted actors (sent as
    /// `<node>/__external`).
    pub fn post<T: std::any::Any + Send>(&self, to: Endpoint, body: T) {
        let from = Endpoint::new(to.node, "__external");
        self.deliver(Envelope::new(from, to, body));
    }

    /// Records a trace entry at the current wall time.
    pub fn record(&self, category: TraceCategory, message: String) {
        let now = self.now();
        self.state.trace.lock().record(now, category, message);
    }

    /// Runs `work` on a helper thread that [`LocalHost::shutdown`] joins.
    /// The helper must watch its own stop condition; shutdown only waits.
    pub fn spawn_helper(&self, work: impl FnOnce() + Send + 'static) {
        let handle = std::thread::spawn(work);
        self.state.handles.lock().push(handle);
    }

    /// `true` if the service currently has a live mailbox.
    pub fn is_running(&self, endpoint: &Endpoint) -> bool {
        self.state.mailboxes.read().contains_key(endpoint)
    }

    /// Copies out the trace recorded so far.
    pub fn trace_snapshot(&self) -> Trace {
        self.state.trace.lock().clone()
    }

    /// Copies out only the trace entries recorded after the first
    /// `cursor` ones, so a reader streaming the trace pays for what is
    /// new, not for the whole run. Advance the cursor by the length of
    /// what comes back.
    pub fn trace_since(&self, cursor: usize) -> Vec<TraceEntry> {
        self.state.trace.lock().entries().get(cursor..).map_or_else(Vec::new, <[_]>::to_vec)
    }

    /// Envelopes dropped because no live mailbox could accept them.
    pub fn dropped_count(&self) -> u64 {
        self.state.dropped.load(Ordering::Relaxed)
    }

    /// Milliseconds since the host started (live wall time).
    pub fn now(&self) -> SimTime {
        self.state.clock.now()
    }

    /// Kills every service, then joins every actor and helper thread.
    pub fn shutdown(&self) {
        let endpoints: Vec<Endpoint> = self.state.mailboxes.read().keys().cloned().collect();
        for ep in endpoints {
            self.kill(&ep);
        }
        let handles: Vec<JoinHandle<()>> = self.state.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl NodeRouter for LocalHost {
    fn now(&self) -> SimTime {
        LocalHost::now(self)
    }

    fn route(&self, envelope: Envelope) {
        self.deliver(envelope);
    }

    fn record(&self, category: TraceCategory, message: String) {
        LocalHost::record(self, category, message);
    }

    fn kill_service(&self, target: &Endpoint) {
        self.kill(target);
    }

    fn restart_service(&self, target: &Endpoint) {
        self.restart(target, Arc::new(self.clone()));
    }

    fn actor_exited(&self, endpoint: &Endpoint, generation: u64) {
        LocalHost::actor_exited(self, endpoint, generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::NodeId;
    use crate::process::{Process, ProcessEnv, ProcessEnvExt};
    use ds_sim::prelude::SimDuration;
    use std::sync::atomic::AtomicU32;
    use std::time::{Duration, Instant};

    struct Echo;
    impl Process for Echo {
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            let from = envelope.from.clone();
            if let Ok(n) = envelope.body.downcast::<u32>() {
                env.send_msg(from, n + 1);
            }
        }
    }

    struct Counter {
        peer: Endpoint,
        seen: Arc<AtomicU32>,
    }
    impl Process for Counter {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.send_msg(self.peer.clone(), 1u32);
        }
        fn on_message(&mut self, envelope: Envelope, _env: &mut dyn ProcessEnv) {
            if let Ok(n) = envelope.body.downcast::<u32>() {
                self.seen.store(n, Ordering::SeqCst);
            }
        }
    }

    fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if cond() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        cond()
    }

    #[test]
    fn live_ping_pong() {
        let net = LocalHost::new(1);
        let a = Endpoint::new(NodeId(0), "counter");
        let b = Endpoint::new(NodeId(1), "echo");
        let seen = Arc::new(AtomicU32::new(0));
        let s = seen.clone();
        let peer = b.clone();
        net.register(b.clone(), Box::new(|| Box::new(Echo)));
        net.register(
            a.clone(),
            Box::new(move || Box::new(Counter { peer: peer.clone(), seen: s.clone() })),
        );
        net.start(&b);
        net.start(&a);
        assert!(wait_for(|| seen.load(Ordering::SeqCst) == 2, Duration::from_secs(2)));
        net.shutdown();
    }

    struct Tick {
        fires: Arc<AtomicU32>,
    }
    impl Process for Tick {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            env.set_timer(SimDuration::from_millis(10), 0);
        }
        fn on_timer(&mut self, _token: u64, env: &mut dyn ProcessEnv) {
            self.fires.fetch_add(1, Ordering::SeqCst);
            env.set_timer(SimDuration::from_millis(10), 0);
        }
    }

    #[test]
    fn live_timers_fire() {
        let net = LocalHost::new(2);
        let ep = Endpoint::new(NodeId(0), "tick");
        let fires = Arc::new(AtomicU32::new(0));
        let f = fires.clone();
        net.register(ep.clone(), Box::new(move || Box::new(Tick { fires: f.clone() })));
        net.start(&ep);
        assert!(wait_for(|| fires.load(Ordering::SeqCst) >= 3, Duration::from_secs(2)));
        net.kill(&ep);
        assert!(wait_for(|| !net.is_running(&ep), Duration::from_secs(2)));
        net.shutdown();
    }

    #[test]
    fn kill_and_restart_via_registry() {
        let net = LocalHost::new(3);
        let ep = Endpoint::new(NodeId(0), "echo");
        net.register(ep.clone(), Box::new(|| Box::new(Echo)));
        net.start(&ep);
        assert!(wait_for(|| net.is_running(&ep), Duration::from_secs(2)));
        net.kill(&ep);
        assert!(wait_for(|| !net.is_running(&ep), Duration::from_secs(2)));
        net.start(&ep);
        assert!(wait_for(|| net.is_running(&ep), Duration::from_secs(2)));
        net.shutdown();
    }

    #[test]
    fn missing_mailbox_drop_is_traced_and_counted() {
        let net = LocalHost::new(4);
        assert_eq!(net.dropped_count(), 0);
        net.post(Endpoint::new(NodeId(0), "nobody"), 42u32);
        assert_eq!(net.dropped_count(), 1);
        let trace = net.trace_snapshot();
        let entry = trace.find("no local mailbox").expect("drop should be traced");
        assert_eq!(entry.category, TraceCategory::Net);
        assert!(entry.message.contains("node0/nobody"));
    }

    /// Counts the `u32`s it receives, and its own drop once its thread
    /// has finished (after the host heard its `actor_exited`).
    struct Sink {
        got: Arc<AtomicU32>,
        exited: Arc<AtomicU32>,
    }
    impl Process for Sink {
        fn on_message(&mut self, envelope: Envelope, _env: &mut dyn ProcessEnv) {
            if envelope.body.downcast::<u32>().is_ok() {
                self.got.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    impl Drop for Sink {
        fn drop(&mut self) {
            self.exited.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn late_exit_of_a_killed_generation_keeps_the_successor_mailbox() {
        let net = LocalHost::new(5);
        let ep = Endpoint::new(NodeId(0), "sink");
        let got = Arc::new(AtomicU32::new(0));
        let exited = Arc::new(AtomicU32::new(0));
        let (g, x) = (got.clone(), exited.clone());
        net.register(
            ep.clone(),
            Box::new(move || Box::new(Sink { got: g.clone(), exited: x.clone() })),
        );

        // Generation 1 is killed and restarted as generation 2 at once,
        // typically before generation 1's thread has reported its exit.
        net.start(&ep);
        net.kill(&ep);
        assert!(!net.is_running(&ep));
        net.restart(&ep, Arc::new(net.clone()));
        assert!(net.is_running(&ep));
        assert!(wait_for(|| exited.load(Ordering::SeqCst) == 1, Duration::from_secs(2)));
        assert!(net.is_running(&ep), "generation 1's exit must not retire generation 2");

        // Replay the stale exit too, so the late ordering is checked
        // whatever the thread interleaving was.
        net.actor_exited(&ep, 1);
        assert!(net.is_running(&ep));

        net.post(ep.clone(), 7u32);
        assert!(wait_for(|| got.load(Ordering::SeqCst) == 1, Duration::from_secs(2)));
        assert_eq!(net.dropped_count(), 0);

        // The successor's own exit does retire it.
        net.actor_exited(&ep, 2);
        assert!(!net.is_running(&ep));
        net.shutdown();
    }

    #[test]
    fn trace_since_returns_each_appended_entry_exactly_once_in_order() {
        let net = LocalHost::new(6);
        let (mut cursor, mut seen) = (0, Vec::new());
        for batch in [&["a", "b"][..], &[], &["c", "d", "e"]] {
            for msg in batch {
                net.record(TraceCategory::App, (*msg).to_string());
            }
            let fresh = net.trace_since(cursor);
            cursor += fresh.len();
            seen.extend(fresh.into_iter().map(|e| e.message));
        }
        assert_eq!(seen, ["a", "b", "c", "d", "e"]);
        assert!(net.trace_since(cursor).is_empty());
        assert!(net.trace_since(cursor + 10).is_empty(), "a cursor past the end reads nothing");
    }
}
