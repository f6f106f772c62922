//! [`WireNet`]: the node runtime that hosts OFTT actors over TCP.
//!
//! One `WireNet` per OS process hosts the services of **one node** on a
//! [`LocalHost`] — the same host, [`run_actor`] loop, mailbox semantics
//! and drop accounting as the in-process runtime. What the wire adds is
//! routing: envelopes addressed to another node are encoded by the
//! [`WireCodec`] and queued on the [`Supervisor`]'s link to that peer. The
//! actors cannot tell which backend they are on — that is the point.
//!
//! [`run_actor`]: ds_net::transport::run_actor

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::host::LocalHost;
use ds_net::message::Envelope;
use ds_net::process::ProcessFactory;
use ds_net::transport::{NodeRouter, PeerHealth, TransportEvent, TransportReport};
use ds_sim::prelude::{SimTime, Trace, TraceCategory, TraceEntry};
use parking_lot::{Mutex, RwLock};

use crate::codec::WireCodec;
use crate::supervisor::{Supervisor, WireConfig, WireHandler};

struct WireShared {
    node: NodeId,
    peers: HashSet<NodeId>,
    host: LocalHost,
    unroutable: AtomicU64,
    event_subs: Mutex<Vec<Endpoint>>,
    supervisor: RwLock<Option<Supervisor>>,
    shutting_down: AtomicBool,
}

impl WireShared {
    fn route(&self, envelope: Envelope) {
        if envelope.to.node == self.node {
            self.host.deliver(envelope);
            return;
        }
        if !self.peers.contains(&envelope.to.node) {
            self.unroutable.fetch_add(1, Ordering::Relaxed);
            self.host.record(
                TraceCategory::Net,
                format!(
                    "wire drop {} -> {}: node {} has no configured link",
                    envelope.from, envelope.to, envelope.to.node
                ),
            );
            return;
        }
        let supervisor = self.supervisor.read();
        if let Some(sup) = supervisor.as_ref() {
            sup.send_envelope(envelope.to.node, &envelope);
        }
    }

    /// `true` if `target` is on this node; traces the refused `action`
    /// otherwise (a node can only kill or restart its own services).
    fn is_local(&self, target: &Endpoint, action: &str) -> bool {
        let local = target.node == self.node;
        if !local {
            self.host.record(
                TraceCategory::Net,
                format!("wire: cannot {action} {target}: not on node {}", self.node),
            );
        }
        local
    }
}

impl WireHandler for WireShared {
    fn deliver(&self, envelope: Envelope) {
        self.host.deliver(envelope);
    }

    fn peer_event(&self, event: TransportEvent) {
        let subs = self.event_subs.lock().clone();
        let from = Endpoint::new(self.node, "__wire");
        for to in subs {
            self.host.deliver(Envelope::new(from.clone(), to, event));
        }
    }

    fn record(&self, category: TraceCategory, message: String) {
        self.host.record(category, message);
    }
}

/// Router handed to actors: the [`LocalHost`]'s, plus the remote branch
/// of `route` and the local-node guard on service control. It wraps the
/// `Arc` so `restart_service` can hand the restarted actor a router too.
struct ArcRouter(Arc<WireShared>);

impl NodeRouter for ArcRouter {
    fn now(&self) -> SimTime {
        self.0.host.now()
    }
    fn route(&self, envelope: Envelope) {
        self.0.route(envelope);
    }
    fn record(&self, category: TraceCategory, message: String) {
        self.0.host.record(category, message);
    }
    fn kill_service(&self, target: &Endpoint) {
        if self.0.is_local(target, "kill") {
            self.0.host.kill(target);
        }
    }
    fn restart_service(&self, target: &Endpoint) {
        if self.0.is_local(target, "restart") {
            self.0.host.restart(target, Arc::new(ArcRouter(Arc::clone(&self.0))));
        }
    }
    fn actor_exited(&self, endpoint: &Endpoint, generation: u64) {
        self.0.host.actor_exited(endpoint, generation);
    }
}

/// A TCP-backed node runtime hosting [`Process`] actors.
///
/// [`Process`]: ds_net::process::Process
pub struct WireNet {
    shared: Arc<WireShared>,
}

impl WireNet {
    /// Starts the socket layer (binds the listener, begins dialing
    /// peers) and returns the runtime. Actors are registered and started
    /// afterwards, like on the other backends.
    pub fn new(seed: u64, config: WireConfig, codec: Arc<WireCodec>) -> std::io::Result<Self> {
        let shared = Arc::new(WireShared {
            node: config.node,
            peers: config.peers.iter().map(|(peer, _)| *peer).collect(),
            host: LocalHost::new(seed),
            unroutable: AtomicU64::new(0),
            event_subs: Mutex::new(Vec::new()),
            supervisor: RwLock::new(None),
            shutting_down: AtomicBool::new(false),
        });
        let handler: Arc<dyn WireHandler> = Arc::clone(&shared) as Arc<dyn WireHandler>;
        let supervisor = Supervisor::start(config, codec, handler)?;
        *shared.supervisor.write() = Some(supervisor);
        Ok(WireNet { shared })
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.shared.node
    }

    /// The bound listen address (resolves port 0).
    pub fn listen_addr(&self) -> Option<SocketAddr> {
        self.shared.supervisor.read().as_ref().map(|s| s.local_addr())
    }

    /// Registers a service spec (not started yet).
    pub fn register(&mut self, endpoint: Endpoint, factory: ProcessFactory) {
        self.shared.host.register(endpoint, factory);
    }

    /// Starts a registered service on its own thread.
    pub fn start(&mut self, endpoint: &Endpoint) {
        let router = Arc::new(ArcRouter(Arc::clone(&self.shared)));
        self.shared.host.spawn(endpoint.clone(), router);
    }

    /// Kills a running local service (no notification to the victim).
    pub fn kill(&mut self, endpoint: &Endpoint) {
        self.shared.host.kill(endpoint);
    }

    /// `true` if the local service currently has a live mailbox.
    pub fn is_running(&self, endpoint: &Endpoint) -> bool {
        self.shared.host.is_running(endpoint)
    }

    /// Injects a message from an external driver (local or remote
    /// destination; remote bodies must be codec-registered).
    pub fn post<T: std::any::Any + Send>(&self, to: Endpoint, body: T) {
        let from = Endpoint::new(self.shared.node, "__external");
        self.shared.route(Envelope::new(from, to, body));
    }

    /// Copies out the trace recorded so far.
    pub fn trace_snapshot(&self) -> Trace {
        self.shared.host.trace_snapshot()
    }

    /// Copies out only the trace entries after the first `cursor` ones
    /// (see [`LocalHost::trace_since`]).
    pub fn trace_since(&self, cursor: usize) -> Vec<TraceEntry> {
        self.shared.host.trace_since(cursor)
    }

    /// Envelopes dropped locally because no mailbox could accept them.
    pub fn dropped_count(&self) -> u64 {
        self.shared.host.dropped_count()
    }

    /// Milliseconds since the runtime started (live wall time).
    pub fn now(&self) -> SimTime {
        self.shared.host.now()
    }

    /// Per-peer link health from the supervisor.
    pub fn health(&self) -> Vec<PeerHealth> {
        self.shared.supervisor.read().as_ref().map(|s| s.health()).unwrap_or_default()
    }

    /// `true` if a handshaken connection to `peer` is currently up.
    pub fn connected(&self, peer: NodeId) -> bool {
        self.shared.supervisor.read().as_ref().map(|s| s.connected(peer)).unwrap_or(false)
    }

    /// Frames received from an abandoned connection epoch and dropped.
    pub fn stale_in(&self, peer: NodeId) -> u64 {
        self.shared.supervisor.read().as_ref().map(|s| s.stale_in(peer)).unwrap_or(0)
    }

    /// The fixed reactor thread count serving every connection (O(1) in
    /// the number of peers).
    pub fn io_threads(&self) -> usize {
        self.shared.supervisor.read().as_ref().map_or(0, |s| s.io_threads())
    }

    /// Encode-path buffer pool counters from the supervisor.
    pub fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        self.shared.supervisor.read().as_ref().map(|s| s.pool_stats())
    }

    /// Subscribes a **local** service to [`TransportEvent`]s (delivered
    /// as ordinary envelopes from `<node>/__wire`).
    pub fn subscribe_transport_events(&mut self, endpoint: Endpoint) {
        self.shared.event_subs.lock().push(endpoint);
    }

    /// Spawns a thread that periodically routes a [`TransportReport`] to
    /// `monitor` (which may live on a peer node).
    pub fn start_transport_reporter(&mut self, monitor: Endpoint, period: Duration) {
        let shared = Arc::clone(&self.shared);
        self.shared.host.spawn_helper(move || loop {
            let mut slept = Duration::ZERO;
            while slept < period {
                if shared.shutting_down.load(Ordering::Relaxed) {
                    return;
                }
                let slice = Duration::from_millis(50).min(period - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
            let peers = {
                let sup = shared.supervisor.read();
                match sup.as_ref() {
                    Some(s) => s.health(),
                    None => return,
                }
            };
            let report = TransportReport { node: shared.node, peers, at: shared.host.now() };
            let from = Endpoint::new(shared.node, "__wire");
            shared.route(Envelope::new(from, monitor.clone(), report));
        });
    }

    /// Stops every service, the reporter, and the socket layer.
    pub fn shutdown(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.host.shutdown();
        // Taking the supervisor out breaks the WireShared <-> Supervisor
        // Arc cycle and joins the socket threads.
        let supervisor = self.shared.supervisor.write().take();
        if let Some(sup) = supervisor {
            sup.shutdown();
        }
    }
}

impl Drop for WireNet {
    fn drop(&mut self) {
        self.shutdown();
    }
}
