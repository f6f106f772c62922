//! Client-side helpers: sending into the queue network and consuming from
//! a queue, for embedding in application processes.

use comsim::buf::Bytes;
use ds_net::endpoint::Endpoint;
use ds_net::message::Envelope;
use ds_net::process::{ProcessEnv, ProcessEnvExt};
use ds_sim::prelude::SimDuration;
use serde::Serialize;

use crate::manager::{manager_endpoint, ManagerMsg, Push};
use crate::queue::{QueueAddress, QueueMessage, QueueName};

/// Errors from the sending helper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The payload failed to marshal.
    Marshal(String),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Marshal(m) => write!(f, "payload marshaling failed: {m}"),
        }
    }
}

impl std::error::Error for SendError {}

/// Fire-and-forget send: marshals `payload` and hands it to the local
/// queue manager, which owns reliability from there.
///
/// # Errors
///
/// Returns [`SendError::Marshal`] if the payload cannot be encoded.
pub fn send_via_queue<T: Serialize>(
    env: &mut dyn ProcessEnv,
    dest: QueueAddress,
    label: impl Into<String>,
    payload: &T,
    ttl: Option<SimDuration>,
) -> Result<(), SendError> {
    let body =
        comsim::marshal::to_shared(payload).map_err(|e| SendError::Marshal(e.to_string()))?;
    let local_manager = manager_endpoint(env.self_endpoint().node);
    let size = 64 + body.len() as u64;
    env.send_sized(
        local_manager,
        ManagerMsg::Enqueue { dest, label: label.into(), body, ttl },
        size,
    );
    Ok(())
}

/// Hands a batch of already-marshaled `(label, body)` payloads to the local
/// queue manager as ONE wire message. Each item still becomes its own
/// queue message with its own sequence number, so delivery order and
/// exactly-once semantics match a burst of [`send_via_queue`] calls — only
/// the sender→manager hop is coalesced. Bodies are shared buffers; nothing
/// is copied here.
pub fn send_batch_via_queue(
    env: &mut dyn ProcessEnv,
    dest: QueueAddress,
    items: Vec<(String, Bytes)>,
    ttl: Option<SimDuration>,
) {
    if items.is_empty() {
        return;
    }
    let size = 64 + items.iter().map(|(l, b)| 16 + l.len() as u64 + b.len() as u64).sum::<u64>();
    let local_manager = manager_endpoint(env.self_endpoint().node);
    env.send_sized(local_manager, ManagerMsg::EnqueueBatch { dest, items, ttl }, size);
}

/// Consumer-side helper: attach/detach and automatic acking of pushes.
///
/// Embed one per consumed queue; forward unrecognized envelopes to
/// [`QueueConsumer::handle_message`] and act on returned messages.
#[derive(Debug, Clone)]
pub struct QueueConsumer {
    manager: Endpoint,
    queue: QueueName,
}

impl QueueConsumer {
    /// Creates a consumer of `queue` hosted by the manager on `manager`'s
    /// node.
    pub fn new(manager: Endpoint, queue: impl Into<QueueName>) -> Self {
        QueueConsumer { manager, queue: queue.into() }
    }

    /// The queue this consumer reads.
    pub fn queue(&self) -> &QueueName {
        &self.queue
    }

    /// Registers this process as the queue's consumer (last attach wins —
    /// exactly what a newly promoted primary wants).
    pub fn attach(&self, env: &mut dyn ProcessEnv) {
        let me = env.self_endpoint();
        env.send_msg(
            self.manager.clone(),
            ManagerMsg::Attach { queue: self.queue.clone(), consumer: me },
        );
    }

    /// Deregisters this process.
    pub fn detach(&self, env: &mut dyn ProcessEnv) {
        let me = env.self_endpoint();
        env.send_msg(
            self.manager.clone(),
            ManagerMsg::Detach { queue: self.queue.clone(), consumer: me },
        );
    }

    /// Offers an incoming envelope. If it is a push for our queue, acks it
    /// and returns the message; otherwise hands the envelope back.
    pub fn handle_message(
        &self,
        envelope: Envelope,
        env: &mut dyn ProcessEnv,
    ) -> Result<QueueMessage, Envelope> {
        if !envelope.body.is::<Push>() {
            return Err(envelope);
        }
        let push = envelope.body.downcast::<Push>().expect("checked with is::<Push>");
        if push.queue != self.queue {
            // A push for some other queue consumed by the same process;
            // repackage for the caller's other consumers.
            return Err(Envelope::sized(
                envelope.from,
                envelope.to,
                ds_net::message::MsgBody::new(push),
                envelope.size_bytes,
            ));
        }
        env.send_msg(
            self.manager.clone(),
            ManagerMsg::Consumed { queue: push.queue, id: push.msg.id },
        );
        Ok(push.msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{service_name, QueueConfig, QueueManager, QueueStats};
    use ds_net::fault::{inject, Fault};
    use ds_net::link::Link;
    use ds_net::node::NodeConfig;
    use ds_net::prelude::{ClusterSim, NodeId, Process, SimTime};
    use parking_lot::Mutex;
    use std::sync::Arc;

    /// Sends `count` strings on start via the queue network.
    struct Producer {
        dest: QueueAddress,
        count: u32,
    }
    impl Process for Producer {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            for i in 0..self.count {
                send_via_queue(env, self.dest.clone(), "test", &format!("msg-{i}"), None)
                    .expect("marshal");
            }
        }
    }

    /// Attaches to a queue (re-attaching periodically, since an attach sent
    /// before the manager is up is silently dropped — the standard client
    /// pattern) and records everything received.
    struct Consumer {
        inner: QueueConsumer,
        seen: Arc<Mutex<Vec<String>>>,
    }
    impl Process for Consumer {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            self.inner.attach(env);
            env.set_timer(SimDuration::from_secs(1), 7);
        }
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            if let Ok(msg) = self.inner.handle_message(envelope, env) {
                let text: String = comsim::marshal::from_bytes(&msg.body).expect("decode");
                self.seen.lock().push(text);
            }
        }
        fn on_timer(&mut self, _token: u64, env: &mut dyn ProcessEnv) {
            self.inner.attach(env);
            env.set_timer(SimDuration::from_secs(1), 7);
        }
    }

    struct Fixture {
        cs: ClusterSim,
        a: NodeId,
        b: NodeId,
        stats_a: Arc<Mutex<QueueStats>>,
        stats_b: Arc<Mutex<QueueStats>>,
    }

    fn fixture(seed: u64) -> Fixture {
        let mut cs = ClusterSim::new(seed);
        let a = cs.add_node(NodeConfig::default());
        let b = cs.add_node(NodeConfig::default());
        cs.connect(a, b, Link::dual());
        let stats_a = Arc::new(Mutex::new(QueueStats::default()));
        let stats_b = Arc::new(Mutex::new(QueueStats::default()));
        for (node, stats) in [(a, stats_a.clone()), (b, stats_b.clone())] {
            cs.register_service(
                node,
                service_name(),
                Box::new(move || {
                    Box::new(QueueManager::new(QueueConfig::default(), stats.clone()))
                }),
                true,
            );
        }
        Fixture { cs, a, b, stats_a, stats_b }
    }

    /// Registers the producer to launch at t=1s, after the managers are up
    /// (apps start after system services, as on the paper's NT nodes).
    fn add_producer(fx: &mut Fixture, node: NodeId, dest: QueueAddress, count: u32) {
        fx.cs.register_service(
            node,
            "producer",
            Box::new(move || Box::new(Producer { dest: dest.clone(), count })),
            false,
        );
        fx.cs.start_service_at(SimTime::from_secs(1), node, "producer");
    }

    fn add_consumer(fx: &mut Fixture, node: NodeId, queue: &str) -> Arc<Mutex<Vec<String>>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        let manager = manager_endpoint(node);
        let queue = queue.to_string();
        fx.cs.register_service(
            node,
            "consumer",
            Box::new(move || {
                Box::new(Consumer {
                    inner: QueueConsumer::new(manager.clone(), queue.as_str()),
                    seen: s.clone(),
                })
            }),
            true,
        );
        seen
    }

    #[test]
    fn batch_enqueue_delivers_each_item_in_order() {
        struct BatchProducer {
            dest: QueueAddress,
        }
        impl Process for BatchProducer {
            fn on_start(&mut self, env: &mut dyn ProcessEnv) {
                let items = (0..10)
                    .map(|i| {
                        let body =
                            comsim::marshal::to_shared(&format!("msg-{i}")).expect("marshal");
                        ("test".to_string(), body)
                    })
                    .collect();
                send_batch_via_queue(env, self.dest.clone(), items, None);
                // Empty batches are a no-op, not an error.
                send_batch_via_queue(env, self.dest.clone(), Vec::new(), None);
            }
        }
        let mut fx = fixture(29);
        let (a, b) = (fx.a, fx.b);
        let dest = QueueAddress::new(b, "inbox");
        fx.cs.register_service(
            a,
            "producer",
            Box::new(move || Box::new(BatchProducer { dest: dest.clone() })),
            false,
        );
        fx.cs.start_service_at(SimTime::from_secs(1), a, "producer");
        let seen = add_consumer(&mut fx, b, "inbox");
        fx.cs.start();
        fx.cs.run_until(SimTime::from_secs(5));
        let got = seen.lock().clone();
        assert_eq!(got, (0..10).map(|i| format!("msg-{i}")).collect::<Vec<_>>());
        assert_eq!(fx.stats_a.lock().accepted, 10, "each batch item is its own message");
        assert_eq!(fx.stats_b.lock().delivered, 10);
    }

    #[test]
    fn cross_node_delivery_in_order() {
        let mut fx = fixture(21);
        let (a, b) = (fx.a, fx.b);
        add_producer(&mut fx, a, QueueAddress::new(b, "inbox"), 10);
        let seen = add_consumer(&mut fx, b, "inbox");
        fx.cs.start();
        fx.cs.run_until(SimTime::from_secs(5));
        let got = seen.lock().clone();
        assert_eq!(got, (0..10).map(|i| format!("msg-{i}")).collect::<Vec<_>>());
        assert_eq!(fx.stats_b.lock().delivered, 10);
        assert_eq!(fx.stats_b.lock().duplicates_dropped, 0);
    }

    #[test]
    fn lossy_network_still_delivers_exactly_once() {
        let mut fx = fixture(22);
        let (a, b) = (fx.a, fx.b);
        // Replace the link with a very lossy single path.
        fx.cs.connect(a, b, Link::new(vec![ds_net::link::PathConfig::default().with_loss(0.4)]));
        add_producer(&mut fx, a, QueueAddress::new(b, "inbox"), 20);
        let seen = add_consumer(&mut fx, b, "inbox");
        fx.cs.start();
        fx.cs.run_until(SimTime::from_secs(60));
        let got = seen.lock().clone();
        assert_eq!(got.len(), 20, "all messages delivered despite 40% loss");
        assert_eq!(got, (0..20).map(|i| format!("msg-{i}")).collect::<Vec<_>>());
        assert!(fx.stats_a.lock().retransmissions > 0, "40% loss must force retransmissions");
    }

    #[test]
    fn retransmission_after_consumption_is_dropped() {
        let mut fx = fixture(24);
        let (a, b) = (fx.a, fx.b);
        // A slow, jitter-free link opens a window between the transfer's
        // arrival at b (~1.1 s) and b's ack leaving: a partition over that
        // window loses the ack, so a resends after b's consumer took the
        // message.
        let slow =
            Fault::TuneLink { a, b, latency_us: 100_000, jitter_us: 0, bandwidth_bps: 12_500_000 };
        inject(&mut fx.cs, SimTime::ZERO, slow);
        inject(&mut fx.cs, SimTime::from_millis(1_050), Fault::Partition(a, b));
        inject(&mut fx.cs, SimTime::from_millis(1_400), Fault::Heal(a, b));
        add_producer(&mut fx, a, QueueAddress::new(b, "inbox"), 1);
        let seen = add_consumer(&mut fx, b, "inbox");
        fx.cs.start();
        fx.cs.run_until(SimTime::from_millis(1_400));
        assert_eq!(*seen.lock(), ["msg-0"], "consumed before any retransmission");
        assert_eq!(fx.stats_a.lock().transfers_acked, 0, "the ack was lost");
        assert_eq!(fx.stats_b.lock().duplicates_dropped, 0);
        fx.cs.run_until(SimTime::from_secs(5));
        assert_eq!(*seen.lock(), ["msg-0"], "the retransmission must not be redelivered");
        assert_eq!(fx.stats_b.lock().delivered, 1);
        assert!(fx.stats_a.lock().retransmissions > 0);
        assert!(fx.stats_b.lock().duplicates_dropped > 0);
        assert_eq!(fx.stats_a.lock().transfers_acked, 1, "the resent transfer is acked");
    }

    #[test]
    fn messages_survive_destination_outage() {
        let mut fx = fixture(23);
        let (a, b) = (fx.a, fx.b);
        add_producer(&mut fx, a, QueueAddress::new(b, "inbox"), 5);
        let seen = add_consumer(&mut fx, b, "inbox");
        // Destination node is down while the producer sends, then reboots.
        inject(&mut fx.cs, SimTime::from_micros(1), Fault::RebootNode(b));
        fx.cs.start();
        fx.cs.run_until(SimTime::from_secs(120));
        let got = seen.lock().clone();
        assert_eq!(got.len(), 5, "store-and-forward must ride out the outage");
    }

    #[test]
    fn ttl_expires_into_dead_letter_queue() {
        let mut fx = fixture(27);
        let (a, b) = (fx.a, fx.b);
        // No consumer; short TTL; destination node permanently down.
        struct ShortTtlProducer {
            dest: QueueAddress,
        }
        impl Process for ShortTtlProducer {
            fn on_start(&mut self, env: &mut dyn ProcessEnv) {
                send_via_queue(
                    env,
                    self.dest.clone(),
                    "test",
                    &"doomed".to_string(),
                    Some(SimDuration::from_secs(2)),
                )
                .expect("marshal");
            }
        }
        let dest = QueueAddress::new(b, "inbox");
        fx.cs.register_service(
            a,
            "producer",
            Box::new(move || Box::new(ShortTtlProducer { dest: dest.clone() })),
            true,
        );
        inject(&mut fx.cs, SimTime::from_micros(1), Fault::CrashNode(b));
        fx.cs.start();
        fx.cs.run_until(SimTime::from_secs(30));
        assert_eq!(fx.stats_a.lock().dead_lettered, 1);
    }

    #[test]
    fn reattach_redirects_delivery_to_new_consumer() {
        let mut fx = fixture(25);
        let (a, b) = (fx.a, fx.b);
        add_producer(&mut fx, a, QueueAddress::new(b, "inbox"), 50);
        let seen_b = add_consumer(&mut fx, b, "inbox");
        fx.cs.start();
        // Let some messages flow, then kill the consumer; redelivery must
        // hold messages until a new consumer attaches.
        fx.cs.run_until(SimTime::from_millis(800));
        let before = seen_b.lock().len();
        inject(&mut fx.cs, SimTime::from_millis(800), Fault::KillService(b, "consumer".into()));
        inject(&mut fx.cs, SimTime::from_secs(3), Fault::StartService(b, "consumer".into()));
        fx.cs.run_until(SimTime::from_secs(20));
        let after = seen_b.lock().len();
        assert_eq!(after, 50, "got {before} before kill, {after} total");
    }
}
