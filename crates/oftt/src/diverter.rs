//! The Message Diverter (paper §2.2.3).
//!
//! "The Message Diverter allows the primary/backup nodes to be a consistent
//! logic unit … handles all I/O messages to and from applications, and
//! diverts messages to the correct node." External producers send
//! [`DivertMsg`]s to their node's diverter process; the diverter tracks the
//! pair's current primary (by querying both engines) and enqueues each
//! message — through the local `msgq` manager, which owns reliability —
//! to the primary node's application inbox queue. On a switchover it
//! retargets unacknowledged transfers at the new primary, which is how
//! "message non-delivery is detected and retried".

use std::collections::VecDeque;

use comsim::buf::Bytes;
use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv, ProcessEnvExt};
use ds_sim::prelude::{SimDuration, TraceCategory};
use msgq::client::send_batch_via_queue;
use msgq::manager::{manager_endpoint, ManagerMsg};
use msgq::queue::{QueueAddress, QueueName};
use serde::Serialize;

use crate::config::{engine_endpoint, OfttConfig, APP_IN_QUEUE};
use crate::messages::{RoleReport, ToEngine};
use crate::role::{Claim, Role};

/// A message handed to the diverter for delivery to the logical
/// application.
#[derive(Debug)]
pub struct DivertMsg {
    /// Application routing label.
    pub label: String,
    /// Marshaled payload (shared buffer — parked, enqueued, and retried
    /// copies all reference the same allocation).
    pub body: Bytes,
}

/// Marshals `payload` and sends it to a diverter.
///
/// # Errors
///
/// Returns the marshaling failure message on encode errors.
pub fn divert<T: Serialize>(
    env: &mut dyn ProcessEnv,
    diverter: Endpoint,
    label: impl Into<String>,
    payload: &T,
) -> Result<(), String> {
    let body = comsim::marshal::to_shared(payload).map_err(|e| e.to_string())?;
    let size = 64 + body.len() as u64;
    env.send_sized(diverter, DivertMsg { label: label.into(), body }, size);
    Ok(())
}

/// Conventional service name for diverter processes.
pub fn diverter_service() -> ds_net::endpoint::ServiceName {
    ds_net::endpoint::ServiceName::new("oftt-diverter")
}

const POLL_TOKEN: u64 = 1;

/// The diverter process — deploy one on every node that originates traffic
/// for the pair (e.g. the paper's Test and Interface PC).
pub struct Diverter {
    config: OfttConfig,
    queue: QueueName,
    poll_period: SimDuration,
    primary: Option<Claim>,
    /// Messages held until the first primary is discovered.
    parked: VecDeque<DivertMsg>,
    /// When `false`, the diverter pins to the first primary it discovers
    /// and never repoints traffic — the "no diverter logic" baseline used
    /// by experiment E8.
    retarget: bool,
}

impl Diverter {
    /// Creates a diverter for the pair in `config`, delivering into each
    /// node's [`APP_IN_QUEUE`].
    pub fn new(config: OfttConfig) -> Self {
        Diverter::with_retarget(config, true)
    }

    /// Creates a diverter with switchover retargeting enabled or disabled
    /// (disabled = the naive fixed-destination baseline).
    pub fn with_retarget(config: OfttConfig, retarget: bool) -> Self {
        let poll_period = config.heartbeat_period;
        Diverter {
            config,
            queue: QueueName::new(APP_IN_QUEUE),
            poll_period,
            primary: None,
            parked: VecDeque::new(),
            retarget,
        }
    }

    fn enqueue(&self, msg: DivertMsg, primary: NodeId, env: &mut dyn ProcessEnv) {
        let dest = QueueAddress { node: primary, queue: self.queue.clone() };
        let size = 64 + msg.body.len() as u64;
        let local_manager = manager_endpoint(env.self_endpoint().node);
        env.record(
            TraceCategory::Diverter,
            format!("{}: enqueue to {} ({})", env.self_endpoint(), primary, msg.label),
        );
        env.send_sized(
            local_manager,
            ManagerMsg::Enqueue { dest, label: msg.label, body: msg.body, ttl: None },
            size,
        );
    }

    /// Flushes every parked message to the newly discovered primary as ONE
    /// batch hand-off to the local manager (each message keeps its own
    /// identity, ordering, and trace record — only the wire hop is
    /// coalesced).
    fn flush_parked(&mut self, primary: NodeId, env: &mut dyn ProcessEnv) {
        if self.parked.is_empty() {
            return;
        }
        let dest = QueueAddress { node: primary, queue: self.queue.clone() };
        let mut items = Vec::with_capacity(self.parked.len());
        while let Some(msg) = self.parked.pop_front() {
            env.record(
                TraceCategory::Diverter,
                format!("{}: enqueue to {} ({})", env.self_endpoint(), primary, msg.label),
            );
            items.push((msg.label, msg.body));
        }
        send_batch_via_queue(env, dest, items, None);
    }
}

impl Process for Diverter {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        env.set_timer(SimDuration::ZERO, POLL_TOKEN);
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        if token != POLL_TOKEN {
            return;
        }
        for node in [self.config.pair.a, self.config.pair.b] {
            env.send_msg(engine_endpoint(node), ToEngine::QueryRole);
        }
        env.set_timer(self.poll_period, POLL_TOKEN);
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let from = envelope.from.clone();
        if envelope.body.is::<RoleReport>() {
            let report = match crate::messages::decode_body::<RoleReport>(envelope.body, &from) {
                Ok(report) => report,
                Err(err) => {
                    env.record(
                        TraceCategory::Diverter,
                        format!("{}: dropped: {err}", env.self_endpoint()),
                    );
                    return;
                }
            };
            if report.role != Role::Primary {
                return;
            }
            let claim = Claim::new(report.term, report.node);
            let supersedes = match self.primary {
                None => true,
                Some(current) => {
                    self.retarget && current.node != claim.node && claim.beats(&current)
                }
            };
            if supersedes {
                let old = self.primary.map(|c| c.node);
                self.primary = Some(claim);
                env.record(
                    TraceCategory::Diverter,
                    format!(
                        "{}: primary is now {} (was {:?})",
                        env.self_endpoint(),
                        claim.node,
                        old
                    ),
                );
                let local_manager = manager_endpoint(env.self_endpoint().node);
                if let Some(old) = old {
                    // The switchover path: repoint undelivered traffic.
                    env.send_msg(
                        local_manager.clone(),
                        ManagerMsg::RetargetNode { from_node: old, to_node: claim.node },
                    );
                }
                self.flush_parked(claim.node, env);
            } else if let Some(current) = self.primary.filter(|c| c.node == claim.node) {
                // Same primary, possibly a newer term — track it.
                if claim.term > current.term {
                    self.primary = Some(claim);
                }
            }
        } else if envelope.body.is::<DivertMsg>() {
            let msg = match crate::messages::decode_body::<DivertMsg>(envelope.body, &from) {
                Ok(msg) => msg,
                Err(err) => {
                    env.record(
                        TraceCategory::Diverter,
                        format!("{}: dropped: {err}", env.self_endpoint()),
                    );
                    return;
                }
            };
            match self.primary {
                Some(claim) => self.enqueue(msg, claim.node, env),
                None => self.parked.push_back(msg),
            }
        }
    }
}
