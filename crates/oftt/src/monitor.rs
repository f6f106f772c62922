//! The System Monitor (paper §2.2.4).
//!
//! "Displays the status of the components in a process monitoring and
//! control system … it does not need to be present for the operation of
//! the OFTT fault tolerance provisions." Engines send periodic
//! [`StatusReport`]s; the monitor keeps the latest per node and renders a
//! text table (the paper's GUI reduced to its information content).

use std::collections::BTreeMap;
use std::sync::Arc;

use ds_net::endpoint::NodeId;
use ds_net::message::Envelope;
use ds_net::process::{Process, ProcessEnv};
use ds_net::transport::TransportReport;
use ds_sim::prelude::{SimDuration, SimTime};
use parking_lot::Mutex;

use crate::messages::StatusReport;

/// The monitor's current view, shared with examples/tests via `Arc`.
#[derive(Debug, Default)]
pub struct MonitorTable {
    rows: BTreeMap<NodeId, StatusReport>,
    /// Nodes whose engine has stopped reporting.
    stale: BTreeMap<NodeId, bool>,
    /// Latest transport health per node (wire backend only; the sim and
    /// live backends have no links to report).
    transport: BTreeMap<NodeId, TransportReport>,
}

impl MonitorTable {
    /// The latest report from `node`, if any.
    pub fn row(&self, node: NodeId) -> Option<&StatusReport> {
        self.rows.get(&node)
    }

    /// `true` if `node`'s engine has stopped reporting.
    pub fn is_stale(&self, node: NodeId) -> bool {
        self.stale.get(&node).copied().unwrap_or(false)
    }

    /// Nodes currently reporting the primary role (should be exactly one in
    /// a healthy pair).
    pub fn primaries(&self) -> Vec<NodeId> {
        self.rows
            .iter()
            .filter(|(node, r)| r.role == crate::role::Role::Primary && !self.is_stale(**node))
            .map(|(node, _)| *node)
            .collect()
    }

    /// Renders the operator display.
    pub fn render(&self, now: SimTime) -> String {
        let mut out = String::from(
            "NODE    ROLE         TERM  PEER  AGE      COMPONENTS\n\
             ------  -----------  ----  ----  -------  ----------------------------\n",
        );
        for (node, report) in &self.rows {
            let age = now.saturating_since(report.at);
            let stale = self.is_stale(*node);
            let components: Vec<String> = report
                .components
                .iter()
                .map(|c| {
                    format!(
                        "{}[{}{}]",
                        c.service,
                        if c.healthy { "OK" } else { "FAIL" },
                        if c.restart_attempts > 0 {
                            format!(",r{}", c.restart_attempts)
                        } else {
                            String::new()
                        }
                    )
                })
                .collect();
            out.push_str(&format!(
                "{:<6}  {:<11}  {:<4}  {:<4}  {:<7}  {}{}\n",
                node.to_string(),
                report.role.to_string(),
                report.term,
                if report.peer_visible { "yes" } else { "NO" },
                age.to_string(),
                components.join(" "),
                if stale { "  ** NOT REPORTING **" } else { "" },
            ));
        }
        if !self.transport.is_empty() {
            out.push_str(
                "\nNODE    PEER    LINK        EPOCH  RECONN  IN-BYTES   OUT-BYTES  DROPS\n\
                 ------  ------  ----------  -----  ------  ---------  ---------  -----\n",
            );
            for (node, report) in &self.transport {
                for peer in &report.peers {
                    out.push_str(&format!(
                        "{:<6}  {:<6}  {:<10}  {:<5}  {:<6}  {:<9}  {:<9}  {}\n",
                        node.to_string(),
                        peer.peer.to_string(),
                        peer.state.to_string(),
                        peer.epoch,
                        peer.reconnects,
                        peer.bytes_in,
                        peer.bytes_out,
                        peer.dropped_heartbeats + peer.dropped_frames + peer.purged,
                    ));
                }
            }
        }
        out
    }
}

const STALE_TOKEN: u64 = 1;

/// The monitor process (service suggestion: `"oftt-monitor"`).
pub struct SystemMonitor {
    table: Arc<Mutex<MonitorTable>>,
    stale_after: SimDuration,
    check_period: SimDuration,
    last_seen: BTreeMap<NodeId, SimTime>,
}

impl SystemMonitor {
    /// Creates a monitor marking nodes stale after `stale_after` silence;
    /// `table` is the shared display state.
    pub fn new(stale_after: SimDuration, table: Arc<Mutex<MonitorTable>>) -> Self {
        SystemMonitor {
            table,
            stale_after,
            check_period: SimDuration::from_millis(500),
            last_seen: BTreeMap::new(),
        }
    }
}

impl Process for SystemMonitor {
    fn on_start(&mut self, env: &mut dyn ProcessEnv) {
        env.set_timer(self.check_period, STALE_TOKEN);
    }

    fn on_timer(&mut self, token: u64, env: &mut dyn ProcessEnv) {
        if token != STALE_TOKEN {
            return;
        }
        let now = env.now();
        {
            let mut table = self.table.lock();
            for (node, last) in &self.last_seen {
                let stale = now.saturating_since(*last) > self.stale_after;
                table.stale.insert(*node, stale);
            }
        }
        env.set_timer(self.check_period, STALE_TOKEN);
    }

    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        match envelope.body.downcast::<StatusReport>() {
            Ok(report) => {
                let node = report.node;
                self.last_seen.insert(node, env.now());
                let mut table = self.table.lock();
                table.stale.insert(node, false);
                table.rows.insert(node, report);
            }
            Err(body) => {
                if let Ok(report) = body.downcast::<TransportReport>() {
                    self.table.lock().transport.insert(report.node, report);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::ComponentStatus;
    use crate::role::Role;

    fn report(node: u16, role: Role, at: SimTime) -> StatusReport {
        StatusReport {
            node: NodeId(node),
            role,
            term: 1,
            peer_visible: true,
            components: vec![ComponentStatus {
                service: "call-track".into(),
                kind: crate::messages::FtimKind::OpcClient,
                healthy: true,
                restart_attempts: 1,
            }],
            at,
        }
    }

    #[test]
    fn table_tracks_latest_and_primaries() {
        let mut table = MonitorTable::default();
        table.rows.insert(NodeId(0), report(0, Role::Primary, SimTime::from_secs(1)));
        table.rows.insert(NodeId(1), report(1, Role::Backup, SimTime::from_secs(1)));
        assert_eq!(table.primaries(), vec![NodeId(0)]);
        table.stale.insert(NodeId(0), true);
        assert!(table.primaries().is_empty(), "stale primaries don't count");
    }

    #[test]
    fn render_contains_the_facts() {
        let mut table = MonitorTable::default();
        table.rows.insert(NodeId(0), report(0, Role::Primary, SimTime::from_secs(1)));
        let text = table.render(SimTime::from_secs(3));
        assert!(text.contains("node0"));
        assert!(text.contains("primary"));
        assert!(text.contains("call-track[OK,r1]"));
        assert!(text.contains("2.000s"), "age column:\n{text}");
        assert!(!text.contains("LINK"), "no transport section without reports:\n{text}");
    }

    #[test]
    fn render_includes_transport_health_rows() {
        use ds_net::transport::{LinkState, PeerHealth};
        let mut table = MonitorTable::default();
        table.rows.insert(NodeId(0), report(0, Role::Primary, SimTime::from_secs(1)));
        table.transport.insert(
            NodeId(0),
            TransportReport {
                node: NodeId(0),
                peers: vec![PeerHealth {
                    peer: NodeId(1),
                    state: LinkState::Backoff,
                    epoch: 3,
                    reconnects: 2,
                    bytes_in: 4096,
                    bytes_out: 8192,
                    queued: 0,
                    dropped_heartbeats: 1,
                    dropped_frames: 1,
                    purged: 0,
                }],
                at: SimTime::from_secs(2),
            },
        );
        let text = table.render(SimTime::from_secs(3));
        assert!(text.contains("LINK"), "transport header:\n{text}");
        assert!(text.contains("backoff"), "state column:\n{text}");
        assert!(text.contains("4096"), "bytes-in column:\n{text}");
        assert!(text.contains("8192"), "bytes-out column:\n{text}");
        let drops_row = text.lines().find(|l| l.contains("backoff")).unwrap();
        assert!(drops_row.trim_end().ends_with('2'), "summed drops column:\n{text}");
    }
}
