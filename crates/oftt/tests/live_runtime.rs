//! The same toolkit code on the live (real-thread) runtime: engines
//! negotiate, checkpoints flow, and killing the primary's processes moves
//! the application to the backup — in wall-clock time, no simulator.
//!
//! Timings are kept small but generous (polling with deadlines) so the
//! tests are robust on loaded machines.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ds_net::endpoint::{Endpoint, NodeId};
use ds_net::host::LocalHost;
use ds_sim::prelude::SimDuration;
use oftt::checkpoint::VarSet;
use oftt::config::{engine_endpoint, OfttConfig, Pair, RecoveryRule};
use oftt::engine::{Engine, EngineProbe};
use oftt::ftim::{FtApplication, FtCtx, FtProcess, FtimProbe};
use oftt::role::Role;
use parking_lot::Mutex;

struct TickCounter {
    count: u64,
    view: Arc<Mutex<(u64, bool)>>,
}

const TICK: u64 = 1;

impl FtApplication for TickCounter {
    fn snapshot(&self) -> VarSet {
        [("count".to_string(), comsim::marshal::to_shared(&self.count).unwrap())]
            .into_iter()
            .collect()
    }
    fn restore(&mut self, image: &VarSet) {
        if let Some(bytes) = image.get("count") {
            self.count = comsim::marshal::from_bytes(bytes).unwrap();
        }
        *self.view.lock() = (self.count, false);
    }
    fn on_activate(&mut self, ctx: &mut FtCtx<'_>) {
        *self.view.lock() = (self.count, true);
        ctx.env().set_timer(SimDuration::from_millis(20), TICK);
    }
    fn on_deactivate(&mut self, _ctx: &mut FtCtx<'_>) {
        let count = self.count;
        *self.view.lock() = (count, false);
    }
    fn on_app_timer(&mut self, token: u64, ctx: &mut FtCtx<'_>) {
        if token == TICK {
            self.count += 1;
            *self.view.lock() = (self.count, true);
            ctx.env().set_timer(SimDuration::from_millis(20), TICK);
        }
    }
}

fn live_config(pair: Pair) -> OfttConfig {
    let mut config = OfttConfig::new(pair);
    config.heartbeat_period = SimDuration::from_millis(50);
    config.component_timeout = SimDuration::from_millis(400);
    config.peer_timeout = SimDuration::from_millis(400);
    config.fail_safe_timeout = SimDuration::from_millis(250);
    config.checkpoint_period = SimDuration::from_millis(100);
    config.startup_timeout = SimDuration::from_millis(500);
    config
}

fn wait_for(cond: impl Fn() -> bool, timeout: Duration) -> bool {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

struct LiveRig {
    net: LocalHost,
    a: NodeId,
    b: NodeId,
    probes: [Arc<Mutex<EngineProbe>>; 2],
    views: [Arc<Mutex<(u64, bool)>>; 2],
}

fn build_live(seed: u64) -> LiveRig {
    let (a, b) = (NodeId(0), NodeId(1));
    let pair = Pair::new(a, b);
    let config = live_config(pair);
    let net = LocalHost::new(seed);
    let probes = [
        Arc::new(Mutex::new(EngineProbe::default())),
        Arc::new(Mutex::new(EngineProbe::default())),
    ];
    let views = [Arc::new(Mutex::new((0, false))), Arc::new(Mutex::new((0, false)))];
    for (idx, node) in [a, b].into_iter().enumerate() {
        let engine_config = config.clone();
        let probe = probes[idx].clone();
        net.register(
            engine_endpoint(node),
            Box::new(move || Box::new(Engine::new(engine_config.clone(), probe.clone()))),
        );
        let app_config = config.clone();
        let view = views[idx].clone();
        let ftim = Arc::new(Mutex::new(FtimProbe::default()));
        net.register(
            Endpoint::new(node, "counter"),
            Box::new(move || {
                Box::new(FtProcess::new(
                    app_config.clone(),
                    RecoveryRule::LocalRestart { max_attempts: 1 },
                    TickCounter { count: 0, view: view.clone() },
                    ftim.clone(),
                ))
            }),
        );
    }
    for node in [a, b] {
        net.start(&engine_endpoint(node));
        net.start(&Endpoint::new(node, "counter"));
    }
    LiveRig { net, a, b, probes, views }
}

#[test]
fn live_pair_elects_one_primary_and_counts() {
    let rig = build_live(1);
    assert!(
        wait_for(
            || {
                let roles: Vec<_> = rig.probes.iter().map(|p| p.lock().current_role()).collect();
                matches!(
                    (roles[0], roles[1]),
                    (Some(Role::Primary), Some(Role::Backup))
                        | (Some(Role::Backup), Some(Role::Primary))
                )
            },
            Duration::from_secs(5)
        ),
        "live pair must form"
    );
    // The active copy counts in real time.
    assert!(
        wait_for(
            || rig.views.iter().any(|v| {
                let (count, active) = *v.lock();
                active && count > 10
            }),
            Duration::from_secs(5)
        ),
        "the active counter must advance"
    );
    rig.net.shutdown();
}

#[test]
fn live_primary_kill_moves_the_application() {
    let rig = build_live(2);
    assert!(wait_for(
        || rig.probes.iter().any(|p| p.lock().current_role() == Some(Role::Primary)),
        Duration::from_secs(5)
    ));
    // Find the primary side.
    let primary_idx =
        if rig.probes[0].lock().current_role() == Some(Role::Primary) { 0 } else { 1 };
    let primary_node = if primary_idx == 0 { rig.a } else { rig.b };
    let backup_idx = 1 - primary_idx;

    // Let some state accumulate, then kill BOTH the engine and the app on
    // the primary node (the closest live analog of a node failure).
    assert!(wait_for(|| rig.views[primary_idx].lock().0 > 20, Duration::from_secs(5)));
    let count_before = rig.views[primary_idx].lock().0;
    rig.net.kill(&engine_endpoint(primary_node));
    rig.net.kill(&Endpoint::new(primary_node, "counter"));

    // The backup takes over and resumes from a checkpoint near the crash
    // point, then keeps counting.
    assert!(
        wait_for(
            || {
                let (count, active) = *rig.views[backup_idx].lock();
                active && count > count_before
            },
            Duration::from_secs(10)
        ),
        "backup must take over and pass the pre-crash count"
    );
    assert_eq!(rig.probes[backup_idx].lock().current_role(), Some(Role::Primary));
    rig.net.shutdown();
}

/// A message from outside reaches whichever copy is active (the live
/// runtime delivers app traffic like the simulator does).
#[test]
fn live_external_messages_reach_the_active_copy() {
    // Posting to both copies' endpoints must not panic or wedge a thread:
    // the active FTIM hands the message to the app, the inactive one drops
    // it.
    let rig = build_live(3);
    assert!(wait_for(
        || rig.probes.iter().any(|p| p.lock().current_role() == Some(Role::Primary)),
        Duration::from_secs(5)
    ));
    for node in [rig.a, rig.b] {
        rig.net.post(Endpoint::new(node, "counter"), "hello".to_string());
    }
    assert!(wait_for(|| rig.views.iter().any(|v| v.lock().1), Duration::from_secs(5)));
    rig.net.shutdown();
}
