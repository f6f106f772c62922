//! ORPC — remote method calls over the simulated network.
//!
//! DCOM's remoting layer, reduced to its observable behaviour: marshaled
//! request/response pairs with per-call timeouts, and *no* built-in fault
//! tolerance — when a server process dies mid-call the client sees nothing
//! until its timeout fires (`RPC_E_TIMEOUT`), exactly the deficiency the
//! paper's Section 3.3 complains about and OFTT exists to mask.
//!
//! Three pieces:
//!
//! * [`RpcClient`] — embedded in a client actor; correlates calls, arms
//!   timeout timers, surfaces completions.
//! * [`ObjectServer`] — a [`Process`] hosting one [`ComObject`] and
//!   answering marshaled invokes.
//! * [`ScmProcess`] — the per-node Service Control Manager (RPCSS analog):
//!   resolves a CLSID to its hosting service so clients can bind (DCOM
//!   activation).

use std::collections::HashMap;
use std::sync::Arc;

use ds_net::endpoint::{Endpoint, ServiceName};
use ds_net::message::{Envelope, MsgBody};
use ds_net::process::{Process, ProcessEnv, TimerHandle};
use ds_sim::prelude::{SimDuration, TraceCategory};
use parking_lot::RwLock;
use serde::{de::DeserializeOwned, Serialize};

use crate::guid::{Clsid, Iid};
use crate::hresult::{ComError, ComResult, HResult};
use crate::marshal;
use crate::object::ComObject;
use crate::registry::ClassRegistry;

/// Timer tokens with this bit set belong to the RPC layer; actors embedding
/// an [`RpcClient`] must keep their own tokens below it.
pub const RPC_TIMER_BASE: u64 = 1 << 63;

/// Nominal per-message protocol overhead charged to the network, bytes.
const RPC_HEADER_BYTES: u64 = 48;

/// A marshaled remote call.
#[derive(Debug)]
pub struct RpcRequest {
    /// Client-chosen correlation id.
    pub call_id: u64,
    /// Target interface.
    pub iid: Iid,
    /// Method ordinal within the interface.
    pub method: u32,
    /// Marshaled arguments.
    pub args: Vec<u8>,
    /// Where the response should be sent.
    pub reply_to: Endpoint,
}

/// A marshaled remote-call response.
#[derive(Debug)]
pub struct RpcResponse {
    /// Correlates with [`RpcRequest::call_id`].
    pub call_id: u64,
    /// Marshaled return value or the failure HRESULT.
    pub outcome: Result<Vec<u8>, ComError>,
}

/// A finished call, successful or not.
#[derive(Debug)]
pub struct RpcCompletion {
    /// The call this completes.
    pub call_id: u64,
    /// Marshaled return value or the failure (including `RPC_E_TIMEOUT`).
    pub outcome: ComResult<Vec<u8>>,
}

/// Result of offering an incoming envelope to the RPC client.
#[derive(Debug)]
pub enum RpcPoll {
    /// The envelope completed an outstanding call.
    Completed(RpcCompletion),
    /// The envelope was a response to an unknown/expired call (dropped).
    Stale,
    /// Not an RPC response — the actor should handle it itself.
    NotRpc(Envelope),
}

struct PendingCall {
    timer: TimerHandle,
    server: Endpoint,
}

/// Client-side call state machine, embedded in an actor.
///
/// The owning actor forwards unrecognized messages to
/// [`RpcClient::handle_message`] and timer tokens ≥ [`RPC_TIMER_BASE`] to
/// [`RpcClient::handle_timer`], then reacts to the returned completions.
pub struct RpcClient {
    next_call: u64,
    pending: HashMap<u64, PendingCall>,
    timeout: SimDuration,
}

impl RpcClient {
    /// Creates a client with a per-call timeout.
    pub fn new(timeout: SimDuration) -> Self {
        RpcClient { next_call: 0, pending: HashMap::new(), timeout }
    }

    /// The configured per-call timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Number of calls in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Starts a call to `(iid, method)` on the object hosted at `server`,
    /// marshaling `args`. Returns the call id; completion arrives through
    /// [`RpcClient::handle_message`] / [`RpcClient::handle_timer`].
    ///
    /// # Errors
    ///
    /// Marshaling failures (`RPC_E_INVALID_DATA`).
    pub fn call<T: Serialize>(
        &mut self,
        env: &mut dyn ProcessEnv,
        server: Endpoint,
        iid: Iid,
        method: u32,
        args: &T,
    ) -> ComResult<u64> {
        let args = marshal::to_bytes(args)?;
        let call_id = self.next_call;
        self.next_call += 1;
        let timer = env.set_timer(self.timeout, RPC_TIMER_BASE | call_id);
        let size = RPC_HEADER_BYTES + args.len() as u64;
        let request = RpcRequest { call_id, iid, method, args, reply_to: env.self_endpoint() };
        env.send(server.clone(), MsgBody::new(request), size);
        self.pending.insert(call_id, PendingCall { timer, server });
        Ok(call_id)
    }

    /// Convenience: DCOM activation — asks the SCM on `node`'s `scm`
    /// service which service hosts `clsid`. The completion payload decodes
    /// as a `String` service name via [`decode_reply`].
    ///
    /// # Errors
    ///
    /// Marshaling failures (`RPC_E_INVALID_DATA`).
    pub fn activate(
        &mut self,
        env: &mut dyn ProcessEnv,
        scm: Endpoint,
        clsid: Clsid,
    ) -> ComResult<u64> {
        self.call(env, scm, iid_iactivation(), 0, &clsid)
    }

    /// Offers an incoming envelope; returns the completion if it was a
    /// response to one of our calls.
    pub fn handle_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) -> RpcPoll {
        if !envelope.body.is::<RpcResponse>() {
            return RpcPoll::NotRpc(envelope);
        }
        let response =
            envelope.body.downcast::<RpcResponse>().expect("checked with is::<RpcResponse>");
        let Some(pending) = self.pending.remove(&response.call_id) else {
            return RpcPoll::Stale;
        };
        env.cancel_timer(pending.timer);
        RpcPoll::Completed(RpcCompletion { call_id: response.call_id, outcome: response.outcome })
    }

    /// `true` if `token` belongs to the RPC layer.
    pub fn owns_timer(&self, token: u64) -> bool {
        token & RPC_TIMER_BASE != 0
    }

    /// Offers a fired timer token; returns a timeout completion if the call
    /// was still outstanding.
    pub fn handle_timer(&mut self, token: u64) -> Option<RpcCompletion> {
        if !self.owns_timer(token) {
            return None;
        }
        let call_id = token & !RPC_TIMER_BASE;
        let pending = self.pending.remove(&call_id)?;
        Some(RpcCompletion {
            call_id,
            outcome: Err(ComError::new(
                HResult::RPC_E_TIMEOUT,
                format!("call {call_id} to {} timed out", pending.server),
            )),
        })
    }

    /// Fails every in-flight call with `RPC_E_DISCONNECTED` (used when the
    /// client knows the binding died, e.g. on switchover).
    pub fn abort_all(&mut self, env: &mut dyn ProcessEnv) -> Vec<RpcCompletion> {
        let mut out = Vec::new();
        let ids: Vec<u64> = self.pending.keys().copied().collect();
        for call_id in ids {
            let pending = self.pending.remove(&call_id).expect("key just listed");
            env.cancel_timer(pending.timer);
            out.push(RpcCompletion {
                call_id,
                outcome: Err(ComError::new(
                    HResult::RPC_E_DISCONNECTED,
                    format!("call {call_id} to {} aborted", pending.server),
                )),
            });
        }
        out.sort_by_key(|c| c.call_id);
        out
    }
}

/// Decodes a successful completion payload.
///
/// # Errors
///
/// `RPC_E_INVALID_DATA` on malformed payloads.
pub fn decode_reply<T: DeserializeOwned>(bytes: &[u8]) -> ComResult<T> {
    Ok(marshal::from_bytes(bytes)?)
}

/// The activation interface served by the SCM.
pub fn iid_iactivation() -> Iid {
    Iid::from_name("IActivation")
}

/// A [`Process`] hosting a single [`ComObject`] and serving marshaled
/// invokes — the out-of-process COM server.
pub struct ObjectServer {
    object: ComObject,
    /// When `true`, every served call is recorded in the trace.
    pub trace_calls: bool,
}

impl ObjectServer {
    /// Hosts `object`.
    pub fn new(object: ComObject) -> Self {
        ObjectServer { object, trace_calls: false }
    }
}

impl Process for ObjectServer {
    fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
        let Ok(request) = envelope.body.downcast::<RpcRequest>() else {
            return; // not RPC traffic; a real server would also ignore it
        };
        let outcome = self.object.invoke(request.iid, request.method, &request.args, env.now());
        if self.trace_calls {
            let verdict = match &outcome {
                Ok(_) => "ok".to_string(),
                Err(e) => e.hresult().to_string(),
            };
            env.record(
                TraceCategory::Rpc,
                format!(
                    "{} served {}#{} -> {verdict}",
                    env.self_endpoint(),
                    request.iid,
                    request.method
                ),
            );
        }
        let size = RPC_HEADER_BYTES + outcome.as_ref().map(|b| b.len() as u64).unwrap_or(0);
        let response = RpcResponse { call_id: request.call_id, outcome };
        env.send(request.reply_to, MsgBody::new(response), size);
    }
}

/// The activation class behind the SCM: resolves CLSIDs to host services
/// from the node's shared [`ClassRegistry`].
pub struct ScmClass {
    registry: Arc<RwLock<ClassRegistry>>,
}

impl ScmClass {
    /// Creates the activation class over a node registry.
    pub fn new(registry: Arc<RwLock<ClassRegistry>>) -> Self {
        ScmClass { registry }
    }
}

impl crate::object::ComClass for ScmClass {
    fn clsid(&self) -> Clsid {
        Clsid::from_name("SCM")
    }

    fn interfaces(&self) -> Vec<Iid> {
        vec![iid_iactivation()]
    }

    fn invoke(
        &mut self,
        _iid: Iid,
        method: u32,
        args: &[u8],
        _now: ds_sim::prelude::SimTime,
    ) -> ComResult<Vec<u8>> {
        match method {
            0 => {
                let clsid: Clsid = marshal::from_bytes(args)?;
                let host = self.registry.read().host_service(clsid)?;
                Ok(marshal::to_bytes(&host.as_str())?)
            }
            _ => Err(ComError::new(HResult::E_INVALIDARG, format!("no SCM method {method}"))),
        }
    }
}

/// Builds the SCM process for a node — register it as service `"scm"`.
pub struct ScmProcess;

impl ScmProcess {
    /// Conventional service name for the per-node SCM.
    pub fn service_name() -> ServiceName {
        ServiceName::new("scm")
    }

    /// Builds the SCM object server over a shared registry.
    pub fn build(registry: Arc<RwLock<ClassRegistry>>) -> ObjectServer {
        ObjectServer::new(ComObject::new(Box::new(ScmClass::new(registry))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::ComClass;
    use ds_net::fault::{inject, Fault};
    use ds_net::link::Link;
    use ds_net::node::NodeConfig;
    use ds_net::prelude::{ClusterSim, NodeId, SimTime};
    use parking_lot::Mutex;

    struct Adder;
    impl ComClass for Adder {
        fn clsid(&self) -> Clsid {
            Clsid::from_name("Adder")
        }
        fn interfaces(&self) -> Vec<Iid> {
            vec![Iid::from_name("IAdder")]
        }
        fn invoke(
            &mut self,
            _iid: Iid,
            method: u32,
            args: &[u8],
            _now: ds_sim::prelude::SimTime,
        ) -> ComResult<Vec<u8>> {
            match method {
                0 => {
                    let (a, b): (i64, i64) = marshal::from_bytes(args)?;
                    Ok(marshal::to_bytes(&(a + b))?)
                }
                _ => Err(ComError::new(HResult::E_INVALIDARG, "bad method")),
            }
        }
    }

    /// A test client that issues one add call on start and stores the
    /// outcome.
    struct AddClient {
        server: Endpoint,
        rpc: RpcClient,
        result: Arc<Mutex<Option<ComResult<i64>>>>,
    }

    impl Process for AddClient {
        fn on_start(&mut self, env: &mut dyn ProcessEnv) {
            self.rpc
                .call(env, self.server.clone(), Iid::from_name("IAdder"), 0, &(40i64, 2i64))
                .expect("marshal");
        }
        fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
            if let RpcPoll::Completed(done) = self.rpc.handle_message(envelope, env) {
                *self.result.lock() =
                    Some(done.outcome.and_then(|bytes| decode_reply::<i64>(&bytes)));
            }
        }
        fn on_timer(&mut self, token: u64, _env: &mut dyn ProcessEnv) {
            if let Some(done) = self.rpc.handle_timer(token) {
                *self.result.lock() = Some(done.outcome.map(|_| unreachable!()));
            }
        }
    }

    fn pair(seed: u64) -> (ClusterSim, NodeId, NodeId) {
        let mut cs = ClusterSim::new(seed);
        let a = cs.add_node(NodeConfig::default());
        let b = cs.add_node(NodeConfig::default());
        cs.connect(a, b, Link::dual());
        (cs, a, b)
    }

    fn spawn_client(
        cs: &mut ClusterSim,
        node: NodeId,
        server: Endpoint,
        timeout: SimDuration,
    ) -> Arc<Mutex<Option<ComResult<i64>>>> {
        let result = Arc::new(Mutex::new(None));
        let r = result.clone();
        cs.register_service(
            node,
            "client",
            Box::new(move || {
                Box::new(AddClient {
                    server: server.clone(),
                    rpc: RpcClient::new(timeout),
                    result: r.clone(),
                })
            }),
            true,
        );
        result
    }

    #[test]
    fn remote_call_round_trips() {
        let (mut cs, a, b) = pair(11);
        cs.register_service(
            b,
            "adder",
            Box::new(|| Box::new(ObjectServer::new(ComObject::new(Box::new(Adder))))),
            true,
        );
        let result = spawn_client(&mut cs, a, Endpoint::new(b, "adder"), SimDuration::from_secs(1));
        cs.start();
        cs.run_until(SimTime::from_secs(3));
        assert_eq!(*result.lock(), Some(Ok(42)));
    }

    #[test]
    fn dead_server_yields_timeout_not_hang() {
        let (mut cs, a, b) = pair(12);
        // No adder service on b at all: DCOM-like silence, then timeout.
        let result =
            spawn_client(&mut cs, a, Endpoint::new(b, "adder"), SimDuration::from_millis(500));
        cs.start();
        cs.run_until(SimTime::from_secs(3));
        let got = result.lock().take().expect("completed");
        assert_eq!(got.unwrap_err().hresult(), HResult::RPC_E_TIMEOUT);
    }

    #[test]
    fn server_crash_mid_call_yields_timeout() {
        let (mut cs, a, b) = pair(13);
        cs.register_service(
            b,
            "adder",
            Box::new(|| Box::new(ObjectServer::new(ComObject::new(Box::new(Adder))))),
            true,
        );
        let result =
            spawn_client(&mut cs, a, Endpoint::new(b, "adder"), SimDuration::from_millis(500));
        // Crash the server node almost immediately — before the (jittered)
        // client start issues its call.
        inject(&mut cs, SimTime::from_micros(10), Fault::CrashNode(b));
        cs.start();
        cs.run_until(SimTime::from_secs(3));
        let got = result.lock().take().expect("completed");
        assert!(got.unwrap_err().is_connectivity());
    }

    #[test]
    fn scm_activation_resolves_host_service() {
        let (mut cs, a, b) = pair(14);
        let registry = Arc::new(RwLock::new(ClassRegistry::new()));
        registry.write().register(
            Clsid::from_name("Adder"),
            "adder".into(),
            Box::new(|| Box::new(Adder)),
        );
        let reg = registry.clone();
        cs.register_service(
            b,
            "scm",
            Box::new(move || Box::new(ScmProcess::build(reg.clone()))),
            true,
        );

        struct Activator {
            scm: Endpoint,
            rpc: RpcClient,
            resolved: Arc<Mutex<Option<ComResult<String>>>>,
        }
        impl Process for Activator {
            fn on_start(&mut self, env: &mut dyn ProcessEnv) {
                self.rpc.activate(env, self.scm.clone(), Clsid::from_name("Adder")).unwrap();
            }
            fn on_message(&mut self, envelope: Envelope, env: &mut dyn ProcessEnv) {
                if let RpcPoll::Completed(done) = self.rpc.handle_message(envelope, env) {
                    *self.resolved.lock() =
                        Some(done.outcome.and_then(|b| decode_reply::<String>(&b)));
                }
            }
        }

        let resolved = Arc::new(Mutex::new(None));
        let r = resolved.clone();
        let scm = Endpoint::new(b, "scm");
        cs.register_service(
            a,
            "activator",
            Box::new(move || {
                Box::new(Activator {
                    scm: scm.clone(),
                    rpc: RpcClient::new(SimDuration::from_secs(1)),
                    resolved: r.clone(),
                })
            }),
            true,
        );
        cs.start();
        cs.run_until(SimTime::from_secs(3));
        assert_eq!(resolved.lock().take().unwrap().unwrap(), "adder");
    }

    #[test]
    fn abort_all_fails_in_flight_calls() {
        // Pure state-machine test against a throwaway env via the cluster:
        // issue a call to nowhere, then abort before the timeout.
        let (mut cs, a, b) = pair(15);
        struct Aborter {
            server: Endpoint,
            rpc: RpcClient,
            seen: Arc<Mutex<Vec<HResult>>>,
        }
        impl Process for Aborter {
            fn on_start(&mut self, env: &mut dyn ProcessEnv) {
                self.rpc
                    .call(env, self.server.clone(), Iid::from_name("IAdder"), 0, &(1i64, 2i64))
                    .unwrap();
                assert_eq!(self.rpc.in_flight(), 1);
                for done in self.rpc.abort_all(env) {
                    self.seen.lock().push(done.outcome.unwrap_err().hresult());
                }
                assert_eq!(self.rpc.in_flight(), 0);
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        let server = Endpoint::new(b, "adder");
        cs.register_service(
            a,
            "aborter",
            Box::new(move || {
                Box::new(Aborter {
                    server: server.clone(),
                    rpc: RpcClient::new(SimDuration::from_secs(1)),
                    seen: s.clone(),
                })
            }),
            true,
        );
        cs.start();
        cs.run_until(SimTime::from_secs(3));
        assert_eq!(*seen.lock(), vec![HResult::RPC_E_DISCONNECTED]);
    }
}
