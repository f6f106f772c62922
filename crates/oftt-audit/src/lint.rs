//! OFTT API-lifecycle linter: a per-application DFA over the recorded
//! middleware call sequence.
//!
//! The toolkit reports misuse through return codes (`WatchdogError`), but
//! a control application is free to ignore them — the classic NT-era
//! failure mode the paper's API surface invites. The linter replays every
//! application's call stream against a model of the legal lifecycle and
//! flags:
//!
//! * checkpoint calls (`save`, `sel_save`) before `initialize`;
//! * `save` issued while the component holds the backup role;
//! * `watchdog_set` / `watchdog_reset` / `watchdog_delete` on a watchdog
//!   that does not exist or was already deleted (the ignored `NotFound`);
//! * watchdogs still live when the component deactivates — a leak, since
//!   nothing will ever feed them again.
//!
//! Process lifecycle events from the parsed trace (`ServiceStart`,
//! `ServiceKill`, `NodeDown`) reset the per-actor model: a fresh
//! incarnation starts from a blank slate. Watchdog membership resyncs
//! from the recorded `ok=` outcome, so the model never drifts from the
//! toolkit's actual table even across restore paths.

use std::collections::{BTreeMap, BTreeSet};

use ds_sim::causality::ApiEvent;
use oftt_check::parse::{node_of, Event, EventKind};

use crate::Finding;

/// Checkpoint calls that are illegal before `initialize`. Shared with
/// `oftt-lint`, whose static call-order rule enforces the same table at
/// source level so the two linters cannot drift apart.
pub const CHECKPOINT_CALLS: &[&str] = &["save", "sel_save"];

/// Calls after which a watchdog name exists (creation and restore both
/// count — a duplicate `watchdog_create` after a restore is legal).
pub const WATCHDOG_CREATE_CALLS: &[&str] = &["watchdog_create", "watchdog_restore"];

/// Calls that require the named watchdog to exist.
pub const WATCHDOG_USE_CALLS: &[&str] = &["watchdog_set", "watchdog_reset"];

/// The call that removes a watchdog; any later use of the same name
/// without re-creation is the ignored-`NotFound` misuse.
pub const WATCHDOG_DELETE_CALL: &str = "watchdog_delete";

/// Per-application lifecycle model.
#[derive(Debug, Default)]
struct AppState {
    initialized: bool,
    watchdogs: BTreeSet<String>,
}

/// Extracts `key=value` from a space-separated detail string.
fn field<'a>(detail: &'a str, key: &str) -> Option<&'a str> {
    detail
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

fn apply_reset(states: &mut BTreeMap<String, AppState>, event: &Event) {
    match &event.kind {
        EventKind::ServiceStart { ep } | EventKind::ServiceKill { ep } => {
            states.remove(ep);
        }
        EventKind::NodeDown { node } => {
            states.retain(|actor, _| node_of(actor) != node);
        }
        _ => {}
    }
}

fn apply_call(states: &mut BTreeMap<String, AppState>, call: &ApiEvent, out: &mut Vec<Finding>) {
    let state = states.entry(call.actor.clone()).or_default();
    let mut flag = |detail: String| {
        out.push(Finding { analyzer: "lint", at: call.at, detail });
    };
    let name = call.call.as_str();
    if name == "initialize" {
        state.initialized = true;
        state.watchdogs.clear();
    } else if CHECKPOINT_CALLS.contains(&name) {
        if !state.initialized {
            flag(format!("{} called {} before initialize", call.actor, call.call));
        }
        if name == "save" && field(&call.detail, "role") == Some("backup") {
            flag(format!("{} requested a checkpoint save while role=backup", call.actor));
        }
    } else if WATCHDOG_CREATE_CALLS.contains(&name) {
        // ok=false on a create means AlreadyExists (legal after a
        // restore); either way the watchdog exists afterwards.
        if let Some(wd) = field(&call.detail, "name") {
            state.watchdogs.insert(wd.to_string());
        }
    } else if WATCHDOG_USE_CALLS.contains(&name) {
        let Some(wd) = field(&call.detail, "name") else { return };
        if field(&call.detail, "ok") == Some("false") {
            flag(format!("{} {} on nonexistent or deleted watchdog '{wd}'", call.actor, call.call));
        } else {
            // The toolkit accepted it, so it exists — resync.
            state.watchdogs.insert(wd.to_string());
        }
    } else if name == WATCHDOG_DELETE_CALL {
        let Some(wd) = field(&call.detail, "name") else { return };
        if field(&call.detail, "ok") == Some("false") {
            flag(format!(
                "{} watchdog_delete on nonexistent or deleted watchdog '{wd}'",
                call.actor
            ));
        }
        state.watchdogs.remove(wd);
    } else if name == "deactivate" && !state.watchdogs.is_empty() {
        let leaked: Vec<&str> = state.watchdogs.iter().map(String::as_str).collect();
        flag(format!("{} deactivated with live watchdogs: {}", call.actor, leaked.join(", ")));
        state.watchdogs.clear();
    }
}

/// Replays the API call stream (merged with lifecycle resets from the
/// parsed trace) through the per-application DFA and returns every
/// violation. On equal timestamps lifecycle resets are applied before
/// calls, matching the scheduler's spawn-then-dispatch order.
pub fn lint_api_usage(events: &[Event], api_calls: &[ApiEvent]) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut states: BTreeMap<String, AppState> = BTreeMap::new();
    let (mut ei, mut ai) = (0, 0);
    while ei < events.len() || ai < api_calls.len() {
        let take_event =
            ei < events.len() && (ai >= api_calls.len() || events[ei].at <= api_calls[ai].at);
        if take_event {
            apply_reset(&mut states, &events[ei]);
            ei += 1;
        } else {
            apply_call(&mut states, &api_calls[ai], &mut out);
            ai += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_sim::prelude::{SimTime, VectorClock};

    fn call(ms: u64, actor: &str, name: &str, detail: &str) -> ApiEvent {
        ApiEvent {
            at: SimTime::from_millis(ms),
            actor: actor.to_string(),
            call: name.to_string(),
            detail: detail.to_string(),
            clock: VectorClock::new(),
        }
    }

    fn reset_event(ms: u64, kind: EventKind) -> Event {
        Event { at: SimTime::from_millis(ms), kind, clock: None }
    }

    /// The hand-written misuse fixture: one call sequence tripping every
    /// rule exactly once.
    #[test]
    fn misuse_fixture_trips_every_rule() {
        let api = vec![
            call(1, "node0/app", "save", "role=primary active=true"),
            call(2, "node0/app", "initialize", "service=app"),
            call(3, "node0/app", "watchdog_set", "name=ghost ok=false"),
            call(4, "node0/app", "watchdog_create", "name=wd ok=true"),
            call(5, "node0/app", "watchdog_delete", "name=wd ok=true"),
            call(6, "node0/app", "watchdog_reset", "name=wd ok=false"),
            call(7, "node0/app", "watchdog_delete", "name=wd ok=false"),
            call(8, "node0/app", "watchdog_create", "name=leak ok=true"),
            call(9, "node0/app", "save", "role=backup active=false"),
            call(10, "node0/app", "deactivate", "demoted"),
        ];
        let findings = lint_api_usage(&[], &api);
        let details: Vec<&str> = findings.iter().map(|f| f.detail.as_str()).collect();
        assert_eq!(
            details,
            vec![
                "node0/app called save before initialize",
                "node0/app watchdog_set on nonexistent or deleted watchdog 'ghost'",
                "node0/app watchdog_reset on nonexistent or deleted watchdog 'wd'",
                "node0/app watchdog_delete on nonexistent or deleted watchdog 'wd'",
                "node0/app requested a checkpoint save while role=backup",
                "node0/app deactivated with live watchdogs: leak",
            ]
        );
    }

    #[test]
    fn legal_lifecycle_is_clean() {
        let api = vec![
            call(1, "node0/app", "initialize", "service=app"),
            call(2, "node0/app", "watchdog_create", "name=wd ok=true"),
            call(3, "node0/app", "watchdog_set", "name=wd ok=true"),
            call(4, "node0/app", "watchdog_reset", "name=wd ok=true"),
            call(5, "node0/app", "save", "role=primary active=true"),
            call(6, "node0/app", "watchdog_delete", "name=wd ok=true"),
            call(7, "node0/app", "deactivate", "demoted"),
        ];
        assert!(lint_api_usage(&[], &api).is_empty());
    }

    #[test]
    fn restore_then_duplicate_create_is_tolerated() {
        let api = vec![
            call(1, "node0/app", "initialize", "service=app"),
            call(2, "node0/app", "watchdog_restore", "name=wd"),
            call(3, "node0/app", "watchdog_create", "name=wd ok=false"),
            call(4, "node0/app", "watchdog_set", "name=wd ok=true"),
        ];
        assert!(lint_api_usage(&[], &api).is_empty());
    }

    #[test]
    fn service_kill_resets_the_model() {
        let api = vec![
            call(1, "node0/app", "initialize", "service=app"),
            call(2, "node0/app", "watchdog_create", "name=wd ok=true"),
            // killed at t=3; the new incarnation reinitializes and
            // deactivates without ever owning a watchdog.
            call(5, "node0/app", "initialize", "service=app"),
            call(6, "node0/app", "deactivate", "demoted"),
        ];
        let events = vec![
            reset_event(3, EventKind::ServiceKill { ep: "node0/app".into() }),
            reset_event(4, EventKind::ServiceStart { ep: "node0/app".into() }),
        ];
        assert!(lint_api_usage(&events, &api).is_empty());
    }

    #[test]
    fn node_down_resets_every_service_on_the_node() {
        let api = vec![
            call(1, "node0/app", "initialize", "service=app"),
            call(2, "node0/app", "watchdog_create", "name=wd ok=true"),
            call(3, "node1/app", "initialize", "service=app"),
            call(4, "node1/app", "watchdog_create", "name=wd ok=true"),
            call(10, "node0/app", "initialize", "service=app"),
            call(11, "node0/app", "deactivate", "rebooted"),
            // node1 was untouched by the node0 crash: its leak still counts.
            call(12, "node1/app", "deactivate", "demoted"),
        ];
        let events = vec![reset_event(5, EventKind::NodeDown { node: "node0".into() })];
        let findings = lint_api_usage(&events, &api);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].detail.starts_with("node1/app deactivated"));
    }

    #[test]
    fn resets_apply_before_calls_on_equal_timestamps() {
        let api = vec![
            call(5, "node0/app", "initialize", "service=app"),
            call(5, "node0/app", "watchdog_create", "name=wd ok=true"),
            call(6, "node0/app", "watchdog_set", "name=wd ok=true"),
        ];
        let events = vec![reset_event(5, EventKind::ServiceStart { ep: "node0/app".into() })];
        assert!(lint_api_usage(&events, &api).is_empty());
    }
}
