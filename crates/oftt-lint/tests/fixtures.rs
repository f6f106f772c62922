//! Each seeded-defect fixture under `fixtures/` must fire exactly its
//! own rule family — the positive half of the analyzer's contract (the
//! negative half, zero findings on the real tree, is
//! `workspace_clean.rs`).

use std::path::PathBuf;

use oftt_lint::{run_scan, Options};

fn scan_fixture(name: &str) -> oftt_lint::report::Report {
    scan_fixtures(&[name])
}

/// Scans several fixture files as one set — for defects that only exist
/// across a file boundary.
fn scan_fixtures(names: &[&str]) -> oftt_lint::report::Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let paths: Vec<PathBuf> = names.iter().map(|name| root.join("fixtures").join(name)).collect();
    for path in &paths {
        assert!(path.is_file(), "missing fixture {}", path.display());
    }
    run_scan(&Options { root, paths, ..Options::default() })
}

fn rules_fired(report: &oftt_lint::report::Report) -> Vec<&str> {
    let mut rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
    rules.dedup();
    rules
}

#[test]
fn role_leak_fixture_fires_role_confinement() {
    let report = scan_fixture("role_leak.rs");
    assert_eq!(rules_fired(&report), ["role-confinement"]);
    // Both the `.role =` and the `.term +=` store are caught.
    assert_eq!(report.findings.len(), 2);
    assert!(report.findings.iter().all(|f| f.message.contains("sneak_promote")));
}

#[test]
fn lock_cycle_fixture_fires_lock_order() {
    let report = scan_fixture("lock_cycle.rs");
    assert_eq!(rules_fired(&report), ["lock-order"]);
    let cycle = &report.findings[0];
    assert!(cycle.message.contains("alpha"), "{}", cycle.message);
    assert!(cycle.message.contains("beta"), "{}", cycle.message);
    // Both orderings made it into the static graph.
    assert!(report.lock_edges.contains(&("alpha".into(), "beta".into())));
    assert!(report.lock_edges.contains(&("beta".into(), "alpha".into())));
}

#[test]
fn blocking_fixture_fires_nonblocking() {
    let report = scan_fixture("blocking.rs");
    assert_eq!(rules_fired(&report), ["nonblocking"]);
    let names: Vec<&str> =
        report.findings.iter().map(|f| f.message.split('`').nth(1).unwrap_or("")).collect();
    assert_eq!(names, ["sleep", "recv"]);
}

#[test]
fn lifecycle_fixture_fires_api_lifecycle() {
    let report = scan_fixture("lifecycle.rs");
    assert_eq!(rules_fired(&report), ["api-lifecycle"]);
    assert_eq!(report.findings.len(), 2);
    assert!(report.findings[0].message.contains("after `watchdog_delete`"));
    assert!(report.findings[1].message.contains("before `initialize`"));
}

#[test]
fn panics_fixture_fires_no_panic() {
    let report = scan_fixture("panics.rs");
    assert_eq!(rules_fired(&report), ["no-panic"]);
    // Index, panic!, unwrap — in line order.
    assert_eq!(report.findings.len(), 3);
}

#[test]
fn drift_fixture_fires_annotation_drift() {
    let report = scan_fixtures(&["drift/codec.rs", "drift/journal.rs"]);
    assert_eq!(rules_fired(&report), ["annotation-drift"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.file, "fixtures/drift/codec.rs");
    // The witness names the blocking primitive in the other file.
    assert!(f.message.contains("write_all (fixtures/drift/journal.rs:7)"), "{}", f.message);
}

#[test]
fn hot_blocking_fixture_fires_reactor_hot_path() {
    let report = scan_fixture("hot_blocking.rs");
    assert_eq!(rules_fired(&report), ["reactor-hot-path"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("blocking call `sleep`"), "{}", f.message);
    // The witness chain spells the full path from the root.
    assert!(f.message.contains("on_frame → step → nap"), "{}", f.message);
}

#[test]
fn hot_panic_fixture_fires_reactor_hot_path() {
    let report = scan_fixture("hot_panic.rs");
    assert_eq!(rules_fired(&report), ["reactor-hot-path"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("panic path `index`"), "{}", f.message);
    assert!(f.message.contains("on_frame → decode"), "{}", f.message);
}

#[test]
fn guard_block_fixture_fires_lock_across_blocking() {
    let report = scan_fixture("guard_block.rs");
    assert_eq!(rules_fired(&report), ["lock-across-blocking"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("`state`"), "{}", f.message);
    assert!(f.message.contains("`persist`"), "{}", f.message);
    // The blocking ground is named even though it is two calls away.
    assert!(f.message.contains("sleep"), "{}", f.message);
}

#[test]
fn transitive_cycle_fixture_fires_lock_order() {
    let report = scan_fixture("transitive_cycle.rs");
    assert_eq!(rules_fired(&report), ["lock-order"]);
    let cycle = &report.findings[0];
    assert!(cycle.message.contains("outer"), "{}", cycle.message);
    assert!(cycle.message.contains("inner"), "{}", cycle.message);
    // No single function nests the pair: both edges are call-derived.
    assert!(report.lock_edges.contains(&("outer".into(), "inner".into())));
    assert!(report.lock_edges.contains(&("inner".into(), "outer".into())));
}

#[test]
fn use_after_recycle_fixture_fires_pool_typestate() {
    let report = scan_fixture("use_after_recycle.rs");
    assert_eq!(rules_fired(&report), ["pool-typestate"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("`buf` used after it may already be recycled"), "{}", f.message);
}

#[test]
fn double_recycle_fixture_fires_pool_typestate() {
    let report = scan_fixture("double_recycle.rs");
    assert_eq!(rules_fired(&report), ["pool-typestate"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("recycled again"), "{}", f.message);
    assert!(f.message.contains("double-inserted"), "{}", f.message);
}

#[test]
fn leak_on_error_path_fixture_fires_pool_typestate() {
    let report = scan_fixture("leak_on_error_path.rs");
    assert_eq!(rules_fired(&report), ["pool-typestate"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("may reach function exit without ship or recycle"), "{}", f.message);
    // The happy path ships — only the `?` edge leaks, and the dataflow
    // still sees it.
    assert!(f.message.contains("`buf`"), "{}", f.message);
}

#[test]
fn unstamped_epoch_fixture_fires_epoch_stamping() {
    let report = scan_fixture("unstamped_epoch.rs");
    assert_eq!(rules_fired(&report), ["epoch-stamping"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("without an epoch stamp"), "{}", f.message);
    assert!(f.message.contains("StampedFrame"), "{}", f.message);
}

#[test]
fn dfa_violation_fixture_fires_conn_dfa() {
    let report = scan_fixture("dfa_violation.rs");
    assert_eq!(rules_fired(&report), ["conn-dfa"]);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert!(f.message.contains("`new => Established`"), "{}", f.message);
    // The declared AwaitHello construction in the same file is silent.
    assert_eq!(report.dfa_transitions, 2);
}

#[test]
fn fixtures_are_invisible_to_the_workspace_walk() {
    assert_eq!(oftt_lint::classify("crates/oftt-lint/fixtures/lock_cycle.rs"), None);
}
