//! The contract rule: the `nonblocking`, `no-panic` and `reactor-root`
//! directives are one mechanism — a *scope* plus the effect kinds it
//! forbids — checked against the effect analysis ([`crate::effects`]),
//! the crate's only recognizer of blocking and panic primitives.
//!
//! | directive | scope | forbidden | rule |
//! |---|---|---|---|
//! | `nonblocking` | every fn in a file carrying it | blocks, `.lock()` | `nonblocking` |
//! | `no-panic` | every fn in a file carrying it | panics | `no-panic` |
//! | `reactor-root` | every fn reachable from a root, minus `cold-path` subtrees | blocks, panics, non-arena allocs, havoc | `reactor-hot-path` |
//!
//! Why these contracts exist: OFTT detects failures by heartbeat, so a
//! middleware thread that blocks or panics looks like a dead node and
//! triggers a needless switchover — and the deterministic simulator
//! never blocks for real, so only a static check surfaces it. On the
//! reactor the stakes are the whole fleet: a fixed pool of io threads
//! serves *every* connection, so one blocking call under a handler
//! stalls all of them. There havoc — a call resolution cannot see — is
//! a violation too: on the hot path an unproved call is an unmet proof
//! obligation. `.lock()` is the converse case: a nonblocking module
//! must not take a blocking mutex at all (`try_lock` is the escape
//! hatch), while short lock sections are legitimate on the hot path
//! and policed by the lock-order rules instead.
//!
//! Every forbidden primitive inside a scope is a finding. The two
//! file-scoped contracts also follow calls *out* of the scope: a call
//! whose callee's effect is grounded in another file is
//! `annotation-drift` — the directive claims a contract the code no
//! longer keeps. Drift uses only definite effects (chains ending in a
//! known primitive), so havoc never fires it. The hot-path walk is
//! breadth-first, so its witness chains are shortest paths.

use std::collections::{BTreeMap, BTreeSet};

use crate::effects::{Analysis, EffectKind, FnInfo, Source};
use crate::report::Finding;
use crate::scanner::FileModel;

/// A file-scoped contract: its directive (also the rule name of its
/// primitive findings), the effect it forbids, and the verb drift
/// findings use for that effect.
struct FileContract {
    directive: &'static str,
    forbids: EffectKind,
    verb: &'static str,
}

const FILE_CONTRACTS: [FileContract; 2] = [
    FileContract { directive: "nonblocking", forbids: EffectKind::Blocks, verb: "blocks" },
    FileContract { directive: "no-panic", forbids: EffectKind::Panics, verb: "may panic" },
];

/// Checks every contract against the analysis.
pub fn check(models: &[(String, FileModel)], analysis: &Analysis) -> Vec<Finding> {
    let mut out = Vec::new();
    let reachable = analysis.reactor_reachable();
    let parents: BTreeMap<_, _> = reachable.iter().copied().collect();
    for &(f, _) in &reachable {
        let info = &analysis.fns[f];
        if info.prims.is_empty() {
            continue;
        }
        let scope = format!("on the reactor hot path (via {})", analysis.root_chain(&parents, f));
        for prim in &info.prims {
            out.push(finding("reactor-hot-path", info, prim.line, prim.kind, &prim.what, &scope));
        }
    }
    let mut drift_seen: BTreeSet<(&str, u32, &str)> = BTreeSet::new();
    for info in &analysis.fns {
        for c in &FILE_CONTRACTS {
            if !models[info.model].1.has_file_directive(c.directive) {
                continue;
            }
            let scope = format!("in a module annotated `// oftt-lint: {}`", c.directive);
            for prim in info.prims.iter().filter(|p| p.kind == c.forbids) {
                out.push(finding(c.directive, info, prim.line, prim.kind, &prim.what, &scope));
            }
            for call in &info.calls {
                // `.lock()` carries no effect of its own (the lock
                // machinery owns it), so it shows up as a bare call.
                if c.forbids == EffectKind::Blocks && call.name == "lock" && call.prim.is_none() {
                    out.push(finding(c.directive, info, call.line, c.forbids, "lock", &scope));
                }
                let Some(&g) =
                    call.targets.iter().find(|&&g| analysis.effects[g].get(c.forbids).is_some())
                else {
                    continue;
                };
                // A primitive grounded in this same file is in scope and
                // already reported above.
                if grounding_file(analysis, g, c.forbids) == Some(info.file.as_str())
                    || !drift_seen.insert((&info.file, call.line, c.directive))
                {
                    continue;
                }
                let witness =
                    analysis.witness(g, c.forbids).unwrap_or_else(|| analysis.fns[g].name.clone());
                out.push(Finding {
                    rule: "annotation-drift",
                    file: info.file.clone(),
                    line: call.line,
                    message: format!(
                        "module is annotated `// oftt-lint: {}` but `{}` calls `{}`, which {}: \
                         {witness}",
                        c.directive, info.name, call.name, c.verb
                    ),
                });
            }
        }
    }
    out
}

/// A forbidden primitive `what` of `kind` at `line` of `info`, reported
/// under `rule`; `scope` says which contract it broke.
fn finding(
    rule: &'static str,
    info: &FnInfo,
    line: u32,
    kind: EffectKind,
    what: &str,
    scope: &str,
) -> Finding {
    let label = kind.label();
    let message = match kind {
        EffectKind::Allocs => format!("{label} `{what}` outside the BufPool arena {scope}"),
        EffectKind::Havoc => format!(
            "{label} `{what}` {scope} — the nonblocking/no-panic proof cannot close over it; \
             resolve it or teach the effect tables"
        ),
        EffectKind::Blocks | EffectKind::Panics => format!("{label} `{what}` {scope}"),
    };
    Finding { rule, file: info.file.clone(), line, message }
}

/// The file containing the primitive that grounds `kind` on `f`.
fn grounding_file(analysis: &Analysis, f: usize, kind: EffectKind) -> Option<&str> {
    let mut cur = f;
    for _ in 0..64 {
        match analysis.effects[cur].get(kind)? {
            Source::Prim { .. } => return Some(analysis.fns[cur].file.as_str()),
            Source::Call { callee, .. } => cur = *callee,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::{scan, FileKind};

    fn findings(sources: &[(&str, &str)]) -> Vec<Finding> {
        let models: Vec<(String, FileModel)> = sources
            .iter()
            .map(|(name, src)| (name.to_string(), scan(src, FileKind::Runtime, false)))
            .collect();
        let mut out = check(&models, &Analysis::analyze(&models));
        out.sort();
        out
    }

    fn one(src: &str) -> Vec<Finding> {
        findings(&[("a.rs", src)])
    }

    const NONBLOCKING: &str = "// oftt-lint: nonblocking\n";
    const NO_PANIC: &str = "// oftt-lint: no-panic\n";

    // -- nonblocking ---------------------------------------------------

    #[test]
    fn sleep_in_a_nonblocking_module_is_flagged() {
        let out = one(&format!(
            "{NONBLOCKING}fn f() {{ std::thread::sleep(Duration::from_millis(5)); }}"
        ));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "nonblocking");
        assert!(out[0].message.contains("`sleep`"));
    }

    #[test]
    fn lock_is_blocking_but_try_lock_is_not() {
        let out = one(&format!("{NONBLOCKING}fn f(&self) {{ self.a.lock(); self.b.try_lock(); }}"));
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`lock`"));
    }

    #[test]
    fn unannotated_files_are_not_checked() {
        assert!(one("fn f(x: Option<u8>) { std::thread::sleep(d); x.unwrap(); }").is_empty());
    }

    #[test]
    fn defining_a_fn_named_like_a_blocking_call_is_fine() {
        let out =
            one(&format!("{NONBLOCKING}fn flush(&mut self) -> usize {{ self.pending.len() }}"));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_in_a_nonblocking_module_may_block() {
        let out = one(&format!(
            "{NONBLOCKING}fn f() {{}}\n#[cfg(test)] mod tests {{ fn t() {{ rx.recv(); }} }}"
        ));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn stdio_macros_block_a_nonblocking_module() {
        let out = one(&format!("{NONBLOCKING}fn f(n: u32) {{ println!(\"{{n}}\"); }}"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "nonblocking");
        assert!(out[0].message.contains("`println!`"), "{}", out[0].message);
    }

    #[test]
    fn dns_resolution_blocks_a_nonblocking_module() {
        let out = one(&format!("{NONBLOCKING}fn f(addr: &str) {{ addr.to_socket_addrs(); }}"));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "nonblocking");
        assert!(out[0].message.contains("`to_socket_addrs`"), "{}", out[0].message);
    }

    #[test]
    fn same_file_helper_primitives_are_in_scope() {
        // `report` prints *inside* the annotated file: the helper is in
        // the contract's scope, so its primitive is the finding — and
        // drift, which is about leaving the scope, stays silent.
        let out = one(&format!(
            "{NONBLOCKING}fn encode(&self) {{ report(); }}\nfn report() {{ eprintln!(\"x\"); }}"
        ));
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "nonblocking");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("`eprintln!`"), "{}", out[0].message);
    }

    // -- no-panic ------------------------------------------------------

    #[test]
    fn unwrap_and_expect_are_flagged() {
        let out =
            one(&format!("{NO_PANIC}fn f(x: Option<u8>) {{ x.unwrap(); x.expect(\"oops\"); }}"));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|f| f.rule == "no-panic"));
    }

    #[test]
    fn unwrap_on_a_receiver_without_a_base_name_is_flagged() {
        let out = one(&format!(
            "{NO_PANIC}fn f(x: Option<Option<u8>>) -> Option<u8> {{ Some(x?.unwrap()) }}\n\
             fn g() -> u8 {{ \"7\".parse::<u8>().expect(\"digit\") }}"
        ));
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn panic_macros_are_flagged_but_debug_assert_is_not() {
        let out = one(&format!(
            "{NO_PANIC}fn f() {{ assert!(true); debug_assert!(true); unreachable!(); }}"
        ));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn index_expressions_are_flagged() {
        let out = one(&format!("{NO_PANIC}fn f(raw: &[u8]) -> u8 {{ raw[6] + raw[1..3][0] }}"));
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn non_index_bracket_positions_are_silent() {
        let out = one(&format!(
            "{NO_PANIC}fn f() -> [u8; 2] {{ let v = vec![1, 2]; let [a, b] = [v[0]; 2]; [0, 0] }}"
        ));
        // Only `v[0]` indexes; the array type, vec! macro, slice
        // pattern, and array literals do not.
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn unwrap_or_variants_are_not_unwrap() {
        let out = one(&format!(
            "{NO_PANIC}fn f(x: Option<u8>) -> u8 {{ x.unwrap_or(0).min(x.unwrap_or_default()) }}"
        ));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn test_code_may_panic() {
        let out = one(&format!(
            "{NO_PANIC}fn f() {{}}\n#[cfg(test)] mod tests {{ fn t() {{ x.unwrap(); a[0]; }} }}"
        ));
        assert!(out.is_empty(), "{out:?}");
    }

    // -- annotation-drift ----------------------------------------------

    #[test]
    fn nonblocking_module_calling_a_blocking_helper_elsewhere_is_drift() {
        let out = findings(&[
            ("codec.rs", "// oftt-lint: nonblocking\nfn encode(&self) { net_flush(); }"),
            ("io.rs", "fn net_flush() { stream.flush(); }"),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "annotation-drift");
        assert_eq!(out[0].file, "codec.rs");
        assert!(out[0].message.contains("net_flush: flush (io.rs:1)"), "{}", out[0].message);
    }

    #[test]
    fn no_panic_module_calling_an_unwrapping_helper_is_drift() {
        let out = findings(&[
            ("frame.rs", "// oftt-lint: no-panic\nfn parse(&self) { decode_header(h); }"),
            ("util.rs", "fn decode_header(h: H) -> u8 { h.field.unwrap() }"),
        ]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "annotation-drift");
        assert!(out[0].message.contains("may panic"));
    }

    #[test]
    fn havoc_never_fires_drift() {
        let out = one(&format!("{NONBLOCKING}fn encode(&self) {{ mystery(); }}"));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unannotated_modules_do_not_drift() {
        let out = findings(&[
            ("a.rs", "fn f() { net_flush(); }"),
            ("io.rs", "fn net_flush() { stream.flush(); }"),
        ]);
        assert!(out.is_empty(), "{out:?}");
    }

    // -- reactor-root --------------------------------------------------

    #[test]
    fn blocking_two_calls_deep_is_flagged_with_the_chain() {
        let out = one("// oftt-lint: reactor-root\n\
             fn on_frame() { step(); }\n\
             fn step() { nap(); }\n\
             fn nap() { std::thread::sleep(d); }");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "reactor-hot-path");
        assert_eq!(out[0].line, 4);
        assert_eq!(
            out[0].message,
            "blocking call `sleep` on the reactor hot path (via on_frame → step → nap)"
        );
    }

    #[test]
    fn unreachable_code_may_block_freely() {
        let out = one("// oftt-lint: reactor-root\n\
             fn on_frame() {}\n\
             fn dial_loop() { std::thread::sleep(d); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn locks_are_allowed_on_the_hot_path() {
        let out = one("// oftt-lint: reactor-root\nfn on_frame(&self) { self.state.lock(); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn arena_allocation_is_sanctioned_but_other_allocation_is_not() {
        let out = one("// oftt-lint: reactor-root\n\
             fn on_frame(&self) { self.pool_take(); stray(); }\n\
             // oftt-lint: arena\n\
             fn pool_take(&self) -> Vec<u8> { Vec::with_capacity(64) }\n\
             fn stray() -> String { format!(\"x\") }");
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].message,
            "allocation `format!` outside the BufPool arena on the reactor hot path \
             (via on_frame → stray)"
        );
    }

    #[test]
    fn cold_path_annotation_stops_the_walk() {
        let out = one("// oftt-lint: reactor-root\n\
             fn on_frame(&self) { self.handle_hello(); self.fast(); }\n\
             // oftt-lint: cold-path\n\
             fn handle_hello(&self) { self.greet(); }\n\
             fn greet(&self) -> String { format!(\"hi\") }\n\
             fn fast(&self) {}");
        assert!(out.is_empty(), "cold subtree must be exempt: {out:?}");
    }

    #[test]
    fn cold_functions_stay_flagged_when_reached_warm() {
        // A fn reachable through a cold annotation AND a warm edge is
        // still on the hot path via the warm edge.
        let out = one("// oftt-lint: reactor-root\n\
             fn on_frame(&self) { self.handle_hello(); self.greet(); }\n\
             // oftt-lint: cold-path\n\
             fn handle_hello(&self) { self.greet(); }\n\
             fn greet(&self) -> String { format!(\"hi\") }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("`format!`"));
    }

    #[test]
    fn havoc_on_the_hot_path_is_an_unmet_proof_obligation() {
        let out = one("// oftt-lint: reactor-root\nfn on_frame() { mystery(); }");
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].message,
            "unresolvable call `mystery` on the reactor hot path (via on_frame) — the \
             nonblocking/no-panic proof cannot close over it; resolve it or teach the effect \
             tables"
        );
    }
}
