//! Seeded defect for the annotation-drift rule, file 1 of 2: a module
//! that declares the bounded-latency contract and keeps it in its own
//! code, but calls a helper in `journal.rs` that syncs to disk. No
//! primitive in this file is wrong — only the call graph shows that the
//! directive no longer holds. Not compiled — scanned by
//! `tests/fixtures.rs` together with `journal.rs`.

// oftt-lint: nonblocking

fn encode_frame(out: &mut Vec<u8>, seq: u64) {
    out.extend_from_slice(&seq.to_le_bytes());
    persist_frame(out);
}
