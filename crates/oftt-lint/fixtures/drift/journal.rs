//! Seeded defect for the annotation-drift rule, file 2 of 2: an
//! unannotated helper that blocks. Blocking here is allowed; calling it
//! from the nonblocking `codec.rs` is the defect.

fn persist_frame(frame: &[u8]) {
    let mut file = open_journal();
    file.write_all(frame);
    file.sync_all();
}

fn open_journal() -> Journal {
    Journal::default()
}
