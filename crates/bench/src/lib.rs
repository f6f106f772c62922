//! Benchmark harness for the OFTT reproduction.
//!
//! * `src/bin/oftt_experiments.rs` — regenerates every table in
//!   EXPERIMENTS.md (`cargo run -p bench --release --bin oftt-experiments`).
//! * `src/bin/bench_checkpoint.rs` — emits `BENCH_checkpoint.json`, the
//!   full-vs-dirty checkpoint data-path grid
//!   (`cargo run -p bench --release --bin bench-checkpoint`).
//! * `src/bin/bench_validate.rs` — validates every CI artifact against its
//!   declared schema (the arms live in [`validate`]).

pub mod json;
pub mod validate;
