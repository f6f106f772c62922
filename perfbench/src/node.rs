//! `node-failover`: real `oftt-node` pairs at the workload's write load.
//! Each cycle forms a fresh pair, holds a steady phase while CPU and RSS
//! are sampled from `/proc`, then SIGKILLs the primary and times the
//! survivor's promotion and application restart.
//!
//! Only the stdout lines the wire smoke test already relies on are read
//! (`READY`, `role=…`, `ckpt installed`, `application ACTIVE`,
//! `ckpt restore position`). Event times come from each line's trace
//! timestamp, mapped onto this process's clock by the smallest observed
//! print delay, so the node's 25 ms print loop adds no jitter.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oftt_wire::harness::{free_port, parse_ckpt_triple};

use crate::procfs;

/// 10k × 64 B variables, `dirty` of them dirtied per 20 ms tick, a
/// checkpoint every 100 ms (the acceptance workload dirties 20).
fn node_config(node: u16, port: u16, peer: u16, peer_port: u16, seed: u64, dirty: usize) -> String {
    format!(
        "node = {node}\n\
         listen = \"127.0.0.1:{port}\"\n\
         peer = \"{peer}@127.0.0.1:{peer_port}\"\n\
         monitor_node = 0\n\
         heartbeat_ms = 50\n\
         component_timeout_ms = 400\n\
         peer_timeout_ms = 400\n\
         fail_safe_ms = 250\n\
         checkpoint_ms = 100\n\
         startup_ms = 500\n\
         status_ms = 200\n\
         app_vars = 10000\n\
         app_var_bytes = 64\n\
         app_dirty_per_tick = {dirty}\n\
         app_tick_ms = 20\n\
         io_threads = 2\n\
         run_for_ms = 120000\n\
         seed = {seed}\n"
    )
}

/// Reactor threads each node runs (the `io_threads` key above).
pub const NODE_IO_THREADS: usize = 2;

type Lines = Arc<Mutex<Vec<(Instant, String)>>>;

/// A spawned `oftt-node` whose stdout lines are stamped on arrival.
struct Node {
    child: Child,
    lines: Lines,
    reader: Option<JoinHandle<()>>,
}

impl Node {
    fn spawn(bin: &Path, config: &Path) -> Result<Node, String> {
        let mut child = Command::new(bin)
            .arg("--config")
            .arg(config)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let lines: Lines = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&lines);
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                sink.lock().expect("line sink poisoned").push((Instant::now(), line));
            }
        });
        Ok(Node { child, lines, reader: Some(reader) })
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn len(&self) -> usize {
        self.lines.lock().expect("lines poisoned").len()
    }

    /// The first line at index `from` or later containing `needle`.
    fn find(&self, from: usize, needle: &str) -> Option<(usize, Instant, String)> {
        let lines = self.lines.lock().expect("lines poisoned");
        lines
            .iter()
            .enumerate()
            .skip(from)
            .find(|(_, (_, l))| l.contains(needle))
            .map(|(i, (t, l))| (i, *t, l.clone()))
    }

    fn wait(
        &self,
        from: usize,
        needle: &str,
        timeout: Duration,
    ) -> Option<(usize, Instant, String)> {
        let start = Instant::now();
        loop {
            if let Some(hit) = self.find(from, needle) {
                return Some(hit);
            }
            if start.elapsed() > timeout {
                return None;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// When the node recorded `line`, on this process's clock.
    fn recorded_at(&self, line: &str) -> Option<Instant> {
        let ts = trace_secs(line)?;
        let lines = self.lines.lock().expect("lines poisoned");
        // arrival = record time + print delay; the smallest delay seen
        // over all lines pins the node's clock origin.
        let origin = lines
            .iter()
            .filter_map(|(at, l)| {
                trace_secs(l).and_then(|s| at.checked_sub(Duration::from_secs_f64(s)))
            })
            .min()?;
        Some(origin + Duration::from_secs_f64(ts))
    }

    /// SIGKILL, then reap the process and its reader thread.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Seconds from a trace line's `[12.345678s …]` prefix.
fn trace_secs(line: &str) -> Option<f64> {
    let rest = line.strip_prefix('[')?;
    rest[..rest.find('s')?].trim().parse().ok()
}

/// One kill cycle's measurements (milliseconds unless named otherwise).
#[derive(Debug, Clone, Default)]
pub struct Cycle {
    pub ready_ms: f64,
    pub pair_ms: f64,
    pub promote_ms: f64,
    pub activate_ms: f64,
    pub failover_ms: f64,
    pub steady_s: f64,
    pub cpu_ms_primary: f64,
    pub cpu_ms_backup: f64,
    pub rss_kb_start: f64,
    pub rss_kb_end: f64,
    pub threads: f64,
    pub trace_lines: f64,
}

fn ms_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1000.0
}

/// Runs one cycle; `Err` names what went wrong (a failed cycle).
pub fn cycle(
    bin: &Path,
    dir: &Path,
    seed: u64,
    index: u64,
    dirty: usize,
    steady: Duration,
) -> Result<Cycle, String> {
    let (port_a, port_b) = (free_port(), free_port());
    let node_seed = seed.wrapping_mul(1_000).wrapping_add(index * 2);
    let config_a = dir.join(format!("node-a-{index}.toml"));
    let config_b = dir.join(format!("node-b-{index}.toml"));
    std::fs::write(&config_a, node_config(0, port_a, 1, port_b, node_seed, dirty))
        .map_err(|e| e.to_string())?;
    std::fs::write(&config_b, node_config(1, port_b, 0, port_a, node_seed + 1, dirty))
        .map_err(|e| e.to_string())?;
    let spawned = Instant::now();
    let mut nodes = [Node::spawn(bin, &config_a)?, Node::spawn(bin, &config_b)?];
    let mut out = Cycle::default();

    let long = Duration::from_secs(15);
    for node in &nodes {
        let (_, at, _) = node.wait(0, "READY", long).ok_or("a node never printed READY")?;
        out.ready_ms = out.ready_ms.max(ms_between(spawned, at));
    }
    let start = Instant::now();
    let primary = loop {
        if let Some(p) = (0..2).find(|&i| nodes[i].find(0, "role=primary").is_some()) {
            break p;
        }
        if start.elapsed() > long {
            return Err("no node became primary".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let backup = 1 - primary;
    nodes[backup].wait(0, "role=backup", long).ok_or("the peer never became backup")?;
    let (_, installed_at, _) =
        nodes[backup].wait(0, "ckpt installed", long).ok_or("no checkpoint was ever installed")?;
    out.pair_ms = ms_between(spawned, installed_at);

    // Steady phase.
    let (pp, bp) = (nodes[primary].pid(), nodes[backup].pid());
    let t0 = Instant::now();
    let (cpu_p0, cpu_b0) = (procfs::process_cpu_ms(pp), procfs::process_cpu_ms(bp));
    let rss0 = procfs::rss_kb(pp).unwrap_or(0);
    let lines0 = nodes[0].len() + nodes[1].len();
    std::thread::sleep(steady);
    let (cpu_p1, cpu_b1) = (procfs::process_cpu_ms(pp), procfs::process_cpu_ms(bp));
    let rss1 = procfs::rss_kb(pp).unwrap_or(0);
    let lines1 = nodes[0].len() + nodes[1].len();
    out.steady_s = t0.elapsed().as_secs_f64();
    out.cpu_ms_primary = cpu_p1 - cpu_p0;
    out.cpu_ms_backup = cpu_b1 - cpu_b0;
    out.rss_kb_start = rss0 as f64;
    out.rss_kb_end = rss1 as f64;
    out.threads = procfs::thread_count(pp) as f64;
    out.trace_lines = (lines1 - lines0) as f64;

    // Kill the primary; the survivor must promote, restore, and resume.
    let from = nodes[backup].len();
    let killed = Instant::now();
    nodes[primary].kill();
    let survivor = &nodes[backup];
    let (_, _, promoted) =
        survivor.wait(from, "role=primary", long).ok_or("the backup never promoted")?;
    let (_, _, active) =
        survivor.wait(from, "application ACTIVE", long).ok_or("the application never resumed")?;
    let (restore_idx, _, restore) = survivor
        .wait(from, "ckpt restore position", long)
        .ok_or("no restore position was logged")?;
    let promoted_at = survivor.recorded_at(&promoted).ok_or("unstamped role line")?;
    let active_at = survivor.recorded_at(&active).ok_or("unstamped ACTIVE line")?;
    out.promote_ms = ms_between(killed, promoted_at);
    out.activate_ms = ms_between(promoted_at, active_at);
    out.failover_ms = ms_between(killed, active_at);

    // The restored image must be the last one installed.
    let restored = parse_ckpt_triple(&restore).ok_or("unparseable restore position")?;
    let last_installed = {
        let lines = survivor.lines.lock().expect("lines poisoned");
        lines[..restore_idx]
            .iter()
            .rev()
            .find(|(_, l)| l.contains("ckpt installed"))
            .map(|(_, l)| l.clone())
    };
    let installed = last_installed
        .as_deref()
        .and_then(parse_ckpt_triple)
        .ok_or("nothing installed before restore")?;
    if restored != installed {
        return Err(format!("restored {restored:?} but the last install was {installed:?}"));
    }
    nodes[backup].kill();
    Ok(out)
}

/// Where the `oftt-node` binary built next to this one lives.
pub fn node_bin() -> Result<PathBuf, String> {
    let bin = oftt_wire::harness::oftt_node_bin();
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} is missing (build it with the oftt-wire package)", bin.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_timestamps_parse() {
        assert_eq!(trace_secs("[12.300000s engine] node1/oftt-engine: role=primary"), Some(12.3));
        assert_eq!(trace_secs("READY node=0 listen=127.0.0.1:1"), None);
    }
}
