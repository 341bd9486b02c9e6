//! Trace replay: re-price a recorded MPF run on the Balance 21000 model.
//!
//! The per-process trace rings (`mpf_shm::tracering`) record what a
//! native program *did* — which process sent/received how many bytes on
//! which conversation, and how much time passed between its MPF calls.  This
//! module replays such a schedule on the simulated machine: communication
//! is re-priced by the calibrated cost model, and the gaps between a
//! process's operations become `Compute` phases (scaled from host
//! nanoseconds to Balance cycles by a caller-chosen factor).
//!
//! The result answers the paper's own motivating question (§1): *what
//! would this program cost on the other machine?* — a type-architecture
//! estimate backed by a measured schedule rather than a hand model.
//!
//! The format here is deliberately neutral (no dependency on `mpf-core`);
//! `mpf-bench` converts an `mpf_trace::TraceLog` into a [`ReplaySchedule`].

use std::collections::BTreeMap;

use crate::costs::CostModel;
use crate::driver::{Driver, DriverOp, OpResult, RecvKind};
use crate::engine::{Engine, EngineReport};
use crate::machine::MachineConfig;

/// One recorded operation of one process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayOp {
    /// Local computation for this many simulated cycles.
    Compute(u64),
    /// Send `len` bytes on conversation `lnvc`.
    Send {
        /// Conversation index (dense, per schedule).
        lnvc: usize,
        /// Payload bytes.
        len: usize,
    },
    /// Blocking FCFS receive on `lnvc`.
    RecvFcfs {
        /// Conversation index.
        lnvc: usize,
    },
    /// Blocking broadcast receive on `lnvc` (cursor allocated at build).
    RecvBroadcast {
        /// Conversation index.
        lnvc: usize,
    },
}

/// A complete replayable run: per-process operation lists over a set of
/// conversations.
#[derive(Debug, Clone, Default)]
pub struct ReplaySchedule {
    /// Number of conversations referenced.
    pub lnvcs: usize,
    /// Per-process operation sequences (process = outer index).
    pub procs: Vec<Vec<ReplayOp>>,
}

impl ReplaySchedule {
    /// Builds a schedule from `(pid, at_ns, op)` triples, converting
    /// inter-op gaps within each process into `Compute` phases at
    /// `cycles_per_ns` (e.g. `0.01` maps one host microsecond to ten
    /// Balance cycles).  `pid`/`lnvc` values may be sparse; they are
    /// densified.
    pub fn from_timed_ops(timed: &[(u32, u64, ReplayOp)], cycles_per_ns: f64) -> Self {
        let mut pid_map: BTreeMap<u32, usize> = BTreeMap::new();
        let mut lnvc_map: BTreeMap<usize, usize> = BTreeMap::new();
        for (pid, _, op) in timed {
            let next = pid_map.len();
            pid_map.entry(*pid).or_insert(next);
            if let ReplayOp::Send { lnvc, .. }
            | ReplayOp::RecvFcfs { lnvc }
            | ReplayOp::RecvBroadcast { lnvc } = op
            {
                let next = lnvc_map.len();
                lnvc_map.entry(*lnvc).or_insert(next);
            }
        }
        let mut procs: Vec<Vec<ReplayOp>> = vec![Vec::new(); pid_map.len()];
        let mut last_at: Vec<Option<u64>> = vec![None; pid_map.len()];
        let remap = |op: ReplayOp| match op {
            ReplayOp::Send { lnvc, len } => ReplayOp::Send {
                lnvc: lnvc_map[&lnvc],
                len,
            },
            ReplayOp::RecvFcfs { lnvc } => ReplayOp::RecvFcfs {
                lnvc: lnvc_map[&lnvc],
            },
            ReplayOp::RecvBroadcast { lnvc } => ReplayOp::RecvBroadcast {
                lnvc: lnvc_map[&lnvc],
            },
            other => other,
        };
        for (pid, at, op) in timed {
            let p = pid_map[pid];
            if let Some(prev) = last_at[p] {
                let gap_cycles = ((at.saturating_sub(prev)) as f64 * cycles_per_ns) as u64;
                if gap_cycles > 0 {
                    procs[p].push(ReplayOp::Compute(gap_cycles));
                }
            }
            last_at[p] = Some(*at);
            procs[p].push(remap(*op));
        }
        Self {
            lnvcs: lnvc_map.len(),
            procs,
        }
    }

    /// Total sends across all processes.
    pub fn total_sends(&self) -> usize {
        self.procs
            .iter()
            .flatten()
            .filter(|op| matches!(op, ReplayOp::Send { .. }))
            .count()
    }
}

struct ReplayDriver {
    ops: std::vec::IntoIter<ReplayOp>,
    /// Broadcast cursor per conversation, assigned at engine setup.
    cursors: Vec<Option<usize>>,
}

impl Driver for ReplayDriver {
    fn next(&mut self, _last: OpResult) -> DriverOp {
        match self.ops.next() {
            None => DriverOp::Stop,
            Some(ReplayOp::Compute(c)) => DriverOp::Compute(c),
            Some(ReplayOp::Send { lnvc, len }) => DriverOp::Send { lnvc, len },
            Some(ReplayOp::RecvFcfs { lnvc }) => DriverOp::Recv {
                lnvc,
                kind: RecvKind::Fcfs,
            },
            Some(ReplayOp::RecvBroadcast { lnvc }) => DriverOp::Recv {
                lnvc,
                kind: RecvKind::Broadcast(
                    self.cursors[lnvc].expect("cursor registered for broadcast receiver"),
                ),
            },
        }
    }
}

/// Replays `schedule` on `machine` and returns the simulated report
/// (elapsed Balance cycles, throughput, bus utilization …).
pub fn replay(
    machine: &MachineConfig,
    costs: &CostModel,
    schedule: &ReplaySchedule,
) -> EngineReport {
    let mut engine = Engine::new(machine.clone(), costs.clone(), schedule.procs.len() as u32);
    let lnvcs: Vec<usize> = (0..schedule.lnvcs).map(|_| engine.add_lnvc()).collect();
    for ops in &schedule.procs {
        // Register one broadcast cursor per conversation this process
        // broadcast-receives on.
        let mut cursors: Vec<Option<usize>> = vec![None; schedule.lnvcs];
        for op in ops {
            if let ReplayOp::RecvBroadcast { lnvc } = op {
                if cursors[*lnvc].is_none() {
                    cursors[*lnvc] = Some(engine.add_broadcast_receiver(lnvcs[*lnvc]));
                }
            }
        }
        engine.add_proc(Box::new(ReplayDriver {
            ops: ops.clone().into_iter(),
            cursors,
        }));
    }
    engine.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MachineConfig, CostModel) {
        let m = MachineConfig::balance21000();
        let c = CostModel::calibrated(&m);
        (m, c)
    }

    #[test]
    fn schedule_from_timed_ops_inserts_compute_gaps() {
        let timed = vec![
            (3u32, 0u64, ReplayOp::Send { lnvc: 9, len: 64 }),
            (3, 10_000, ReplayOp::Send { lnvc: 9, len: 64 }),
            (7, 0, ReplayOp::RecvFcfs { lnvc: 9 }),
            (7, 500, ReplayOp::RecvFcfs { lnvc: 9 }),
        ];
        let s = ReplaySchedule::from_timed_ops(&timed, 0.01);
        assert_eq!(s.lnvcs, 1, "lnvc ids densified");
        assert_eq!(s.procs.len(), 2);
        // Sender: Send, Compute(100), Send.
        assert!(matches!(s.procs[0][1], ReplayOp::Compute(100)));
        assert_eq!(s.total_sends(), 2);
    }

    #[test]
    fn replay_delivers_the_recorded_traffic() {
        let (m, c) = setup();
        let timed: Vec<(u32, u64, ReplayOp)> = (0..20u64)
            .map(|i| (1u32, i * 1_000, ReplayOp::Send { lnvc: 0, len: 128 }))
            .chain((0..20u64).map(|i| (2u32, i * 1_000, ReplayOp::RecvFcfs { lnvc: 0 })))
            .collect();
        let s = ReplaySchedule::from_timed_ops(&timed, 0.0);
        let r = replay(&m, &c, &s);
        assert_eq!(r.msgs_sent, 20);
        assert_eq!(r.msgs_received, 20);
        assert_eq!(r.bytes_received, 20 * 128);
        assert!(r.elapsed_cycles > 0);
    }

    #[test]
    fn replay_broadcast_registers_cursors() {
        let (m, c) = setup();
        let timed = vec![
            (1u32, 0u64, ReplayOp::Send { lnvc: 0, len: 32 }),
            (2, 0, ReplayOp::RecvBroadcast { lnvc: 0 }),
            (3, 0, ReplayOp::RecvBroadcast { lnvc: 0 }),
        ];
        let s = ReplaySchedule::from_timed_ops(&timed, 0.0);
        let r = replay(&m, &c, &s);
        // Both broadcast receivers must be fed… but the send may precede
        // their registration in wall-clock; cursors are registered before
        // the run, so both see the message.
        assert_eq!(r.msgs_received, 2);
    }

    #[test]
    fn faster_host_gaps_scale_down() {
        let timed = vec![
            (1u32, 0u64, ReplayOp::Send { lnvc: 0, len: 8 }),
            (1, 1_000_000, ReplayOp::Send { lnvc: 0, len: 8 }),
        ];
        let slow = ReplaySchedule::from_timed_ops(&timed, 1.0);
        let fast = ReplaySchedule::from_timed_ops(&timed, 0.001);
        let big = match slow.procs[0][1] {
            ReplayOp::Compute(c) => c,
            _ => panic!(),
        };
        let small = match fast.procs[0][1] {
            ReplayOp::Compute(c) => c,
            _ => panic!(),
        };
        assert!(big > small);
    }
}
