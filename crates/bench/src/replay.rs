//! Bridges the trace rings (what a native run did, read through
//! `mpf_trace::TraceLog`) to `mpf_sim::replay::ReplaySchedule` (what it
//! would cost on the Balance 21000).

use std::collections::HashMap;

use mpf::{Mpf, MpfConfig, ProcessId, Protocol};
use mpf_shm::tracering::{TraceEvent, TR_RECV, TR_RECV_B, TR_SEND, TR_WAKEUP};
use mpf_sim::replay::{ReplayOp, ReplaySchedule};
use mpf_trace::{PidEvents, RingCursor, TraceLog};

/// Converts a trace into a replay schedule: `TR_SEND` → send, `TR_RECV` →
/// FCFS receive, `TR_RECV_B` → BROADCAST receive (the ring records each
/// delivery's protocol).  `cycles_per_ns` scales host gaps to Balance
/// cycles — `0.0` drops think-time entirely (pure communication replay).
pub fn trace_to_schedule(log: &TraceLog, cycles_per_ns: f64) -> ReplaySchedule {
    let timed: Vec<(u32, u64, ReplayOp)> = log
        .rings()
        .iter()
        .flat_map(|r| {
            r.events.iter().filter_map(move |e| {
                let lnvc = e.lnvc as usize;
                let op = match e.kind {
                    TR_SEND => ReplayOp::Send {
                        lnvc,
                        len: e.arg as usize,
                    },
                    TR_RECV => ReplayOp::RecvFcfs { lnvc },
                    TR_RECV_B => ReplayOp::RecvBroadcast { lnvc },
                    _ => return None,
                };
                Some((r.pid, e.tstamp, op))
            })
        })
        .collect();
    ReplaySchedule::from_timed_ops(&timed, cycles_per_ns)
}

/// Paper-style reduction of a native trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NativeSummary {
    /// Wall-clock span of the trace in nanoseconds.
    pub span_ns: u64,
    /// `TR_SEND` records.
    pub sends: u64,
    /// Deliveries (`TR_RECV` + `TR_RECV_B`).
    pub receives: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Deliveries whose send was found by stamp.
    pub matched: u64,
    /// Mean send→delivery latency over the matched deliveries, ns.
    pub mean_latency_ns: f64,
    /// Maximum matched latency, ns.
    pub max_latency_ns: u64,
    /// Blocked receives woken by a delivery (`TR_WAKEUP`).
    pub wakeups: u64,
}

impl NativeSummary {
    /// Sent-side throughput over the span, bytes/second.
    pub fn send_throughput(&self) -> f64 {
        if self.span_ns == 0 {
            0.0
        } else {
            self.bytes_sent as f64 / (self.span_ns as f64 / 1e9)
        }
    }
}

/// Reduces a trace to [`NativeSummary`]; deliveries are matched to their
/// send by the region-wide message stamp.
pub fn native_summary(log: &TraceLog) -> NativeSummary {
    let events = || log.rings().iter().flat_map(|r| r.events.iter());
    let mut s = NativeSummary::default();
    let mut send_at: HashMap<u64, u64> = HashMap::new();
    let (mut first, mut last) = (u64::MAX, 0u64);
    for e in events() {
        first = first.min(e.tstamp);
        last = last.max(e.tstamp);
        match e.kind {
            TR_SEND => {
                s.sends += 1;
                s.bytes_sent += u64::from(e.arg);
                send_at.insert(e.stamp, e.tstamp);
            }
            TR_WAKEUP => s.wakeups += 1,
            _ => {}
        }
    }
    let mut latency_sum = 0u128;
    for e in events().filter(|e| matches!(e.kind, TR_RECV | TR_RECV_B)) {
        s.receives += 1;
        if let Some(&t0) = send_at.get(&e.stamp) {
            let lat = e.tstamp.saturating_sub(t0);
            latency_sum += u128::from(lat);
            s.max_latency_ns = s.max_latency_ns.max(lat);
            s.matched += 1;
        }
    }
    s.span_ns = last.saturating_sub(first);
    if s.matched > 0 {
        s.mean_latency_ns = latency_sum as f64 / s.matched as f64;
    }
    s
}

/// Operations a `traced_fanin` thread may run between two reads of its
/// ring.  A receive writes at most three records (wake-up, delivery,
/// reclaim), so 128 operations stay inside the 512-record ring.
const DRAIN_EVERY: u64 = 128;

/// One thread's reader of its own trace ring.
struct Drain<'a> {
    mpf: &'a Mpf,
    pid: ProcessId,
    cursor: RingCursor,
    events: Vec<TraceEvent>,
}

impl<'a> Drain<'a> {
    fn new(mpf: &'a Mpf, pid: ProcessId) -> Self {
        Self {
            mpf,
            pid,
            cursor: RingCursor::default(),
            events: Vec::new(),
        }
    }

    /// Collects the records written since the last pull; panics if the
    /// ring wrapped in between, since the trace would silently miss them.
    fn pull(&mut self) {
        let snapshot = self.mpf.trace_events(self.pid).expect("pid in range");
        let (lost, fresh) = self.cursor.poll(snapshot);
        assert_eq!(
            lost,
            0,
            "trace ring of pid {} wrapped between drains",
            self.pid.index()
        );
        self.events.extend(fresh);
    }

    /// Pulls after operation number `n` when a drain period has passed.
    fn after_op(&mut self, n: u64) {
        if n.is_multiple_of(DRAIN_EVERY) {
            self.pull();
        }
    }

    fn finish(mut self) -> PidEvents {
        self.pull();
        let (_, sampled_out) = self.mpf.trace_ring_stats(self.pid).expect("pid in range");
        PidEvents {
            pid: self.pid.index() as u32,
            truncated: false,
            sampled_out,
            events: self.events,
        }
    }
}

/// Runs a small traced native workload (`senders` → one FCFS receiver,
/// `msgs` × `len` bytes) and returns its trace.  Every thread drains its
/// own ring as it goes, so runs longer than one ring's depth are recorded
/// whole.  Used by the `replay_trace` binary and tests.
pub fn traced_fanin(senders: usize, msgs: u64, len: usize) -> TraceLog {
    let mpf =
        Mpf::init(MpfConfig::new(8, senders as u32 + 1).with_total_blocks(8192)).expect("init");
    let rx_pid = ProcessId::from_index(senders);
    // Open the receive connection before any sender thread exists: if the
    // senders ran to completion (send + close) first, the conversation
    // would be deleted and the stream discarded (paper §3.2).
    let rx = mpf
        .receiver(rx_pid, "traced:fanin", Protocol::Fcfs)
        .expect("rx");
    let (mut rings, rx_drain) = std::thread::scope(|s| {
        let mpf = &mpf;
        let tx_threads: Vec<_> = (0..senders)
            .map(|i| {
                s.spawn(move || {
                    let pid = ProcessId::from_index(i);
                    let mut drain = Drain::new(mpf, pid);
                    let tx = mpf.sender(pid, "traced:fanin").expect("tx");
                    let payload = vec![i as u8; len];
                    for n in 1..=msgs {
                        tx.send(&payload).expect("send");
                        drain.after_op(n);
                    }
                    drop(tx);
                    drain.finish()
                })
            })
            .collect();
        let rx = &rx;
        let rx_thread = s.spawn(move || {
            let mut drain = Drain::new(mpf, rx_pid);
            let mut buf = vec![0u8; len.max(1)];
            for n in 1..=senders as u64 * msgs {
                rx.recv(&mut buf).expect("recv");
                drain.after_op(n);
            }
            drain
        });
        let rings: Vec<PidEvents> = tx_threads
            .into_iter()
            .map(|t| t.join().expect("sender thread"))
            .collect();
        (rings, rx_thread.join().expect("receiver thread"))
    });
    drop(rx);
    rings.push(rx_drain.finish());
    TraceLog::new(rings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_sim::{replay, CostModel, MachineConfig};

    #[test]
    fn native_trace_replays_on_the_model() {
        let log = traced_fanin(2, 15, 64);
        let summary = native_summary(&log);
        assert_eq!(summary.sends, 30);
        assert_eq!(summary.receives, 30);
        assert_eq!(summary.matched, 30);

        let schedule = trace_to_schedule(&log, 0.0);
        assert_eq!(schedule.total_sends(), 30);
        let machine = MachineConfig::balance21000();
        let costs = CostModel::calibrated(&machine);
        let report = replay::replay(&machine, &costs, &schedule);
        assert_eq!(report.msgs_sent, 30);
        assert_eq!(report.msgs_received, 30);
        assert!(report.elapsed_secs > 0.0);
    }

    #[test]
    fn think_time_scaling_lengthens_the_replay() {
        let log = traced_fanin(1, 10, 32);
        let machine = MachineConfig::balance21000();
        let costs = CostModel::calibrated(&machine);
        let no_think = replay::replay(&machine, &costs, &trace_to_schedule(&log, 0.0));
        let with_think = replay::replay(&machine, &costs, &trace_to_schedule(&log, 0.05));
        assert!(with_think.elapsed_cycles >= no_think.elapsed_cycles);
    }

    #[test]
    fn native_summary_matches_deliveries_by_stamp() {
        let ev = |kind, tstamp, stamp, arg| TraceEvent {
            seq: 0,
            tstamp,
            trace: 1,
            stamp,
            arg,
            kind,
            hop: 0,
            lnvc: 7,
            arg2: 0,
        };
        let ring = |pid, events| PidEvents {
            pid,
            truncated: false,
            sampled_out: 0,
            events,
        };
        let log = TraceLog::new(vec![
            ring(0, vec![ev(TR_SEND, 0, 0, 50), ev(TR_SEND, 2_000, 1, 30)]),
            ring(
                1,
                vec![
                    ev(TR_RECV, 1_000, 0, 50),
                    ev(TR_WAKEUP, 5_000, 1, 0),
                    ev(TR_RECV, 5_000, 1, 30),
                    ev(TR_RECV, 6_000, 9, 10),
                ],
            ),
        ]);
        let s = native_summary(&log);
        assert_eq!((s.sends, s.receives, s.bytes_sent), (2, 3, 80));
        assert_eq!((s.matched, s.wakeups, s.span_ns), (2, 1, 6_000));
        assert_eq!(s.max_latency_ns, 3_000);
        assert!((s.mean_latency_ns - 2_000.0).abs() < 1e-9);
        assert_eq!(
            native_summary(&TraceLog::new(Vec::new())).send_throughput(),
            0.0
        );
    }

    #[test]
    fn fanin_longer_than_a_ring_is_recorded_whole() {
        // 800 receives write well over 512 records on the receiver's ring;
        // only the periodic drains keep every one of them.
        let summary = native_summary(&traced_fanin(4, 200, 256));
        assert_eq!(summary.sends, 800);
        assert_eq!(summary.receives, 800);
        assert_eq!(summary.matched, 800);
    }

    #[test]
    fn delivery_protocol_picks_the_receive_op() {
        let mpf = Mpf::init(MpfConfig::new(4, 3)).unwrap();
        let p = ProcessId::from_index;
        let tx = mpf.sender(p(0), "mixed").unwrap();
        let fcfs = mpf.receiver(p(1), "mixed", Protocol::Fcfs).unwrap();
        let bcast = mpf.receiver(p(2), "mixed", Protocol::Broadcast).unwrap();
        tx.send(b"both").unwrap();
        let mut buf = [0u8; 8];
        fcfs.recv(&mut buf).unwrap();
        bcast.recv(&mut buf).unwrap();

        let schedule = trace_to_schedule(&TraceLog::from_mpf(&mpf), 0.0);
        let ops: Vec<ReplayOp> = schedule.procs.concat();
        assert_eq!(schedule.total_sends(), 1);
        assert!(ops.contains(&ReplayOp::RecvFcfs { lnvc: 0 }), "{ops:?}");
        assert!(
            ops.contains(&ReplayOp::RecvBroadcast { lnvc: 0 }),
            "{ops:?}"
        );
    }
}
