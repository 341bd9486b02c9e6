//! The four named workloads.  Each pass sets its system up several
//! times (the median is `setup_s`) and measures on those set-ups: the
//! stream and broadcast pipelines a round on every set-up, the RPC
//! service a window on the last one.  Every delivery is checked with the
//! oracle, and every teardown checks that the region conserved its
//! blocks.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mpf::{LnvcId, Mpf, MpfConfig, MpfError, ProcessId, Protocol};
use mpf_aio::AsyncIpc;
use mpf_ipc::{IpcLnvcId, IpcMpf};
use mpf_serve::{run_worker, Client, ClientCfg, IpcTransport, Server, WorkerCfg};
use mpf_shm::telemetry::TelSnapshot;

use crate::host::region_name;
use crate::meter::{Edge, Meter};
use crate::oracle::{Oracle, Payloads, Tally, Teardown};
use crate::spans::{ns_since, Span, SpanBuf};
use crate::stats::{Percentile, Sampler};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-way FCFS stream of 16 B messages over two views of one region.
    IpcStream16b,
    /// The same stream with 16 KiB messages.
    IpcStream16k,
    /// Closed-loop mpf-serve calls with 64 B payloads.
    ServeRpc64b,
    /// Heap-backend BROADCAST of 256 B messages to two receivers.
    CoreBcast256b,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::IpcStream16b,
        Workload::IpcStream16k,
        Workload::ServeRpc64b,
        Workload::CoreBcast256b,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::IpcStream16b => "ipc_stream_16b",
            Workload::IpcStream16k => "ipc_stream_16k",
            Workload::ServeRpc64b => "serve_rpc_64b",
            Workload::CoreBcast256b => "core_bcast_256b",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn payload_len(self) -> usize {
        match self {
            Workload::IpcStream16b => 16,
            Workload::IpcStream16k => 16 << 10,
            Workload::ServeRpc64b => 64,
            Workload::CoreBcast256b => 256,
        }
    }

    /// Mixed into the run seed so workloads draw distinct bytes.
    fn salt(self) -> u64 {
        match self {
            Workload::IpcStream16b => 0x1616_1616,
            Workload::IpcStream16k => 0x16_0000,
            Workload::ServeRpc64b => 0x6464_6464,
            Workload::CoreBcast256b => 0x0256_0256,
        }
    }

    pub fn run(self, s: &Settings, measure: Duration, oracle: &Oracle) -> Result<Pass, String> {
        match self {
            Workload::IpcStream16b | Workload::IpcStream16k => ipc_stream(self, s, measure, oracle),
            Workload::ServeRpc64b => serve_rpc(s, measure, oracle),
            Workload::CoreBcast256b => core_bcast(s, measure, oracle),
        }
    }
}

/// Settings shared by every pass of a run.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    pub seed: u64,
    /// Time each pass through the layers (spans and per-call samples).
    pub traced: bool,
    /// Set-ups per pass.
    pub setups: usize,
    /// Time origin of every span in the run.
    pub epoch: Instant,
    /// Track id of this pass's first thread in the exported trace.
    pub tid_base: u32,
}

/// What one pass measured.
#[derive(Debug)]
pub struct Pass {
    pub workload: Workload,
    pub setup_s: Vec<f64>,
    pub ops_rates: Vec<f64>,
    pub byte_rates: Vec<f64>,
    /// Operations completed in the window: messages delivered to every
    /// receiver, or calls returned.
    pub ops: u64,
    /// Process CPU seconds per operation, one value per slice.
    pub cpu_per_op: Vec<f64>,
    /// Round-trip samples in ns (`u64::MAX` = failed call).
    pub rtt_ns: Sampler,
    pub attempted: u64,
    pub failed: u64,
    pub region_bytes: u64,
    /// Per-layer metrics (traced passes only).
    pub layer: Vec<(&'static str, f64)>,
    /// Every reported percentile with its sample count.
    pub pcts: Vec<(String, Percentile)>,
    pub spans: SpanBuf,
    pub threads: Vec<(u32, String)>,
}

impl Pass {
    fn new(workload: Workload) -> Self {
        Pass {
            workload,
            setup_s: Vec::new(),
            ops_rates: Vec::new(),
            byte_rates: Vec::new(),
            ops: 0,
            cpu_per_op: Vec::new(),
            rtt_ns: Sampler::default(),
            attempted: 0,
            failed: 0,
            region_bytes: 0,
            layer: Vec::new(),
            pcts: Vec::new(),
            spans: SpanBuf::new(2 * SpanBuf::DEFAULT_CAP),
            threads: Vec::new(),
        }
    }

    fn take_meter(&mut self, m: Meter) {
        self.ops_rates.extend(m.ops_rates);
        self.byte_rates.extend(m.byte_rates);
        self.ops += m.ops;
        self.cpu_per_op.extend(m.cpu_per_op);
    }

    /// Records the p50 and p99 of `samples` (ns) in microseconds as the
    /// layer metrics named `p50` and `p99`.
    fn layer_pcts(&mut self, p50: &'static str, p99: &'static str, samples: &Sampler) {
        let s = samples.summary();
        for (name, p) in [(p50, 50.0), (p99, 99.0)] {
            if let Some(pc) = s.percentile(p) {
                self.layer.push((name, pc.value as f64 / 1e3));
                self.pcts
                    .push((format!("{}.{name}", self.workload.name()), pc));
            }
        }
    }

    fn layer_ratio(&mut self, name: &'static str, num: u64, den: u64) {
        self.layer.push((name, num as f64 / den.max(1) as f64));
    }
}

/// What one benchmark thread of a pass recorded.
#[derive(Debug)]
struct Side {
    /// Per-call layer timings (ns) of a traced pass.
    samples: Sampler,
    /// Round-trip times (ns) of a pipeline's sender.
    rtt: Sampler,
    spans: SpanBuf,
    attempted: u64,
    failed: u64,
}

impl Side {
    fn absorb(&mut self, other: Side) {
        self.samples.absorb(&other.samples);
        self.rtt.absorb(&other.rtt);
        self.spans.absorb(other.spans);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn new() -> Self {
        Side {
            samples: Sampler::default(),
            rtt: Sampler::default(),
            spans: SpanBuf::new(SpanBuf::DEFAULT_CAP),
            attempted: 0,
            failed: 0,
        }
    }
}

fn mpf_err(what: &'static str) -> impl Fn(MpfError) -> String {
    move |e| format!("{what}: {e}")
}

/// How long a blocked receive waits before re-checking for the end of
/// the pass (so a stopped peer never leaves it hanging).
const RECV_PATIENCE: Duration = Duration::from_millis(200);

pub(crate) fn ipc_teardown(m: &IpcMpf, total_blocks: u32) -> Teardown {
    let r = m.reclaimable();
    Teardown {
        free_blocks: m.free_blocks(),
        total_blocks,
        live_lnvcs: m.live_lnvcs(),
        reclaimable_messages: r.messages,
        reclaimable_blocks: r.blocks,
    }
}

// ---------------------------------------------------------------------
// Pipelines: ipc_stream_16b, ipc_stream_16k and core_bcast_256b
// ---------------------------------------------------------------------

/// Share of a pipeline pass's measured time spent streaming; the rest
/// times round trips of single messages over the same conversation and
/// an echo conversation back (`rtt_*`).  Both ends poll during the round
/// trips, so `rtt_*` is the library's own per-message path (send, the
/// hand-off through shared memory, receive, twice) rather than the
/// host's thread wake-up latency, which moves by a quarter between runs
/// on a shared host; `serve_rpc_64b` and the traced `ipc.rt_*` and
/// `shm.futex_rt_*` time the blocking wake-up path.
const STREAM_SHARE: f64 = 0.7;

/// One-way pipeline ends as the two benchmark threads use them.  The sender
/// thread calls `send` and `try_recv_echo`; the receiver thread calls
/// `recv` or `try_recv` (once per receiver for each message) and
/// `try_echo`.
trait Pipe: Sync {
    /// Span and metric names of the layer the pipeline drives.
    const NAMES: LayerNames;
    /// Sends one message: `Ok(false)` when the pools refused it and the
    /// caller should retry.
    fn send(&self, payload: &[u8]) -> Result<bool, MpfError>;
    /// Receiver `r` waits until `deadline` for its next delivery.
    fn recv(&self, r: usize, buf: &mut [u8], deadline: Instant) -> Result<usize, MpfError>;
    /// Non-blocking receive: `Ok(None)` when nothing is deliverable.
    fn try_recv(&self, r: usize, buf: &mut [u8]) -> Result<Option<usize>, MpfError>;
    fn receivers(&self) -> usize;
    /// Non-blocking echo of a round-trip message back to the sender.
    fn try_echo(&self, payload: &[u8]) -> Result<bool, MpfError>;
    /// Non-blocking receive of an echo by the sender.
    fn try_recv_echo(&self, buf: &mut [u8]) -> Result<Option<usize>, MpfError>;
    fn telemetry(&self) -> TelSnapshot;
}

struct LayerNames {
    send: &'static str,
    recv: &'static str,
    send_p50: &'static str,
    send_p99: &'static str,
    recv_p50: &'static str,
    recv_p99: &'static str,
    refused: &'static str,
    recv_waits: &'static str,
    lock_contended: &'static str,
}

/// What one round of a pipeline measured.
struct Round {
    send: Side,
    recv: Side,
    /// Facility counters over the measured window.
    counters: TelSnapshot,
}

impl Round {
    fn absorb(&mut self, other: Round) {
        self.send.absorb(other.send);
        self.recv.absorb(other.recv);
        self.counters.absorb(&other.counters);
    }
}

/// Sends with `send`, yielding while the pools refuse; `Ok(false)` when
/// `abort` was raised first.
fn send_until(
    send: impl Fn() -> Result<bool, MpfError>,
    abort: &AtomicBool,
) -> Result<bool, MpfError> {
    loop {
        if send()? {
            return Ok(true);
        }
        if abort.load(Ordering::Relaxed) {
            return Ok(false);
        }
        thread::yield_now();
    }
}

/// The idle step of a polling loop: a spin hint, and every 64th time a
/// yield, so a peer that shares this CPU gets to run.
struct Poll(u32);

impl Poll {
    fn idle(&mut self) {
        self.0 = self.0.wrapping_add(1);
        if self.0 % 64 == 0 {
            thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

fn pipeline_run<P: Pipe>(
    pipe: &P,
    p: &Payloads,
    s: &Settings,
    measure: Duration,
    oracle: &Oracle,
    pass: &mut Pass,
) -> Round {
    let w = pass.workload;
    let names = &P::NAMES;
    let stream_for = measure.mul_f64(STREAM_SHARE);
    let rt_for = measure - stream_for;
    // `stop` ends the stream, `abort` everything (an error or a broken
    // oracle); `sent` and `rt_sent` publish the sender's final counts.
    let stop = AtomicBool::new(false);
    let abort = AtomicBool::new(false);
    let window = AtomicBool::new(false);
    let drained = AtomicBool::new(false);
    let sent = AtomicU64::new(u64::MAX);
    let rt_sent = AtomicU64::new(u64::MAX);
    let fail = |side: &mut Side, what: String| {
        side.failed += 1;
        eprintln!("perfbench: {}: operation failed: {what}", w.name());
        abort.store(true, Ordering::Relaxed);
    };
    let (traced, epoch) = (s.traced, s.epoch);
    let (tid_tx, tid_rx) = (s.tid_base, s.tid_base + 1);

    let (send, recv, counters) = thread::scope(|sc| {
        let sender = sc.spawn(|| {
            let mut side = Side::new();
            let mut seq = 0u64;
            'msgs: while !stop.load(Ordering::Relaxed) && !abort.load(Ordering::Relaxed) {
                let payload = p.get(seq);
                loop {
                    let t0 = if traced { ns_since(epoch) } else { 0 };
                    match pipe.send(payload) {
                        Ok(true) => {
                            side.attempted += 1;
                            if traced && window.load(Ordering::Relaxed) {
                                let t1 = ns_since(epoch);
                                side.samples.push(t1 - t0);
                                side.spans.push(Span {
                                    name: names.send,
                                    tid: tid_tx,
                                    start_ns: t0,
                                    end_ns: t1,
                                    seq,
                                });
                            }
                            break;
                        }
                        Ok(false) => {
                            if stop.load(Ordering::Relaxed) || abort.load(Ordering::Relaxed) {
                                break 'msgs;
                            }
                            thread::yield_now();
                        }
                        Err(e) => {
                            side.attempted += 1;
                            fail(&mut side, format!("send: {e}"));
                            break 'msgs;
                        }
                    }
                }
                seq += 1;
            }
            sent.store(seq, Ordering::Release);
            while !drained.load(Ordering::Acquire) && !abort.load(Ordering::Relaxed) {
                thread::yield_now();
            }
            // Round trips: one message out, its echo back.
            let mut buf = vec![0u8; p.len()];
            let mut poll = Poll(0);
            let start = Instant::now();
            let (warm, end) = (start + rt_for / 10, start + rt_for);
            'trips: while Instant::now() < end && !abort.load(Ordering::Relaxed) {
                let t0 = Instant::now();
                let payload = p.get(seq);
                side.attempted += 1;
                match send_until(|| pipe.send(payload), &abort) {
                    Ok(true) => {}
                    Ok(false) => break,
                    Err(e) => {
                        fail(&mut side, format!("round-trip send: {e}"));
                        break;
                    }
                }
                let n = loop {
                    match pipe.try_recv_echo(&mut buf) {
                        Ok(Some(n)) => break n,
                        Ok(None) if !abort.load(Ordering::Relaxed) => poll.idle(),
                        Ok(None) => break 'trips,
                        Err(e) => {
                            fail(&mut side, format!("echo receive: {e}"));
                            break 'trips;
                        }
                    }
                };
                let t1 = Instant::now();
                if buf[..n] != *payload {
                    oracle.fail(format!(
                        "{}: echo of message {seq} differs from what was sent",
                        w.name()
                    ));
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
                if t0 >= warm {
                    side.rtt.push((t1 - t0).as_nanos() as u64);
                }
                seq += 1;
            }
            rt_sent.store(seq, Ordering::Release);
            side
        });

        let mut side = Side::new();
        let mut meter = Meter::new(stream_for);
        let mut tally = Tally::new(w.name(), pipe.receivers());
        let mut buf = vec![0u8; p.len()];
        let mut snap0 = TelSnapshot::default();
        let mut counters = TelSnapshot::default();
        let mut last = Instant::now();
        let mut poll = Poll(0);
        // Receiver `r` takes the next delivery; a message is complete
        // once it reached the last receiver.
        let mut r = 0usize;
        let mut streaming = true;
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let total = if streaming { &sent } else { &rt_sent }.load(Ordering::Acquire);
            if r == 0 && total != u64::MAX && tally.delivered(0) >= total {
                if !streaming {
                    break;
                }
                streaming = false;
                drained.store(true, Ordering::Release);
                continue;
            }
            let t0 = if traced { ns_since(epoch) } else { 0 };
            let got = if streaming {
                pipe.recv(r, &mut buf, last + RECV_PATIENCE).map(Some)
            } else {
                pipe.try_recv(r, &mut buf)
            };
            let n = match got {
                Ok(Some(n)) => n,
                Ok(None) => {
                    poll.idle();
                    continue;
                }
                Err(MpfError::TimedOut) => {
                    last = Instant::now();
                    continue;
                }
                Err(e) => {
                    fail(&mut side, format!("receive: {e}"));
                    break;
                }
            };
            let now = Instant::now();
            last = now;
            let seq = match tally.deliver(r, p, &buf[..n]) {
                Ok(seq) => seq,
                Err(why) => {
                    oracle.fail(why);
                    abort.store(true, Ordering::Relaxed);
                    break;
                }
            };
            if traced && meter.in_window() {
                let t1 = now.duration_since(epoch).as_nanos() as u64;
                side.samples.push(t1.saturating_sub(t0));
                side.spans.push(Span {
                    name: names.recv,
                    tid: tid_rx,
                    start_ns: t0,
                    end_ns: t1,
                    seq,
                });
            }
            r = (r + 1) % pipe.receivers();
            if r != 0 {
                continue;
            }
            if !streaming {
                match send_until(|| pipe.try_echo(&buf[..n]), &abort) {
                    Ok(_) => continue,
                    Err(e) => {
                        fail(&mut side, format!("echo send: {e}"));
                        break;
                    }
                }
            }
            match meter.record(now, 1, (n * pipe.receivers()) as u64) {
                Edge::Opened => {
                    snap0 = pipe.telemetry();
                    window.store(true, Ordering::Relaxed);
                }
                Edge::Closed => {
                    window.store(false, Ordering::Relaxed);
                    counters = pipe.telemetry().diff(&snap0);
                    stop.store(true, Ordering::Relaxed);
                }
                Edge::None => {}
            }
        }
        let send = sender.join().expect("pipeline sender thread panicked");
        pass.take_meter(meter);
        if !abort.load(Ordering::Relaxed) {
            if let Err(why) = tally.complete(rt_sent.load(Ordering::Acquire)) {
                oracle.fail(why);
            }
        }
        (send, side, counters)
    });
    Round {
        send,
        recv,
        counters,
    }
}

/// Folds a pipeline's rounds into its pass: attempts, failures, round
/// trips and, when traced, the layer metrics and spans.
fn finish_pipeline(pass: &mut Pass, all: Round, names: &LayerNames, s: &Settings) {
    let Round {
        send,
        recv,
        counters,
    } = all;
    pass.attempted += send.attempted;
    pass.failed += send.failed + recv.failed;
    pass.rtt_ns = send.rtt;
    if s.traced {
        let delivered = pass.ops;
        pass.layer_pcts(names.send_p50, names.send_p99, &send.samples);
        pass.layer_pcts(names.recv_p50, names.recv_p99, &recv.samples);
        pass.layer_ratio(names.refused, counters.send_waits, delivered);
        pass.layer_ratio(names.recv_waits, counters.recv_waits, delivered);
        pass.layer_ratio(names.lock_contended, counters.lock_contended, delivered);
        pass.spans.absorb(send.spans);
        pass.spans.absorb(recv.spans);
        let w = pass.workload.name();
        pass.threads.push((s.tid_base, format!("{w}/sender")));
        pass.threads.push((s.tid_base + 1, format!("{w}/receiver")));
    }
}

/// A stream between two views of one region, plus the echo conversation.
struct IpcPipe<'a> {
    a: &'a IpcMpf,
    tx: IpcLnvcId,
    echo_rx: IpcLnvcId,
    b: &'a IpcMpf,
    rx: IpcLnvcId,
    echo_tx: IpcLnvcId,
}

impl Pipe for IpcPipe<'_> {
    const NAMES: LayerNames = LayerNames {
        send: "ipc.send",
        recv: "ipc.recv",
        send_p50: "ipc.send_us_p50",
        send_p99: "ipc.send_us_p99",
        recv_p50: "ipc.recv_us_p50",
        recv_p99: "ipc.recv_us_p99",
        refused: "ipc.send_refused_per_msg",
        recv_waits: "ipc.recv_waits_per_msg",
        lock_contended: "ipc.lock_contended_per_msg",
    };

    /// `IpcMpf` refuses a send when its pools are exhausted; the stream
    /// retries it.
    fn send(&self, payload: &[u8]) -> Result<bool, MpfError> {
        self.a.try_message_send(self.tx, payload)
    }

    fn recv(&self, _r: usize, buf: &mut [u8], deadline: Instant) -> Result<usize, MpfError> {
        self.b.recv_deadline(self.rx, buf, Some(deadline))
    }

    fn try_recv(&self, _r: usize, buf: &mut [u8]) -> Result<Option<usize>, MpfError> {
        self.b.try_message_receive(self.rx, buf)
    }

    fn receivers(&self) -> usize {
        1
    }

    fn try_echo(&self, payload: &[u8]) -> Result<bool, MpfError> {
        self.b.try_message_send(self.echo_tx, payload)
    }

    fn try_recv_echo(&self, buf: &mut [u8]) -> Result<Option<usize>, MpfError> {
        self.a.try_message_receive(self.echo_rx, buf)
    }

    fn telemetry(&self) -> TelSnapshot {
        self.b.telemetry_snapshot()
    }
}

fn ipc_stream(
    w: Workload,
    s: &Settings,
    measure: Duration,
    oracle: &Oracle,
) -> Result<Pass, String> {
    let p = Payloads::new(s.seed ^ w.salt(), w.payload_len());
    let cfg = MpfConfig::new(4, 2);
    let mut pass = Pass::new(w);
    let mut all: Option<Round> = None;
    let mut hwm = 0;
    for _ in 0..s.setups {
        let t0 = Instant::now();
        let name = region_name();
        let a = IpcMpf::create(&name, &cfg).map_err(|e| format!("create {name}: {e}"))?;
        let b = a.attach_view().map_err(|e| format!("attach {name}: {e}"))?;
        let open = mpf_err("open");
        let rx = b.open_receive("stream", Protocol::Fcfs).map_err(&open)?;
        let tx = a.open_send("stream").map_err(&open)?;
        let echo_rx = a.open_receive("echo", Protocol::Fcfs).map_err(&open)?;
        let echo_tx = b.open_send("echo").map_err(&open)?;
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        pass.region_bytes = a.region_bytes() as u64;
        let pipe = IpcPipe {
            a: &a,
            tx,
            echo_rx,
            b: &b,
            rx,
            echo_tx,
        };
        let round = pipeline_run(&pipe, &p, s, measure / s.setups as u32, oracle, &mut pass);
        if oracle.violated() {
            return Ok(pass);
        }
        absorb_round(&mut all, round);
        hwm = hwm.max(
            b.lnvc_telemetry(rx)
                .map_err(mpf_err("lnvc_telemetry"))?
                .depth_hwm,
        );
        let close = mpf_err("close");
        a.close_send(tx).map_err(&close)?;
        a.close_receive(echo_rx).map_err(&close)?;
        b.close_receive(rx).map_err(&close)?;
        b.close_send(echo_tx).map_err(&close)?;
        ipc_teardown(&a, cfg.total_blocks).check(w.name())?;
    }
    if let Some(all) = all {
        finish_pipeline(&mut pass, all, &IpcPipe::NAMES, s);
    }
    if s.traced {
        pass.layer.push(("ipc.queue_depth_hwm", hwm as f64));
    }
    Ok(pass)
}

fn absorb_round(all: &mut Option<Round>, round: Round) {
    match all {
        Some(a) => a.absorb(round),
        None => *all = Some(round),
    }
}

/// BROADCAST to two logical processes drained by one receiver thread on
/// the heap backend, plus an FCFS echo conversation back to the sender.
struct CorePipe<'a> {
    m: &'a Mpf,
    tx: LnvcId,
    rx: [LnvcId; 2],
    echo_tx: LnvcId,
    echo_rx: LnvcId,
}

fn core_sender() -> ProcessId {
    ProcessId::from_index(0)
}

fn core_receiver(r: usize) -> ProcessId {
    ProcessId::from_index(1 + r)
}

impl Pipe for CorePipe<'_> {
    const NAMES: LayerNames = LayerNames {
        send: "core.send",
        recv: "core.recv",
        send_p50: "core.send_us_p50",
        send_p99: "core.send_us_p99",
        recv_p50: "core.recv_us_p50",
        recv_p99: "core.recv_us_p99",
        refused: "core.send_refused_per_msg",
        recv_waits: "core.recv_waits_per_msg",
        lock_contended: "core.lock_contended_per_msg",
    };

    /// Under the default `ExhaustPolicy::Wait`, `Mpf` blocks an
    /// exhausted send until the receivers free space.  The wait is bounded
    /// only so that a stopped pass cannot leave the sender blocked; an
    /// expired wait enqueued nothing and is retried like a refusal.
    fn send(&self, payload: &[u8]) -> Result<bool, MpfError> {
        let deadline = Instant::now() + RECV_PATIENCE;
        match self
            .m
            .send_deadline(core_sender(), self.tx, payload, Some(deadline))
        {
            Ok(()) => Ok(true),
            Err(MpfError::TimedOut) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn recv(&self, r: usize, buf: &mut [u8], deadline: Instant) -> Result<usize, MpfError> {
        self.m
            .recv_deadline(core_receiver(r), self.rx[r], buf, Some(deadline))
    }

    fn try_recv(&self, r: usize, buf: &mut [u8]) -> Result<Option<usize>, MpfError> {
        self.m.try_message_receive(core_receiver(r), self.rx[r], buf)
    }

    fn receivers(&self) -> usize {
        self.rx.len()
    }

    fn try_echo(&self, payload: &[u8]) -> Result<bool, MpfError> {
        self.m
            .try_message_send(core_receiver(0), self.echo_tx, payload)
    }

    fn try_recv_echo(&self, buf: &mut [u8]) -> Result<Option<usize>, MpfError> {
        self.m.try_message_receive(core_sender(), self.echo_rx, buf)
    }

    fn telemetry(&self) -> TelSnapshot {
        self.m.telemetry_snapshot()
    }
}

fn core_bcast(s: &Settings, measure: Duration, oracle: &Oracle) -> Result<Pass, String> {
    let w = Workload::CoreBcast256b;
    let p = Payloads::new(s.seed ^ w.salt(), w.payload_len());
    let cfg = MpfConfig::new(4, 3);
    let total_blocks = cfg.total_blocks;
    let mut pass = Pass::new(w);
    let mut all: Option<Round> = None;
    for _ in 0..s.setups {
        let t0 = Instant::now();
        let m = Mpf::init(cfg.clone()).map_err(mpf_err("init"))?;
        let open = mpf_err("open");
        let rx = [
            m.open_receive(core_receiver(0), "bcast", Protocol::Broadcast)
                .map_err(&open)?,
            m.open_receive(core_receiver(1), "bcast", Protocol::Broadcast)
                .map_err(&open)?,
        ];
        let tx = m.open_send(core_sender(), "bcast").map_err(&open)?;
        let echo_rx = m
            .open_receive(core_sender(), "echo", Protocol::Fcfs)
            .map_err(&open)?;
        let echo_tx = m.open_send(core_receiver(0), "echo").map_err(&open)?;
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        pass.region_bytes = m.region_layout().total_bytes() as u64;
        let pipe = CorePipe {
            m: &m,
            tx,
            rx,
            echo_tx,
            echo_rx,
        };
        let round = pipeline_run(&pipe, &p, s, measure / s.setups as u32, oracle, &mut pass);
        if oracle.violated() {
            return Ok(pass);
        }
        absorb_round(&mut all, round);
        let close = mpf_err("close");
        m.close_send(core_sender(), tx).map_err(&close)?;
        m.close_send(core_receiver(0), echo_tx).map_err(&close)?;
        m.close_receive(core_sender(), echo_rx).map_err(&close)?;
        for (r, &id) in rx.iter().enumerate() {
            m.close_receive(core_receiver(r), id).map_err(&close)?;
        }
        let rec = m.reclaimable();
        Teardown {
            free_blocks: m.free_blocks(),
            total_blocks,
            live_lnvcs: m.live_lnvcs(),
            reclaimable_messages: rec.messages,
            reclaimable_blocks: rec.blocks,
        }
        .check(w.name())?;
        m.check_invariants()
            .map_err(|e| format!("{}: invariants: {e}", w.name()))?;
    }
    if let Some(all) = all {
        if s.traced {
            pass.layer_ratio("core.reclaims_per_msg", all.counters.reclaims, pass.ops);
        }
        finish_pipeline(&mut pass, all, &CorePipe::NAMES, s);
    }
    Ok(pass)
}

// ---------------------------------------------------------------------
// serve_rpc_64b
// ---------------------------------------------------------------------

/// Service name of the benchmark's RPC service.
const SVC: &str = "pbrpc";

/// Handler start/end stamps by request sequence id, written by the
/// worker and read by the client once the call returns (closed loop:
/// one call in flight at a time).
struct HandlerLog(Vec<(AtomicU64, AtomicU64)>);

impl HandlerLog {
    const SLOTS: usize = 1024;

    fn new() -> Self {
        HandlerLog(
            (0..Self::SLOTS)
                .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                .collect(),
        )
    }

    fn slot(&self, seq: u64) -> &(AtomicU64, AtomicU64) {
        &self.0[seq as usize % Self::SLOTS]
    }
}

fn serve_rpc(s: &Settings, measure: Duration, oracle: &Oracle) -> Result<Pass, String> {
    let w = Workload::ServeRpc64b;
    let p = Payloads::new(s.seed ^ w.salt(), w.payload_len());
    let cfg = MpfConfig::new(16, 4);
    let mut pass = Pass::new(w);
    for k in 0..s.setups {
        serve_once(
            &p,
            &cfg,
            s,
            (k + 1 == s.setups).then_some(measure),
            oracle,
            &mut pass,
        )?;
        if oracle.violated() {
            break;
        }
    }
    Ok(pass)
}

/// One set-up of the service: region, server, worker thread, client.
/// With `measure`, runs the closed loop on it before tearing down.
fn serve_once(
    p: &Payloads,
    cfg: &MpfConfig,
    s: &Settings,
    measure: Option<Duration>,
    oracle: &Oracle,
    pass: &mut Pass,
) -> Result<(), String> {
    let (traced, epoch) = (s.traced, s.epoch);
    let (tid_client, tid_worker) = (s.tid_base, s.tid_base + 1);
    let window = AtomicBool::new(false);
    let log = HandlerLog::new();
    thread::scope(|sc| {
        let t0 = Instant::now();
        let name = region_name();
        let creator =
            Arc::new(IpcMpf::create(&name, cfg).map_err(|e| format!("create {name}: {e}"))?);
        let worker_view = creator.attach_view().map_err(|e| format!("attach: {e}"))?;
        let client_view = creator.attach_view().map_err(|e| format!("attach: {e}"))?;
        let server_t = Arc::new(IpcTransport(AsyncIpc::new(Arc::clone(&creator))));
        let mut server = Server::new(Arc::clone(&server_t), SVC).map_err(mpf_err("server"))?;
        let (window, log) = (&window, &log);
        let worker = sc.spawn(move || {
            let t = IpcTransport(AsyncIpc::new(Arc::new(worker_view)));
            let mut side = Side::new();
            let served = run_worker(&t, &WorkerCfg::new(SVC, 1), |req| {
                let hs = ns_since(epoch);
                let seq = Payloads::request_seq(req).unwrap_or(u64::MAX);
                if !p.request_ok(seq, req) {
                    oracle.fail(format!("serve_rpc_64b: request {seq} corrupted"));
                }
                let reply = p.transform(req);
                let he = ns_since(epoch);
                let slot = log.slot(seq);
                slot.0.store(hs, Ordering::Relaxed);
                slot.1.store(he, Ordering::Release);
                if traced && window.load(Ordering::Relaxed) {
                    side.samples.push(he - hs);
                    side.spans.push(Span {
                        name: "serve.handler",
                        tid: tid_worker,
                        start_ns: hs,
                        end_ns: he,
                        seq,
                    });
                }
                reply
            });
            (served, side)
        });
        let join_by = Instant::now() + Duration::from_secs(10);
        while server.worker_count() < 1 {
            if Instant::now() >= join_by {
                return Err("serve: worker did not join within 10 s".to_string());
            }
            server
                .poll_acks(Some(Instant::now() + Duration::from_millis(5)))
                .map_err(mpf_err("poll_acks"))?;
        }
        let client_t = Arc::new(IpcTransport(AsyncIpc::new(Arc::new(client_view))));
        let mut client = Client::connect(client_t, ClientCfg::new(SVC, 1))
            .map_err(|e| format!("serve: connect: {e}"))?;
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        pass.region_bytes = creator.region_bytes() as u64;

        if let Some(measure) = measure {
            let mut meter = Meter::new(measure);
            let mut side = Side::new();
            let mut req_hops = Sampler::default();
            let mut reply_hops = Sampler::default();
            let mut snap0 = TelSnapshot::default();
            let mut msgs = 0u64;
            let mut seq = 0u64;
            while !meter.done() && !oracle.violated() {
                seq += 1;
                let req = p.request(seq);
                let in_window = meter.in_window();
                if in_window {
                    pass.attempted += 1;
                }
                let c0 = ns_since(epoch);
                let res = client.call(&req);
                let now = Instant::now();
                let c1 = now.duration_since(epoch).as_nanos() as u64;
                let edge = match res {
                    Ok(reply) => {
                        if reply != p.transform(&req) {
                            oracle.fail(format!(
                                "serve_rpc_64b: reply {seq} does not match the transform"
                            ));
                            break;
                        }
                        if in_window {
                            pass.rtt_ns.push(c1 - c0);
                            if traced {
                                let slot = log.slot(seq);
                                let he = slot.1.load(Ordering::Acquire);
                                let hs = slot.0.load(Ordering::Relaxed);
                                req_hops.push(hs.saturating_sub(c0));
                                reply_hops.push(c1.saturating_sub(he));
                                side.samples.push(c1 - c0);
                                for (name, a, b) in [
                                    ("serve.call", c0, c1),
                                    ("serve.req_hop", c0, hs),
                                    ("serve.reply_hop", he, c1),
                                ] {
                                    side.spans.push(Span {
                                        name,
                                        tid: tid_client,
                                        start_ns: a,
                                        end_ns: b,
                                        seq,
                                    });
                                }
                            }
                        }
                        meter.record(now, 1, 2 * req.len() as u64)
                    }
                    Err(e) => {
                        if in_window {
                            pass.failed += 1;
                            pass.rtt_ns.push(u64::MAX);
                        }
                        eprintln!("perfbench: serve_rpc_64b: call {seq} failed: {e}");
                        meter.record(now, 0, 0)
                    }
                };
                match edge {
                    Edge::Opened => {
                        snap0 = creator.telemetry_snapshot();
                        window.store(true, Ordering::Relaxed);
                    }
                    Edge::Closed => {
                        window.store(false, Ordering::Relaxed);
                        msgs = creator.telemetry_snapshot().diff(&snap0).sends;
                    }
                    Edge::None => {}
                }
            }
            pass.take_meter(meter);
            if traced {
                let calls = pass.ops;
                pass.layer_ratio("ipc.msgs_per_call", msgs, calls);
                pass.layer_pcts("serve.req_hop_us_p50", "serve.req_hop_us_p99", &req_hops);
                pass.layer_pcts(
                    "serve.reply_hop_us_p50",
                    "serve.reply_hop_us_p99",
                    &reply_hops,
                );
                pass.layer_pcts("serve.call_us_p50", "serve.call_us_p99", &side.samples);
                pass.layer_ratio("serve.retries_per_call", client.stats.retries, calls);
                let failovers = client.stats.epoch_failovers + client.stats.gen_bumps;
                pass.layer.push(("serve.failovers", failovers as f64));
                pass.spans.absorb(side.spans);
                pass.threads
                    .push((tid_client, "serve_rpc_64b/client".to_string()));
                pass.threads
                    .push((tid_worker, "serve_rpc_64b/worker".to_string()));
            }
        }

        client.close();
        let report = server
            .shutdown(Some(Duration::from_secs(10)))
            .map_err(mpf_err("shutdown"))?;
        let (served, side) = worker
            .join()
            .map_err(|_| "serve: worker thread panicked".to_string())?;
        served.map_err(mpf_err("worker"))?;
        if !report.stragglers.is_empty() {
            return Err(format!(
                "serve: workers did not leave: {:?}",
                report.stragglers
            ));
        }
        if traced && measure.is_some() {
            pass.layer_pcts(
                "serve.handler_us_p50",
                "serve.handler_us_p99",
                &side.samples,
            );
            pass.spans.absorb(side.spans);
        }
        drop(server_t);
        if !oracle.violated() {
            ipc_teardown(&creator, cfg.total_blocks).check("serve_rpc_64b")?;
        }
        Ok(())
    })
}
