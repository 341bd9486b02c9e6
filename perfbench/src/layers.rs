//! Per-layer floors and the round-trip ladder of a traced run.
//!
//! * `shm` floors call `mpf_shm` directly: a `FutexSeq` round trip, an
//!   uncontended `IpcLock` pair, a clock read, and memcpy bandwidth.
//! * The ladder times one 64 B round trip against an echo thread at two
//!   layers: raw blocking `IpcMpf` send + receive (`ipc.rt_*`), and
//!   `AsyncIpc` send + receive driven by `block_on` (`aio.rt_*`).
//!   Together with the serve call time they show which layer a call's
//!   time is spent in.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mpf::{MpfConfig, MpfError, Protocol};
use mpf_aio::{block_on, AsyncIpc};
use mpf_ipc::IpcMpf;
use mpf_shm::waitq::FutexSeq;
use mpf_shm::IpcLock;

use crate::host::region_name;
use crate::oracle::{Oracle, Payloads};
use crate::stats::{median, Percentile, Sampler};
use crate::workloads::ipc_teardown;

/// Repetitions of each tight-loop floor; the median is reported.
const REPS: usize = 7;

fn per_call_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        reps.push(t0.elapsed().as_nanos() as f64 / f64::from(calls));
    }
    median(&reps)
}

/// Measures the `shm` floors into `out`, and the futex percentile into
/// `pcts`.
pub fn shm_floors(out: &mut Vec<(&'static str, f64)>, pcts: &mut Vec<(String, Percentile)>) {
    mpf_shm::clock::calibrate();
    out.push((
        "shm.clock_read_ns",
        per_call_ns(200_000, || {
            black_box(mpf_shm::clock::now_nanos());
        }),
    ));
    let lock = IpcLock::new();
    out.push((
        "shm.ipclock_pair_ns",
        per_call_ns(200_000, || {
            let _ = black_box(lock.lock(1, |_| true));
            lock.unlock();
        }),
    ));

    // Copy 16 KiB messages from a sliding window of a 1 MiB source, the
    // shape of the 16 KiB stream's copy-in.
    const MSG: usize = 16 << 10;
    let src: Vec<u8> = (0..(1usize << 20) + MSG).map(|i| (i * 131) as u8).collect();
    let mut dst = vec![0u8; MSG];
    let mut off = 0usize;
    let ns_per_copy = per_call_ns(2_000, || {
        off = (off + 4099) % (1 << 20);
        dst.copy_from_slice(black_box(&src[off..off + MSG]));
        black_box(&mut dst);
    });
    out.push(("shm.memcpy_bytes_per_s", MSG as f64 * 1e9 / ns_per_copy));

    let futex = futex_round_trips(4_000);
    let s = futex.summary();
    if let Some(p50) = s.percentile(50.0) {
        out.push(("shm.futex_rt_us_p50", p50.value as f64 / 1e3));
        pcts.push(("shm.futex_rt_us_p50".to_string(), p50));
    }
}

/// Round trips through two `FutexSeq`s between two threads: notify the
/// peer's sequence, sleep on ours until the peer notifies back.
fn futex_round_trips(n: usize) -> Sampler {
    let ping = FutexSeq::new();
    let pong = FutexSeq::new();
    let done = AtomicBool::new(false);
    let nap = Some(Duration::from_millis(50));
    thread::scope(|sc| {
        sc.spawn(|| {
            let mut seen = 0u32;
            while !done.load(Ordering::Acquire) {
                if ping.ticket() == seen {
                    ping.wait(seen, nap);
                    continue;
                }
                seen = ping.ticket();
                pong.notify_all();
            }
        });
        let mut samples = Sampler::default();
        for _ in 0..n {
            let t0 = Instant::now();
            let ticket = pong.ticket();
            ping.notify_all();
            while pong.ticket() == ticket {
                pong.wait(ticket, nap);
            }
            samples.push(t0.elapsed().as_nanos() as u64);
        }
        done.store(true, Ordering::Release);
        ping.notify_all();
        samples
    })
}

/// Round-trip samples (ns) of the ladder's two rungs.
pub struct Ladder {
    pub ipc_rt: Sampler,
    pub aio_rt: Sampler,
}

/// Runs each rung for `per_rung` against one echo thread.
pub fn ladder(seed: u64, per_rung: Duration, oracle: &Oracle) -> Result<Ladder, String> {
    let p = Payloads::new(seed ^ 0x001a_dde7, 64);
    let cfg = MpfConfig::new(4, 2);
    let name = region_name();
    let a = Arc::new(IpcMpf::create(&name, &cfg).map_err(|e| format!("ladder: create: {e}"))?);
    let b = a
        .attach_view()
        .map_err(|e| format!("ladder: attach: {e}"))?;
    let err = |what: &'static str| move |e: MpfError| format!("ladder: {what}: {e}");
    let ping_rx = b
        .open_receive("ping", Protocol::Fcfs)
        .map_err(err("open"))?;
    let ping_tx = a.open_send("ping").map_err(err("open"))?;
    let pong_rx = a
        .open_receive("pong", Protocol::Fcfs)
        .map_err(err("open"))?;
    let pong_tx = b.open_send("pong").map_err(err("open"))?;
    let done = AtomicBool::new(false);

    let result = thread::scope(|sc| {
        let echo = sc.spawn(|| -> Result<(), String> {
            let mut buf = vec![0u8; 64];
            loop {
                let dl = Instant::now() + Duration::from_millis(200);
                match b.recv_deadline(ping_rx, &mut buf, Some(dl)) {
                    Ok(n) => b
                        .message_send(pong_tx, &p.transform(&buf[..n]))
                        .map_err(err("echo send"))?,
                    Err(MpfError::TimedOut) if done.load(Ordering::Acquire) => return Ok(()),
                    Err(MpfError::TimedOut) => {}
                    Err(e) => return Err(err("echo receive")(e)),
                }
            }
        });
        let rungs = (|| -> Result<Ladder, String> {
            let mut seq = 0u64;
            let check = |seq: u64, req: &[u8], reply: &[u8]| {
                if reply != p.transform(req) {
                    oracle.fail(format!("ladder: echo {seq} does not match the transform"));
                }
            };
            let mut ipc_rt = Sampler::default();
            let mut buf = vec![0u8; 64];
            let warm = Instant::now() + per_rung / 10;
            let end = Instant::now() + per_rung;
            while Instant::now() < end {
                seq += 1;
                let req = p.request(seq);
                let t0 = Instant::now();
                a.message_send(ping_tx, &req).map_err(err("send"))?;
                let dl = Instant::now() + Duration::from_secs(1);
                let n = a
                    .recv_deadline(pong_rx, &mut buf, Some(dl))
                    .map_err(err("receive"))?;
                let t1 = Instant::now();
                check(seq, &req, &buf[..n]);
                if t0 >= warm {
                    ipc_rt.push((t1 - t0).as_nanos() as u64);
                }
            }
            let aa = AsyncIpc::new(Arc::clone(&a));
            let mut aio_rt = Sampler::default();
            let warm = Instant::now() + per_rung / 10;
            let end = Instant::now() + per_rung;
            while Instant::now() < end {
                seq += 1;
                let req = p.request(seq);
                let t0 = Instant::now();
                let reply = block_on(async {
                    aa.send(ping_tx, req.clone()).await?;
                    aa.recv(pong_rx).await
                })
                .map_err(err("async round trip"))?;
                let t1 = Instant::now();
                check(seq, &req, &reply);
                if t0 >= warm {
                    aio_rt.push((t1 - t0).as_nanos() as u64);
                }
            }
            Ok(Ladder { ipc_rt, aio_rt })
        })();
        done.store(true, Ordering::Release);
        let echoed = echo
            .join()
            .map_err(|_| "ladder: echo thread panicked".to_string())?;
        echoed?;
        rungs
    })?;

    a.close_send(ping_tx).map_err(err("close"))?;
    a.close_receive(pong_rx).map_err(err("close"))?;
    b.close_receive(ping_rx).map_err(err("close"))?;
    b.close_send(pong_tx).map_err(err("close"))?;
    ipc_teardown(&a, cfg.total_blocks).check("ladder")?;
    Ok(result)
}
