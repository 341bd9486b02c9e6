//! perfbench: the MPF workspace's benchmark.
//!
//! One command runs a named workload through the library's public API
//! from one OS process with at most two benchmark threads, checks every
//! delivery with the [`oracle`], and reports the end-to-end metrics; a
//! traced run (`--trace 1`) times the calls the benchmark makes into each
//! layer and reports the per-layer metrics instead.  See `README.md`
//! beside this crate for the workloads and for which layer metric
//! should move which end-to-end metric.

pub mod host;
pub mod layers;
pub mod meter;
pub mod oracle;
pub mod spans;
pub mod stats;
pub mod workloads;

use std::time::{Duration, Instant};

use crate::oracle::Oracle;
use crate::spans::SpanBuf;
use crate::stats::{median, Percentile};
use crate::workloads::{Pass, Settings, Workload};

/// End-to-end metrics: `(name, unit)`, reported by every untraced run.
/// The round-trip tail (p99) is not among them: on a shared 2-vCPU
/// host it moves by more than any usable bound from run to run, so it is
/// reported without a bound as `bench.rtt_p99_us` by the traced run, and
/// with its sample count in every run's details line.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("bytes_per_s", "B/s"),
    ("calls_per_s", "1/s"),
    ("rtt_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("region_bytes", "B"),
];

/// Per-layer metrics: `(name, unit)`, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("shm.futex_rt_us_p50", "us"),
    ("shm.ipclock_pair_ns", "ns"),
    ("shm.clock_read_ns", "ns"),
    ("shm.memcpy_bytes_per_s", "B/s"),
    ("ipc.send_us_p50", "us"),
    ("ipc.send_us_p99", "us"),
    ("ipc.recv_us_p50", "us"),
    ("ipc.recv_us_p99", "us"),
    ("ipc.send_refused_per_msg", "1/msg"),
    ("ipc.recv_waits_per_msg", "1/msg"),
    ("ipc.lock_contended_per_msg", "1/msg"),
    ("ipc.queue_depth_hwm", "count"),
    ("ipc.msgs_per_call", "1/call"),
    ("ipc.rt_us_p50", "us"),
    ("ipc.rt_us_p99", "us"),
    ("core.send_us_p50", "us"),
    ("core.send_us_p99", "us"),
    ("core.recv_us_p50", "us"),
    ("core.recv_us_p99", "us"),
    ("core.send_refused_per_msg", "1/msg"),
    ("core.reclaims_per_msg", "1/msg"),
    ("core.lock_contended_per_msg", "1/msg"),
    ("core.recv_waits_per_msg", "1/msg"),
    ("aio.rt_us_p50", "us"),
    ("aio.rt_us_p99", "us"),
    ("aio.cost_over_ipc_us", "us"),
    ("serve.call_us_p50", "us"),
    ("serve.call_us_p99", "us"),
    ("serve.req_hop_us_p50", "us"),
    ("serve.req_hop_us_p99", "us"),
    ("serve.handler_us_p50", "us"),
    ("serve.handler_us_p99", "us"),
    ("serve.reply_hop_us_p50", "us"),
    ("serve.reply_hop_us_p99", "us"),
    ("serve.cost_over_aio_us", "us"),
    ("serve.retries_per_call", "1/call"),
    ("serve.failovers", "count"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.rtt_p99_us", "us"),
];

/// One run's request.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-ups per pass (their median is `setup_s`).
    pub setups: usize,
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A run that passed the oracle.
#[derive(Debug)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Every percentile behind a metric, with its sample count.
    pub pcts: Vec<(String, Percentile)>,
    pub spans: SpanBuf,
    pub threads: Vec<(u32, String)>,
}

/// Runs one workload.  `Err` means the run is invalid: set-up failed, a
/// delivery broke the oracle, or teardown did not conserve the region.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let oracle = Oracle::new();
    let epoch = Instant::now();
    let settings = |traced: bool, tid_base: u32| Settings {
        seed: cfg.seed,
        traced,
        setups: cfg.setups,
        epoch,
        tid_base,
    };
    let secs = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let checked = |pass: Result<Pass, String>| -> Result<Pass, String> {
        let pass = pass?;
        oracle.verdict()?;
        if pass.ops_rates.is_empty() || pass.ops == 0 {
            return Err(format!(
                "{}: measured window too short",
                pass.workload.name()
            ));
        }
        Ok(pass)
    };

    if !cfg.trace {
        let pass = checked(cfg.workload.run(&settings(false, 1), secs(1.0), &oracle))?;
        let metrics = end_to_end(&pass);
        let mut pcts = rtt_percentiles(&pass);
        pcts.extend(pass.pcts);
        return Ok(Report {
            attempted: pass.attempted.max(1),
            failed: pass.failed,
            metrics,
            pcts,
            spans: pass.spans,
            threads: pass.threads,
        });
    }

    // Traced run: the workload untraced and traced back to back (their
    // difference is the tracing overhead), then short traced passes of
    // the workloads the other layers' metrics are tied to, the shm
    // floors, and the round-trip ladder.
    let w = cfg.workload;
    let base = checked(w.run(&settings(false, 1), secs(0.3), &oracle))?;
    let mut passes = vec![checked(w.run(&settings(true, 1), secs(0.3), &oracle))?];
    let stream = matches!(w, Workload::IpcStream16b | Workload::IpcStream16k);
    let others: Vec<Workload> = [
        (!stream).then_some(Workload::IpcStream16b),
        (w != Workload::ServeRpc64b).then_some(Workload::ServeRpc64b),
        (w != Workload::CoreBcast256b).then_some(Workload::CoreBcast256b),
    ]
    .into_iter()
    .flatten()
    .collect();
    for (i, o) in others.iter().enumerate() {
        let share = 0.3 / others.len() as f64;
        passes.push(checked(o.run(
            &settings(true, 10 * (i as u32 + 2)),
            secs(share),
            &oracle,
        ))?);
    }

    let mut layer: Vec<(&'static str, f64)> = Vec::new();
    let mut pcts = Vec::new();
    let mut spans = SpanBuf::new(8 * SpanBuf::DEFAULT_CAP);
    let mut threads = Vec::new();
    let (mut attempted, mut failed) = (base.attempted, base.failed);
    for p in passes.iter_mut() {
        layer.append(&mut p.layer);
        pcts.append(&mut p.pcts);
        threads.append(&mut p.threads);
        spans.absorb(std::mem::replace(&mut p.spans, SpanBuf::new(0)));
        attempted += p.attempted;
        failed += p.failed;
    }

    layers::shm_floors(&mut layer, &mut pcts);

    let rung = secs(0.05).clamp(Duration::from_millis(200), Duration::from_secs(1));
    let ladder = layers::ladder(cfg.seed, rung, &oracle)?;
    oracle.verdict()?;
    for (p50, p99, samples) in [
        ("ipc.rt_us_p50", "ipc.rt_us_p99", &ladder.ipc_rt),
        ("aio.rt_us_p50", "aio.rt_us_p99", &ladder.aio_rt),
    ] {
        let s = samples.summary();
        for (name, p) in [(p50, 50.0), (p99, 99.0)] {
            let pc = s
                .percentile(p)
                .ok_or_else(|| format!("{name}: no round trips measured"))?;
            layer.push((name, pc.value as f64 / 1e3));
            pcts.push((name.to_string(), pc));
        }
    }
    let get = |layer: &[(&str, f64)], name: &str| {
        layer
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("traced run measured no {name}"))
    };
    let aio = get(&layer, "aio.rt_us_p50")?;
    layer.push(("aio.cost_over_ipc_us", aio - get(&layer, "ipc.rt_us_p50")?));
    layer.push((
        "serve.cost_over_aio_us",
        get(&layer, "serve.call_us_p50")? - aio,
    ));
    let traced_rate = median(&passes[0].ops_rates);
    layer.push((
        "bench.trace_overhead_frac",
        1.0 - traced_rate / median(&base.ops_rates),
    ));
    let tail = base.rtt_ns.summary().percentile(99.0);
    let tail = tail.ok_or_else(|| format!("{}: no round trips measured", w.name()))?;
    layer.push(("bench.rtt_p99_us", tail.value as f64 / 1e3));
    pcts.push(("bench.rtt_p99_us".to_string(), tail));

    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        metrics.push(Metric {
            name,
            unit,
            value: get(&layer, name)?,
        });
    }
    Ok(Report {
        attempted: attempted.max(1),
        failed,
        metrics,
        pcts,
        spans,
        threads,
    })
}

/// The end-to-end metrics of an untraced pass.
fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let rtt_p50 = pass.rtt_ns.summary().percentile(50.0);
    let values = [
        median(&pass.setup_s),
        median(&pass.byte_rates),
        median(&pass.ops_rates),
        rtt_p50.map_or(f64::NAN, |pc| pc.value as f64 / 1e3),
        median(&pass.cpu_per_op) * 1e6,
        pass.region_bytes as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Percentiles behind the end-to-end latency metrics.
fn rtt_percentiles(pass: &Pass) -> Vec<(String, Percentile)> {
    let s = pass.rtt_ns.summary();
    [("rtt_p50_us", 50.0), ("rtt_p99_us", 99.0)]
        .into_iter()
        .filter_map(|(n, p)| s.percentile(p).map(|pc| (n.to_string(), pc)))
        .collect()
}
