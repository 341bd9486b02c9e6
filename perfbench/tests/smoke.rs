//! Sub-second smoke runs: every workload passes its oracle and reports
//! every metric, untraced and traced.

use perfbench::workloads::Workload;
use perfbench::{run, RunCfg, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) {
    let cfg = RunCfg {
        workload,
        seed: 11,
        seconds: 0.4,
        trace,
        setups: 2,
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    let want: Vec<&str> = if trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| *n).collect()
    };
    let got: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, want);
    assert!(report.attempted >= 1);
    assert_eq!(report.failed, 0);
    for m in &report.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            workload.name(),
            m.name,
            m.value
        );
    }
    if trace {
        assert!(!report.spans.spans().is_empty());
    }
    perfbench::host::unlink_regions();
}

#[test]
fn ipc_stream_16b_smoke() {
    smoke(Workload::IpcStream16b, false);
}

#[test]
fn ipc_stream_16k_smoke() {
    smoke(Workload::IpcStream16k, false);
}

#[test]
fn serve_rpc_64b_smoke() {
    smoke(Workload::ServeRpc64b, false);
}

#[test]
fn core_bcast_256b_smoke() {
    smoke(Workload::CoreBcast256b, false);
}

#[test]
fn traced_run_reports_every_layer() {
    smoke(Workload::ServeRpc64b, true);
}
