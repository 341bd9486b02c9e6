//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a details line (provenance and every percentile with its
//! sample count), then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`.  An oracle
//! violation or an invalid run exits non-zero without printing a result.

use std::path::Path;
use std::time::Duration;

use perfbench::host::{self, json_str};
use perfbench::spans::chrome_json;
use perfbench::workloads::Workload;
use perfbench::{run, Report, RunCfg};

/// A run that outlives this is stopped, its regions unlinked.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Set-ups per pass; their median is `setup_s`.
const SETUPS: usize = 15;

/// Where result and trace files go, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <0.05..=60> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<RunCfg, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.05..=60.0).contains(&s) {
                    return Err(format!("--seconds {s} outside 0.05..=60"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(RunCfg {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        setups: SETUPS,
    })
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    host::install_panic_cleanup();
    for stale in host::stale_regions() {
        eprintln!(
            "perfbench: warning: stale region {} left by a killed run (remove it by hand)",
            stale.display()
        );
    }
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        host::unlink_regions();
        eprintln!("perfbench: run exceeded {} s; stopped", WATCHDOG.as_secs());
        std::process::exit(3);
    });

    let provenance =
        host::provenance_json(cfg.workload.name(), cfg.seed, cfg.seconds as u64, cfg.trace);
    let result = run(&cfg);
    host::unlink_regions();
    let report = match result {
        Ok(r) => r,
        Err(why) => {
            eprintln!("perfbench: {}: run invalid: {why}", cfg.workload.name());
            std::process::exit(1);
        }
    };
    if let Some(m) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} measured no value", m.name);
        std::process::exit(1);
    }
    let details = details_json(&provenance, &report);
    let files = write_files(Path::new(OUT_DIR), &cfg, &details, &report);
    println!("{{\"perfbench\":{details},\"files\":{files}}}");
    println!("{}", result_json(&report));
}

fn details_json(provenance: &str, r: &Report) -> String {
    let pcts: Vec<String> = r
        .pcts
        .iter()
        .map(|(name, p)| {
            format!(
                "{}:{{\"value_ns\":{},\"n\":{},\"beyond\":{}}}",
                json_str(name),
                p.value,
                p.n,
                p.beyond
            )
        })
        .collect();
    format!(
        "{{\"provenance\":{provenance},\"percentiles\":{{{}}},\"spans\":{},\"spans_dropped\":{}}}",
        pcts.join(","),
        r.spans.spans().len(),
        r.spans.dropped()
    )
}

fn result_json(r: &Report) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// Writes the result (with its details) and, for a traced run, the
/// Chrome trace.  Returns the paths written as a JSON list; a write
/// failure is reported and skipped, since the result line still stands.
fn write_files(dir: &Path, cfg: &RunCfg, details: &str, r: &Report) -> String {
    let stem = format!(
        "{}-seed{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        if cfg.trace { "traced" } else { "e2e" },
        std::process::id()
    );
    let mut files = vec![(
        dir.join(format!("{stem}.json")),
        format!("{{\"details\":{details},\"result\":{}}}", result_json(r)),
    )];
    if cfg.trace {
        files.push((
            dir.join(format!("{stem}.trace.json")),
            chrome_json(r.spans.spans(), std::process::id(), &r.threads),
        ));
    }
    let mut written = Vec::new();
    for (path, body) in files {
        let res = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body));
        match res {
            Ok(()) => written.push(json_str(&path.display().to_string())),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    format!("[{}]", written.join(","))
}
