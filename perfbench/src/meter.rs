//! The measured window of one pass: a warm-up, then fixed-length slices
//! whose rates and CPU cost per operation are reported as medians, so a
//! slice slowed by another tenant of the host moves no figure.

use std::time::{Duration, Instant};

use crate::host::process_cpu_s;

/// Slices per measured window.
const SLICES: u32 = 100;

/// Owned by the thread that completes operations; fed once per
/// completion.
#[derive(Debug)]
pub struct Meter {
    warm_end: Instant,
    measure: Duration,
    slice: Duration,
    state: State,
    slice_start: Instant,
    slice_ops: u64,
    slice_bytes: u64,
    pub ops_rates: Vec<f64>,
    pub byte_rates: Vec<f64>,
    /// Process CPU seconds per operation, one value per slice.
    pub cpu_per_op: Vec<f64>,
    pub ops: u64,
    pub bytes: u64,
    slice_cpu: f64,
    end: Instant,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Warming,
    Measuring,
    Done,
}

/// What a completion just did to the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Nothing changed.
    None,
    /// The measured window opened (this completion is not in it).
    Opened,
    /// The measured window closed with this completion.
    Closed,
}

impl Meter {
    /// Warm-up of a tenth of `measure` (50 ms to 1 s), then `measure`.
    pub fn new(measure: Duration) -> Self {
        let warm = measure
            .mul_f64(0.1)
            .clamp(Duration::from_millis(50), Duration::from_secs(1));
        let now = Instant::now();
        Meter {
            warm_end: now + warm,
            measure,
            slice: (measure / SLICES).max(Duration::from_millis(20)),
            state: State::Warming,
            slice_start: now,
            slice_ops: 0,
            slice_bytes: 0,
            ops_rates: Vec::new(),
            byte_rates: Vec::new(),
            cpu_per_op: Vec::new(),
            ops: 0,
            bytes: 0,
            slice_cpu: 0.0,
            end: now,
        }
    }

    /// Whether a completion at this point falls inside the window.
    pub fn in_window(&self) -> bool {
        self.state == State::Measuring
    }

    pub fn done(&self) -> bool {
        self.state == State::Done
    }

    /// Records `ops` completions carrying `bytes` payload bytes at `now`.
    pub fn record(&mut self, now: Instant, ops: u64, bytes: u64) -> Edge {
        match self.state {
            State::Done => Edge::None,
            State::Warming => {
                if now < self.warm_end {
                    return Edge::None;
                }
                self.state = State::Measuring;
                self.slice_start = now;
                self.end = now + self.measure;
                self.slice_cpu = process_cpu_s();
                Edge::Opened
            }
            State::Measuring => {
                self.ops += ops;
                self.bytes += bytes;
                self.slice_ops += ops;
                self.slice_bytes += bytes;
                let in_slice = now - self.slice_start;
                let closing = now >= self.end;
                if in_slice >= self.slice || (closing && in_slice >= self.slice / 2) {
                    let secs = in_slice.as_secs_f64();
                    self.ops_rates.push(self.slice_ops as f64 / secs);
                    self.byte_rates.push(self.slice_bytes as f64 / secs);
                    let cpu = process_cpu_s();
                    if self.slice_ops > 0 {
                        self.cpu_per_op
                            .push((cpu - self.slice_cpu) / self.slice_ops as f64);
                    }
                    self.slice_cpu = cpu;
                    self.slice_start = now;
                    self.slice_ops = 0;
                    self.slice_bytes = 0;
                }
                if closing {
                    self.state = State::Done;
                    Edge::Closed
                } else {
                    Edge::None
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_opens_then_closes_with_slices() {
        let mut m = Meter::new(Duration::from_millis(1000));
        let start = Instant::now();
        let mut opened = false;
        loop {
            std::thread::sleep(Duration::from_millis(1));
            match m.record(Instant::now(), 1, 16) {
                Edge::Opened => opened = true,
                Edge::Closed => break,
                Edge::None => {}
            }
        }
        assert!(opened);
        assert!(m.done());
        assert!(start.elapsed() >= Duration::from_millis(1100));
        // One-second window, 20 ms minimum slices.
        assert!(
            (40..=51).contains(&m.ops_rates.len()),
            "{}",
            m.ops_rates.len()
        );
        assert_eq!(m.cpu_per_op.len(), m.ops_rates.len());
        assert_eq!(m.bytes, m.ops * 16);
    }
}
