//! Time-resolved views of a run: windowed PDR series showing how delivery
//! evolves through jam onset, repair, and recovery (the time axis behind
//! the paper's Fig. 9(f)/11(b) micro-benchmarks).

use crate::flows::FlowSpec;
use crate::results::RunResults;
use digs_sim::time::Asn;

/// One point of a windowed delivery series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Window start, seconds into the run.
    pub start_secs: f64,
    /// Packets generated in the window (across the selected flows).
    pub generated: u32,
    /// Of those, packets that were eventually delivered.
    pub delivered: u32,
}

impl TimelinePoint {
    /// Delivery ratio of the window (`None` for an empty window).
    pub fn pdr(&self) -> Option<f64> {
        if self.generated == 0 {
            None
        } else {
            Some(f64::from(self.delivered) / f64::from(self.generated))
        }
    }
}

/// Computes the network-wide windowed delivery series for a run.
///
/// Each packet is attributed to the window containing its *generation*
/// time (so a window's PDR answers: of the packets born here, how many
/// made it — the paper's per-packet micro-benchmark view, aggregated).
///
/// # Panics
///
/// Panics if `window_secs` is zero or `specs` doesn't match the run's
/// flows.
pub fn delivery_timeline(
    results: &RunResults,
    specs: &[FlowSpec],
    window_secs: u64,
) -> Vec<TimelinePoint> {
    assert!(window_secs > 0, "window must be positive");
    assert_eq!(specs.len(), results.flows.len(), "one spec per flow result required");
    let window_slots = Asn::from_secs(window_secs).0;
    let horizon = results.duration.0;
    let n_windows = horizon.div_ceil(window_slots) as usize;
    let mut points: Vec<TimelinePoint> = (0..n_windows)
        .map(|w| TimelinePoint {
            start_secs: (w as u64 * window_slots) as f64 / 100.0,
            generated: 0,
            delivered: 0,
        })
        .collect();
    for (flow, spec) in results.flows.iter().zip(specs) {
        assert_eq!(flow.flow, spec.id, "flow order mismatch");
        for seq in 0..flow.generated {
            let born = spec.phase + u64::from(seq) * spec.period;
            let w = (born / window_slots) as usize;
            if w >= points.len() {
                continue;
            }
            points[w].generated += 1;
            if flow.seq_delivered(seq) {
                points[w].delivered += 1;
            }
        }
    }
    points
}

/// Renders a timeline as a compact text sparkline: one glyph per window
/// (`█` ≥ 99 %, `▆` ≥ 90 %, `▄` ≥ 70 %, `▂` ≥ 40 %, `·` below, space for
/// idle windows).
pub fn sparkline(points: &[TimelinePoint]) -> String {
    points
        .iter()
        .map(|p| match p.pdr() {
            None => ' ',
            Some(r) if r >= 0.99 => '█',
            Some(r) if r >= 0.90 => '▆',
            Some(r) if r >= 0.70 => '▄',
            Some(r) if r >= 0.40 => '▂',
            Some(_) => '·',
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::FlowResult;
    use digs_sim::ids::{FlowId, NodeId};

    fn results_with(generated: u32, delivered: &[u32], duration_secs: u64) -> RunResults {
        RunResults {
            duration: Asn::from_secs(duration_secs),
            flows: vec![FlowResult {
                flow: FlowId(0),
                source: NodeId(5),
                generated,
                delivered: delivered.len() as u32,
                delivered_seqs: delivered.iter().copied().collect(),
                latencies_ms: vec![100.0; delivered.len()],
            }],
            nodes: Vec::new(),
            parent_change_times: Vec::new(),
            retry_drops: 0,
            queue_drops: 0,
            invariant_violations: Vec::new(),
        }
    }

    fn spec() -> FlowSpec {
        // One packet per 10 s, starting at t = 0.
        FlowSpec { id: FlowId(0), source: NodeId(5), period: 1000, phase: 0 }
    }

    #[test]
    fn packets_fall_into_generation_windows() {
        // 6 packets over 60 s; packets 2 and 3 lost.
        let results = results_with(6, &[0, 1, 4, 5], 60);
        let timeline = delivery_timeline(&results, &[spec()], 20);
        assert_eq!(timeline.len(), 3);
        // Window 0 (0–20 s): seqs 0, 1 → both delivered.
        assert_eq!(timeline[0].generated, 2);
        assert_eq!(timeline[0].delivered, 2);
        // Window 1 (20–40 s): seqs 2, 3 → both lost.
        assert_eq!(timeline[1].generated, 2);
        assert_eq!(timeline[1].delivered, 0);
        assert_eq!(timeline[1].pdr(), Some(0.0));
        // Window 2 (40–60 s): seqs 4, 5 → both delivered.
        assert_eq!(timeline[2].pdr(), Some(1.0));
    }

    #[test]
    fn empty_window_has_no_pdr() {
        let results = results_with(1, &[0], 60);
        let timeline = delivery_timeline(&results, &[spec()], 20);
        assert_eq!(timeline[0].pdr(), Some(1.0));
        assert_eq!(timeline[1].pdr(), None, "no packets born in window 1");
    }

    #[test]
    fn sparkline_encodes_ratios() {
        let results = results_with(6, &[0, 1, 4], 60);
        let timeline = delivery_timeline(&results, &[spec()], 20);
        let line = sparkline(&timeline);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('█'));
        assert!(line.contains('·'));
    }

    #[test]
    #[should_panic(expected = "one spec per flow result")]
    fn mismatched_specs_panic() {
        let results = results_with(1, &[0], 10);
        let _ = delivery_timeline(&results, &[], 10);
    }
}
