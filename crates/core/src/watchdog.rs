//! Convergence watchdog: per-fault recovery analysis for chaos runs.
//!
//! The chaos layer ([`digs_sim::fault::ChaosPlan`]) injects a randomized
//! stream of churn, reboots, link flaps, desyncs, and jammer bursts; this
//! module answers, for each injected fault's onset, the questions the paper's
//! Fig. 9(f)/11(b) micro-benchmarks answer for a single event: how long
//! until the network recovered (windowed PDR back near its pre-event
//! baseline *and* the routing graph quiet again), how gracefully it
//! degraded in the valley (minimum windowed PDR, packets lost), and —
//! crucially for a soak test — whether it recovered at all before the run
//! ended.

use crate::flows::FlowSpec;
use crate::results::RunResults;
use crate::timeline::delivery_timeline;
use digs_sim::time::Asn;

/// PDR windowing granularity of the recovery analysis, seconds.
pub(crate) const WINDOW_SECS: u64 = 10;

/// How long the routing graph must stay free of parent changes to count as
/// quiet, seconds; also the health monitor's default settle time after
/// convergence ([`crate::config::NetworkConfig::health_settle_secs`]).
pub(crate) const SETTLE_SECS: u64 = 10;

/// Fraction of the pre-event baseline PDR that counts as "restored"; also
/// the fraction of joined nodes at which the health monitor counts the
/// network as converged.
pub(crate) const RESTORE_FRACTION: f64 = 0.9;

/// Recovery outcome for one injected fault (reports come in onset order).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Time until windowed PDR climbed back above the restore threshold,
    /// seconds after injection (`None`: never before the run ended).
    pub pdr_restored_secs: Option<f64>,
    /// Time until the routing graph went quiet (no parent change for 10 s),
    /// seconds after injection (`None`: still churning at the end of the
    /// run).
    pub graph_quiet_secs: Option<f64>,
    /// Overall time to recovery: both PDR restored and graph quiet
    /// (`None` when either never happened — non-convergence).
    pub recovery_secs: Option<f64>,
    /// Minimum windowed PDR observed between injection and recovery (the
    /// valley floor; `1.0` when no window dipped).
    pub min_window_pdr: f64,
    /// Packets generated in the valley that never arrived.
    pub packets_lost_in_valley: u32,
    /// Whether the network demonstrably recovered from this fault.
    pub converged: bool,
}

/// Aggregate of a whole chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogSummary {
    /// Number of injected events analyzed.
    pub events: usize,
    /// How many of them the network recovered from.
    pub converged: usize,
    /// The slowest observed recovery, seconds.
    pub worst_recovery_secs: Option<f64>,
    /// The deepest PDR valley across all events.
    pub min_window_pdr: f64,
    /// Total packets lost across all valleys.
    pub total_packets_lost: u32,
}

/// Analyzes recovery from each injected fault, given by its onset.
///
/// The pre-event baseline is the mean windowed PDR over the non-empty
/// windows that closed before the event; a fault injected before any
/// traffic flowed is measured against a baseline of 1.0.
///
/// # Panics
///
/// Panics if `specs` doesn't match the run's flows (see
/// [`delivery_timeline`]).
pub fn analyze(results: &RunResults, specs: &[FlowSpec], onsets: &[Asn]) -> Vec<RecoveryReport> {
    let timeline = delivery_timeline(results, specs, WINDOW_SECS);
    let window_slots = Asn::from_secs(WINDOW_SECS).0;
    let settle_slots = Asn::from_secs(SETTLE_SECS).0;

    onsets
        .iter()
        .map(|&onset| {
            let at = onset.0;
            let event_window = (at / window_slots) as usize;

            // Baseline: mean PDR over complete pre-event windows.
            let pre: Vec<f64> = timeline[..event_window.min(timeline.len())]
                .iter()
                .filter_map(|p| p.pdr())
                .collect();
            let baseline =
                if pre.is_empty() { 1.0 } else { pre.iter().sum::<f64>() / pre.len() as f64 };
            let threshold = baseline * RESTORE_FRACTION;

            // PDR restored: the first window at/after the event whose PDR
            // meets the threshold; restoration is credited at the window's
            // close (the full window is the evidence).
            let restore_window = timeline
                .iter()
                .enumerate()
                .skip(event_window)
                .find(|(_, p)| p.pdr().is_some_and(|r| r >= threshold))
                .map(|(w, _)| w);
            let pdr_restored_slots = restore_window.map(|w| {
                let close = (w as u64 + 1) * window_slots;
                close.saturating_sub(at)
            });

            // Graph quiet: the last parent change of the post-event burst
            // that is followed by `SETTLE_SECS` of silence (the end of the
            // run counts as silence only if the remaining gap is long
            // enough — otherwise the graph may still be churning).
            let graph_quiet_slots = match results.burst_end(onset, settle_slots) {
                None => Some(0),
                Some((change, true)) => Some(change - at),
                Some((_, false)) => None,
            };

            let recovery_slots = match (pdr_restored_slots, graph_quiet_slots) {
                (Some(p), Some(g)) => Some(p.max(g)),
                _ => None,
            };

            // Valley: the windows from injection until restoration (or the
            // end of the run when PDR never came back).
            let valley_end = restore_window.map_or(timeline.len(), |w| w + 1);
            let valley = &timeline[event_window.min(timeline.len())..valley_end];
            let min_window_pdr = valley.iter().filter_map(|p| p.pdr()).fold(1.0, f64::min);
            let packets_lost_in_valley = valley.iter().map(|p| p.generated - p.delivered).sum();

            let secs = |slots: u64| slots as f64 / digs_sim::time::SLOTS_PER_SECOND as f64;
            RecoveryReport {
                pdr_restored_secs: pdr_restored_slots.map(secs),
                graph_quiet_secs: graph_quiet_slots.map(secs),
                recovery_secs: recovery_slots.map(secs),
                min_window_pdr,
                packets_lost_in_valley,
                converged: recovery_slots.is_some(),
            }
        })
        .collect()
}

/// Aggregates per-event reports into a run-level summary.
pub fn summarize(reports: &[RecoveryReport]) -> WatchdogSummary {
    WatchdogSummary {
        events: reports.len(),
        converged: reports.iter().filter(|r| r.converged).count(),
        worst_recovery_secs: reports
            .iter()
            .filter_map(|r| r.recovery_secs)
            .fold(None, |acc: Option<f64>, s| Some(acc.map_or(s, |a| a.max(s)))),
        min_window_pdr: reports.iter().map(|r| r.min_window_pdr).fold(1.0, f64::min),
        total_packets_lost: reports.iter().map(|r| r.packets_lost_in_valley).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::FlowResult;
    use digs_sim::ids::{FlowId, NodeId};

    /// One flow, one packet per second for `secs` seconds, with the given
    /// sequence numbers lost.
    fn results_with_losses(secs: u64, lost: &[u32]) -> (RunResults, Vec<FlowSpec>) {
        let generated = secs as u32;
        let delivered_seqs: std::collections::BTreeSet<u32> =
            (0..generated).filter(|s| !lost.contains(s)).collect();
        let results = RunResults {
            duration: Asn::from_secs(secs),
            flows: vec![FlowResult {
                flow: FlowId(0),
                source: NodeId(9),
                generated,
                delivered: delivered_seqs.len() as u32,
                delivered_seqs,
                latencies_ms: Vec::new(),
            }],
            nodes: Vec::new(),
            parent_change_times: Vec::new(),
            retry_drops: 0,
            queue_drops: 0,
            invariant_violations: Vec::new(),
        };
        let specs = vec![FlowSpec { id: FlowId(0), source: NodeId(9), period: 100, phase: 0 }];
        (results, specs)
    }

    #[test]
    fn default_windows_measure_a_recovery_the_graph_finishes() {
        // 90 s at 1 pkt/s with 10 s windows. Seq 5 is lost before the
        // 30 s event (baseline 0.967, threshold 0.87); seqs 30..45 are
        // lost after it, so windows 30–40 s and 40–50 s read 0.0 and 0.5
        // and 50–60 s restores PDR (closes 30 s after the event). Parent
        // changes 9–9.5 s apart never leave 10 s of quiet until the last
        // one at 68 s, whose 22 s to the end of the run count as quiet.
        let lost: Vec<u32> = std::iter::once(5).chain(30..45).collect();
        let (mut results, specs) = results_with_losses(90, &lost);
        results.parent_change_times =
            [3100, 4000, 4000, 4950, 5900, 6800].into_iter().map(Asn).collect();
        let report = &analyze(&results, &specs, &[Asn(3000)])[0];
        assert_eq!(report.pdr_restored_secs, Some(30.0));
        assert_eq!(report.graph_quiet_secs, Some(38.0));
        assert_eq!(report.recovery_secs, Some(38.0));
        assert_eq!(report.min_window_pdr, 0.0);
        assert_eq!(report.packets_lost_in_valley, 15);
        assert!(report.converged);
    }

    #[test]
    fn clean_recovery_is_measured() {
        // Seqs 40..60 lost (valley at 40–60 s); parent churn at 41 s and
        // 44 s, then quiet.
        let (mut results, specs) = results_with_losses(120, &(40..60).collect::<Vec<_>>());
        results.parent_change_times = vec![Asn(4100), Asn(4400)];
        let report = &analyze(&results, &specs, &[Asn(4000)])[0];
        assert!(report.converged);
        // PDR back in the 60–70 s window (closes at 70 s → 30 s after the
        // 40 s event); graph quiet at 44 s (4 s after).
        assert_eq!(report.pdr_restored_secs, Some(30.0));
        assert_eq!(report.graph_quiet_secs, Some(4.0));
        assert_eq!(report.recovery_secs, Some(30.0));
        assert_eq!(report.min_window_pdr, 0.0);
        assert_eq!(report.packets_lost_in_valley, 20);
    }

    #[test]
    fn unrecovered_pdr_flags_non_convergence() {
        // Everything from 40 s onward is lost: PDR never restored.
        let (results, specs) = results_with_losses(120, &(40..120).collect::<Vec<_>>());
        let report = &analyze(&results, &specs, &[Asn(4000)])[0];
        assert!(!report.converged);
        assert_eq!(report.pdr_restored_secs, None);
        assert_eq!(report.recovery_secs, None);
        assert_eq!(report.packets_lost_in_valley, 80);
    }

    #[test]
    fn churn_to_the_end_flags_non_convergence() {
        // PDR untouched, but parent changes every 4 s to the end of the
        // run: the graph never goes quiet.
        let (mut results, specs) = results_with_losses(120, &[]);
        results.parent_change_times = (4000..12000).step_by(400).map(Asn).collect();
        let report = &analyze(&results, &specs, &[Asn(4000)])[0];
        assert!(report.pdr_restored_secs.is_some());
        assert_eq!(report.graph_quiet_secs, None);
        assert!(!report.converged);
    }

    #[test]
    fn no_impact_recovers_within_one_window() {
        let (results, specs) = results_with_losses(120, &[]);
        let report = &analyze(&results, &specs, &[Asn(4000)])[0];
        assert!(report.converged);
        assert_eq!(report.graph_quiet_secs, Some(0.0));
        // The event's own window already meets the threshold; restoration
        // is credited at its close (50 s → 10 s after the 40 s event).
        assert_eq!(report.pdr_restored_secs, Some(10.0));
        assert_eq!(report.min_window_pdr, 1.0);
        assert_eq!(report.packets_lost_in_valley, 0);
    }

    #[test]
    fn summary_aggregates_reports() {
        let (mut results, specs) = results_with_losses(120, &(40..60).collect::<Vec<_>>());
        results.parent_change_times = vec![Asn(4100)];
        let reports = analyze(&results, &specs, &[Asn(4000), Asn(5200)]);
        let summary = summarize(&reports);
        assert_eq!(summary.events, 2);
        assert_eq!(summary.converged, summary.events);
        assert_eq!(summary.min_window_pdr, 0.0);
        assert!(summary.worst_recovery_secs.is_some());
    }
}
