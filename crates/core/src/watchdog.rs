//! Convergence watchdog: per-fault recovery analysis for chaos runs.
//!
//! The chaos layer ([`digs_sim::fault::ChaosPlan`]) injects a randomized
//! stream of churn, reboots, link flaps, desyncs, and jammer bursts; this
//! module answers, for each injected event, the questions the paper's
//! Fig. 9(f)/11(b) micro-benchmarks answer for a single event: how long
//! until the network recovered (windowed PDR back near its pre-event
//! baseline *and* the routing graph quiet again), how gracefully it
//! degraded in the valley (minimum windowed PDR, packets lost), and —
//! crucially for a soak test — whether it recovered at all before the run
//! ended.

use crate::flows::FlowSpec;
use crate::results::RunResults;
use crate::timeline::delivery_timeline;
use digs_sim::fault::ChaosEvent;
use digs_sim::time::Asn;

/// Tunables for the recovery analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// PDR windowing granularity, seconds.
    pub window_secs: u64,
    /// How long the routing graph must stay free of parent changes to
    /// count as quiet, seconds.
    pub settle_secs: u64,
    /// Fraction of the pre-event baseline PDR that counts as "restored".
    pub restore_fraction: f64,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig { window_secs: 10, settle_secs: 10, restore_fraction: 0.9 }
    }
}

/// A fault event the watchdog tracks recovery from.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchdogEvent {
    /// Human-readable description of the injected fault.
    pub label: String,
    /// Injection time.
    pub at: Asn,
}

/// Adapts a chaos plan's event log into watchdog events.
pub fn events_from_chaos(events: &[ChaosEvent]) -> Vec<WatchdogEvent> {
    events
        .iter()
        .map(|e| WatchdogEvent {
            label: match e.peer {
                Some(peer) => format!("{:?} node {} peer {}", e.kind, e.node.0, peer.0),
                None => format!("{:?} node {}", e.kind, e.node.0),
            },
            at: e.from,
        })
        .collect()
}

/// Recovery outcome for one injected fault.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The fault this report covers.
    pub event: WatchdogEvent,
    /// Time until windowed PDR climbed back above the restore threshold,
    /// seconds after injection (`None`: never before the run ended).
    pub pdr_restored_secs: Option<f64>,
    /// Time until the routing graph went quiet (no parent change for
    /// `settle_secs`), seconds after injection (`None`: still churning at
    /// the end of the run).
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

impl WatchdogSummary {
    /// Whether every injected fault was recovered from.
    pub fn all_converged(&self) -> bool {
        self.converged == self.events
    }
}

/// Analyzes recovery from each injected fault.
///
/// The pre-event baseline is the mean windowed PDR over the non-empty
/// windows that closed before the event; a fault injected before any
/// traffic flowed is measured against a baseline of 1.0.
///
/// # Panics
///
/// Panics if `specs` doesn't match the run's flows or the configured
/// window is zero (see [`delivery_timeline`]).
pub fn analyze(
    results: &RunResults,
    specs: &[FlowSpec],
    events: &[WatchdogEvent],
    config: &WatchdogConfig,
) -> Vec<RecoveryReport> {
    let timeline = delivery_timeline(results, specs, config.window_secs);
    let window_slots = Asn::from_secs(config.window_secs).0;
    let settle_slots = Asn::from_secs(config.settle_secs).0;

    let mut changes: Vec<u64> = results.parent_change_times.iter().map(|t| t.0).collect();
    changes.sort_unstable();
    changes.dedup();

    events
        .iter()
        .map(|event| {
            let at = event.at.0;
            let event_window = (at / window_slots) as usize;

            // Baseline: mean PDR over complete pre-event windows.
            let pre: Vec<f64> = timeline[..event_window.min(timeline.len())]
                .iter()
                .filter_map(|p| p.pdr())
                .collect();
            let baseline =
                if pre.is_empty() { 1.0 } else { pre.iter().sum::<f64>() / pre.len() as f64 };
            let threshold = baseline * config.restore_fraction;

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
            // that is followed by `settle_secs` of silence (the end of the
            // run counts as silence only if the remaining gap is long
            // enough — otherwise the graph may still be churning).
            let post: Vec<u64> = changes.iter().copied().filter(|t| *t >= at).collect();
            let graph_quiet_slots = if post.is_empty() {
                Some(0)
            } else {
                let mut quiet = None;
                for (i, t) in post.iter().enumerate() {
                    let next = post.get(i + 1).copied().unwrap_or(results.duration.0);
                    if next.saturating_sub(*t) >= settle_slots {
                        quiet = Some(t.saturating_sub(at));
                        break;
                    }
                }
                quiet
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
                event: event.clone(),
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

    fn config() -> WatchdogConfig {
        WatchdogConfig { window_secs: 5, settle_secs: 5, restore_fraction: 0.9 }
    }

    #[test]
    fn clean_recovery_is_measured() {
        // Seqs 20..30 lost (valley at 20–30 s); parent churn at 20.5 s and
        // 22 s, then quiet.
        let (mut results, specs) = results_with_losses(60, &(20..30).collect::<Vec<_>>());
        results.parent_change_times = vec![Asn(2050), Asn(2200)];
        let event = WatchdogEvent { label: "outage".into(), at: Asn(2000) };
        let report = &analyze(&results, &specs, &[event], &config())[0];
        assert!(report.converged);
        // PDR back in the 30–35 s window (closes at 35 s → 15 s after the
        // 20 s event); graph quiet at 22 s (2 s after).
        assert_eq!(report.pdr_restored_secs, Some(15.0));
        assert_eq!(report.graph_quiet_secs, Some(2.0));
        assert_eq!(report.recovery_secs, Some(15.0));
        assert_eq!(report.min_window_pdr, 0.0);
        assert_eq!(report.packets_lost_in_valley, 10);
    }

    #[test]
    fn unrecovered_pdr_flags_non_convergence() {
        // Everything from 20 s onward is lost: PDR never restored.
        let (results, specs) = results_with_losses(60, &(20..60).collect::<Vec<_>>());
        let event = WatchdogEvent { label: "perma".into(), at: Asn(2000) };
        let report = &analyze(&results, &specs, &[event], &config())[0];
        assert!(!report.converged);
        assert_eq!(report.pdr_restored_secs, None);
        assert_eq!(report.recovery_secs, None);
        assert_eq!(report.packets_lost_in_valley, 40);
    }

    #[test]
    fn churn_to_the_end_flags_non_convergence() {
        // PDR untouched, but parent changes every 2 s to the end of the
        // run: the graph never goes quiet.
        let (mut results, specs) = results_with_losses(60, &[]);
        results.parent_change_times = (2000..6000).step_by(200).map(Asn).collect();
        let event = WatchdogEvent { label: "churny".into(), at: Asn(2000) };
        let report = &analyze(&results, &specs, &[event], &config())[0];
        assert!(report.pdr_restored_secs.is_some());
        assert_eq!(report.graph_quiet_secs, None);
        assert!(!report.converged);
    }

    #[test]
    fn no_impact_recovers_within_one_window() {
        let (results, specs) = results_with_losses(60, &[]);
        let event = WatchdogEvent { label: "dud".into(), at: Asn(2000) };
        let report = &analyze(&results, &specs, &[event], &config())[0];
        assert!(report.converged);
        assert_eq!(report.graph_quiet_secs, Some(0.0));
        // The event's own window already meets the threshold; restoration
        // is credited at its close (25 s → 5 s after the 20 s event).
        assert_eq!(report.pdr_restored_secs, Some(5.0));
        assert_eq!(report.min_window_pdr, 1.0);
        assert_eq!(report.packets_lost_in_valley, 0);
    }

    #[test]
    fn summary_aggregates_reports() {
        let (mut results, specs) = results_with_losses(60, &(20..30).collect::<Vec<_>>());
        results.parent_change_times = vec![Asn(2050)];
        let events = vec![
            WatchdogEvent { label: "a".into(), at: Asn(2000) },
            WatchdogEvent { label: "b".into(), at: Asn(2600) },
        ];
        let reports = analyze(&results, &specs, &events, &config());
        let summary = summarize(&reports);
        assert_eq!(summary.events, 2);
        assert!(summary.all_converged());
        assert_eq!(summary.min_window_pdr, 0.0);
        assert!(summary.worst_recovery_secs.is_some());
    }

    #[test]
    fn chaos_events_adapt_with_labels() {
        use digs_sim::fault::{ChaosEvent, ChaosEventKind};
        let events = vec![ChaosEvent {
            kind: ChaosEventKind::LinkFlap,
            node: NodeId(7),
            peer: Some(NodeId(9)),
            from: Asn(500),
            until: Some(Asn(900)),
        }];
        let adapted = events_from_chaos(&events);
        assert_eq!(adapted.len(), 1);
        assert!(adapted[0].label.contains("LinkFlap"));
        assert!(adapted[0].label.contains('7'));
        assert_eq!(adapted[0].at, Asn(500));
    }
}
