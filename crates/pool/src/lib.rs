//! A std-only worker pool for fanning independent simulations out over
//! the available cores.
//!
//! Each task is one deterministic simulation: tasks share no mutable
//! state, so a plain channel-fed pool is all the parallelism the
//! conformance matrix, the benchmarks, and the fleet runner need.
//! Results come back in input order regardless of completion order, and
//! per-task wall-clock durations are captured so callers can report their
//! serial-equivalent time (the sum of per-run durations) next to the
//! actual wall clock.
//!
//! A panicking task does not surface as a bare `Option::unwrap` on the
//! collector: every task carries a label (scenario/seed for the gate,
//! network label for the fleet), the worker catches the unwind, and the
//! pool re-panics on the caller's thread with the failing task's label
//! and panic message — see [`par_map_labeled`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Output of [`par_map_timed`] for one task.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// The task's result.
    pub value: T,
    /// How long the task ran on its worker.
    pub elapsed: Duration,
}

/// Default worker count: one per available core, capped by the task
/// count.
pub fn default_jobs(tasks: usize) -> usize {
    thread::available_parallelism().map_or(1, |n| n.get()).min(tasks.max(1))
}

/// Runs `f` over `items` on `jobs` worker threads and returns the
/// results in input order. With `jobs <= 1` (or a single item) the work
/// runs inline on the caller's thread — same results, no threads.
pub fn par_map<I, O, F>(items: Vec<I>, jobs: usize, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Send + Sync,
{
    par_map_timed(items, jobs, f).into_iter().map(|t| t.value).collect()
}

/// Like [`par_map`], but also reports each task's wall-clock duration.
pub fn par_map_timed<I, O, F>(items: Vec<I>, jobs: usize, f: F) -> Vec<Timed<O>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Send + Sync,
{
    par_map_labeled(items, jobs, |index, _| format!("task {index}"), f)
}

/// Like [`par_map_timed`], but each task carries a caller-supplied label
/// (computed up front from the task's index and input). If a task
/// panics, the pool finishes draining, then re-panics on the caller's
/// thread with the first failing task's label and panic message instead
/// of a bare "every task completed" expectation failure.
///
/// # Panics
///
/// Re-panics (with the label attached) if any task panicked.
pub fn par_map_labeled<I, O, F, L>(items: Vec<I>, jobs: usize, label: L, f: F) -> Vec<Timed<O>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Send + Sync,
    L: Fn(usize, &I) -> String,
{
    par_map_caught(items, jobs, label, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| panic!("{msg}")))
        .collect()
}

/// Like [`par_map_labeled`], but a panicking task becomes an `Err` in
/// its input-order slot — carrying the labeled failure message — instead
/// of re-panicking the caller. This is the degraded-mode entry point:
/// callers that can tolerate partial results (the fleet runner's
/// partial reports) keep every surviving task's output and account for
/// the failures explicitly.
pub fn par_map_caught<I, O, F, L>(
    items: Vec<I>,
    jobs: usize,
    label: L,
    f: F,
) -> Vec<Result<Timed<O>, String>>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Send + Sync,
    L: Fn(usize, &I) -> String,
{
    let labels: Vec<String> =
        items.iter().enumerate().map(|(index, item)| label(index, item)).collect();
    let jobs = jobs.min(items.len()).max(1);
    if jobs == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(index, item)| {
                let start = Instant::now();
                run_caught(|| f(item))
                    .map(|value| Timed { value, elapsed: start.elapsed() })
                    .map_err(|msg| failure(&labels[index], &msg))
            })
            .collect();
    }

    let n = items.len();
    let (task_tx, task_rx) = mpsc::channel::<(usize, I)>();
    let task_rx = Arc::new(Mutex::new(task_rx));
    let (res_tx, res_rx) = mpsc::channel::<(usize, Result<Timed<O>, String>)>();
    for task in items.into_iter().enumerate() {
        task_tx.send(task).expect("queue open");
    }
    drop(task_tx);

    // Scoped threads: borrow `f` instead of requiring 'static closures.
    let mut results: Vec<Option<Result<Timed<O>, String>>> =
        std::iter::repeat_with(|| None).take(n).collect();
    thread::scope(|scope| {
        for _ in 0..jobs {
            let task_rx = Arc::clone(&task_rx);
            let res_tx = res_tx.clone();
            let f = &f;
            scope.spawn(move || loop {
                let (index, item) = {
                    let guard = task_rx.lock().expect("not poisoned");
                    match guard.recv() {
                        Ok(task) => task,
                        Err(_) => break,
                    }
                };
                let start = Instant::now();
                let outcome =
                    run_caught(|| f(item)).map(|value| Timed { value, elapsed: start.elapsed() });
                if res_tx.send((index, outcome)).is_err() {
                    break;
                }
            });
        }
        drop(res_tx);
        for (index, outcome) in res_rx {
            results[index] = Some(outcome.map_err(|msg| failure(&labels[index], &msg)));
        }
    });
    results.into_iter().map(|r| r.expect("every task completed")).collect()
}

/// Runs `f`, converting an unwind into the panic payload's message (a
/// payload that is not a string reads "non-string panic payload").
pub fn run_caught<O>(f: impl FnOnce() -> O) -> Result<O, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

fn failure(label: &str, msg: &str) -> String {
    format!("worker task `{label}` panicked: {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let out = par_map((0..64u64).collect(), 4, |x| x * x);
        assert_eq!(out, (0..64u64).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn single_job_runs_inline() {
        let out = par_map(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 8, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn timed_durations_are_recorded() {
        let out = par_map_timed(vec![10u64, 20], 2, |x| {
            thread::sleep(Duration::from_millis(x));
            x
        });
        assert_eq!(out.len(), 2);
        for t in &out {
            assert!(t.elapsed >= Duration::from_millis(t.value / 2));
        }
    }

    #[test]
    fn borrows_environment_without_static() {
        let factor = 3u64;
        let out = par_map(vec![1, 2], 2, |x| x * factor);
        assert_eq!(out, vec![3, 6]);
    }

    /// Captures the labeled re-panic a failing task must produce.
    fn panic_message(result: std::thread::Result<Vec<Timed<u32>>>) -> String {
        let payload = result.expect_err("a panicking task must propagate");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the pool re-panics with a formatted String")
    }

    #[test]
    fn panicking_task_surfaces_its_label_threaded() {
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            par_map_labeled(
                vec![1u32, 2, 3, 4],
                2,
                |_, item| format!("scenario-x/seed{item}"),
                |x| if x == 3 { panic!("boom at {x}") } else { x },
            )
        })));
        assert!(msg.contains("scenario-x/seed3"), "label missing: {msg}");
        assert!(msg.contains("boom at 3"), "panic message missing: {msg}");
    }

    #[test]
    fn panicking_task_surfaces_its_label_inline() {
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            par_map_labeled(
                vec![7u32],
                1,
                |index, item| format!("run{index}-item{item}"),
                |_| -> u32 { panic!("inline failure") },
            )
        })));
        assert!(msg.contains("run0-item7"), "label missing: {msg}");
        assert!(msg.contains("inline failure"), "panic message missing: {msg}");
    }

    #[test]
    fn earliest_failing_task_wins_the_report() {
        // Both tasks panic; the pool must report the one earliest in
        // input order no matter which worker finished first.
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            par_map_labeled(
                vec![1u32, 2],
                2,
                |index, _| format!("task-{index}"),
                |x| -> u32 { panic!("fail {x}") },
            )
        })));
        assert!(msg.contains("task-0"), "earliest task must be reported: {msg}");
    }

    #[test]
    fn caught_failures_keep_surviving_results() {
        let out = par_map_caught(
            (0..8u32).collect(),
            3,
            |index, _| format!("net-{index}"),
            |x| if x % 3 == 1 { panic!("degraded {x}") } else { x * 10 },
        );
        assert_eq!(out.len(), 8);
        for (i, slot) in out.iter().enumerate() {
            if i % 3 == 1 {
                let msg = slot.as_ref().expect_err("panicking slot is Err");
                assert!(msg.contains(&format!("net-{i}")), "label missing: {msg}");
                assert!(msg.contains(&format!("degraded {i}")), "payload missing: {msg}");
            } else {
                assert_eq!(slot.as_ref().expect("surviving slot").value, i as u32 * 10);
            }
        }
    }

    #[test]
    fn surviving_tasks_complete_despite_a_failure() {
        // The re-panic happens after the drain: no worker is left holding
        // a task, and the panic is the labeled one (not a send error).
        let msg = panic_message(catch_unwind(AssertUnwindSafe(|| {
            par_map_labeled(
                (0..32u32).collect(),
                4,
                |index, _| format!("t{index}"),
                |x| if x == 31 { panic!("late failure") } else { x },
            )
        })));
        assert!(msg.contains("t31"), "late failure must still be labeled: {msg}");
    }
}
