//! Every workload, briefly, through every correctness check. One test
//! function, alone in its binary: the workloads assume they have the
//! machine's cores to themselves.

use std::time::Duration;
use wcbench::plan::Plan;
use wcbench::workloads::{run, Workload};

#[test]
fn every_workload_delivers_and_passes_its_checks() {
    let plan = Plan {
        seconds: 1,
        // Longer than the consumers' attach delay.
        warmup: Duration::from_millis(150),
        round: Duration::from_millis(100),
        rounds: 2,
        // Set-up timing re-executes the wcbench binary; not from a test.
        setup_reps: 0,
    };
    for workload in Workload::ALL {
        for traced in [false, true] {
            let o = run(workload, 5, &plan, traced)
                .unwrap_or_else(|e| panic!("{} (traced: {traced}): {e}", workload.name()));
            assert_eq!(o.rounds.len(), 2);
            assert!(o.delivered > 0 && o.rounds.iter().all(|r| r.packets > 0));
            assert!(
                o.lat().count() > 0,
                "{}: no latency samples",
                workload.name()
            );
            if workload.closed_loop() {
                assert_eq!(o.offered, o.delivered, "{}", workload.name());
            }
            assert_eq!(o.spans.is_empty(), !traced);
        }
    }
}
