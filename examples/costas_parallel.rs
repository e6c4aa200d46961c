//! The paper's headline experiment in miniature: solve the Costas Array
//! Problem with independent multi-walk parallelism and watch the wall-clock
//! (and the iteration count of the winning walk) drop as walks are added.
//!
//! ```text
//! cargo run --release --example costas_parallel            # CAP 12, up to 256 walks
//! cargo run --release --example costas_parallel 13 8       # CAP 13, up to 8 walks
//! ```
//!
//! The threaded batches run on at most one thread per core: past the cores,
//! each thread goes round several walks.  Every threaded batch must return
//! the deterministic replay's `p`-walk minimum, so a divergence between one
//! worker and one per core fails the run.

use parallel_cbls::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let order: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let max_walks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);

    // The deterministic simulated runner, the replay on `SequentialExecutor`
    // that the `speedup` binary's tables use: every walk runs to completion,
    // so one replay covers all walk counts.  Walk `i` draws the same stream
    // whatever the batch size, so its prefix minima are what the threaded
    // batches below must return.
    let search = Benchmark::CostasArray(order).tuned_config();
    let batch = WalkBatch::uniform(2012, &search, max_walks);
    let sim = SimulatedMultiWalk::replay(&|| CostasArray::new(order), &batch, &SequentialExecutor);

    println!("Costas Array Problem, order {order} — independent multi-walk\n");
    println!(
        "{:>6} {:>10} {:>16} {:>16} {:>12}",
        "walks", "solved", "winner-iters", "total-iters", "wall-time"
    );
    let mut walks = 1;
    while walks <= max_walks {
        let batch = WalkBatch::uniform(2012, &search, walks);
        let result = ThreadsExecutor.execute(&|| CostasArray::new(order), &batch);
        println!(
            "{:>6} {:>10} {:>16} {:>16} {:>12.2?}",
            walks,
            result.winner.is_some(),
            result
                .winning_iterations()
                .map_or_else(|| "-".to_string(), |i| i.to_string()),
            result.total_iterations(),
            result.wall_time
        );
        assert_eq!(
            result.winning_iterations(),
            sim.parallel_iterations(walks),
            "{walks} walks on threads disagree with the replay"
        );
        walks *= 2;
    }

    // Speedup over the mean solved walk, in iterations.
    let mean = sim.iteration_distribution().map_or(0.0, |d| d.mean());
    println!("\nSimulated multi-walk (iteration counts, machine-independent):");
    println!("{:>6} {:>16} {:>10}", "walks", "winner-iters", "speedup");
    let mut walks = 1;
    while walks <= max_walks {
        let winner = sim.parallel_iterations(walks);
        println!(
            "{:>6} {:>16} {:>10.2}",
            walks,
            winner.unwrap_or(0),
            winner.map_or(0.0, |i| mean / i.max(1) as f64)
        );
        walks *= 2;
    }
}
