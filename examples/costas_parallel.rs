//! The paper's headline experiment in miniature: solve the Costas Array
//! Problem with independent multi-walk parallelism and watch the wall-clock
//! (and the iteration count of the winning walk) drop as walks are added.
//!
//! ```text
//! cargo run --release --example costas_parallel            # CAP 12
//! cargo run --release --example costas_parallel 13 8       # CAP 13, up to 8 walks
//! ```

use parallel_cbls::prelude::*;

fn main() {
    let mut args = std::env::args().skip(1);
    let order: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let max_walks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    println!("Costas Array Problem, order {order} — independent multi-walk\n");
    println!(
        "{:>6} {:>10} {:>16} {:>16} {:>12}",
        "walks", "solved", "winner-iters", "total-iters", "wall-time"
    );

    let search = Benchmark::CostasArray(order).tuned_config();
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
        walks *= 2;
    }

    // The same experiment through the deterministic simulated runner, the
    // replay on `SequentialExecutor` that the `speedup` binary's tables use:
    // identical per-walk trajectories, but every walk runs to completion so
    // one replay covers all walk counts.
    println!("\nSimulated multi-walk (iteration counts, machine-independent):");
    let batch = WalkBatch::uniform(2012, &search, max_walks);
    let sim = SimulatedMultiWalk::replay(&|| CostasArray::new(order), &batch, &SequentialExecutor);
    println!("{:>6} {:>16} {:>10}", "walks", "winner-iters", "speedup");
    let mut walks = 1;
    while walks <= max_walks {
        println!(
            "{:>6} {:>16} {:>10.2}",
            walks,
            sim.parallel_iterations(walks).unwrap_or(0),
            sim.speedup(walks).unwrap_or(0.0)
        );
        walks *= 2;
    }
}
