//! The paper's "future work": dependent multi-walks that exchange elite
//! configurations, compared against the same number of purely independent
//! walks on the same seeds.
//!
//! ```text
//! cargo run --release --example dependent_walks
//! ```

use parallel_cbls::prelude::*;

fn main() {
    let order = 12;
    let walks = 4;
    println!(
        "Costas Array Problem, order {order}: {walks} independent walks vs {walks} dependent walks\n"
    );

    let search = Benchmark::CostasArray(order).tuned_config();

    // Independent multi-walk (the paper's scheme), run through the walk
    // executor's threads back-end with the telemetry stream attached.
    let batch = WalkBatch::uniform(99, &search, walks);
    let log = EventLog::new();
    let independent =
        ThreadsExecutor.execute_with_telemetry(&|| CostasArray::new(order), &batch, &log);
    println!(
        "independent: solved {} | winner iterations {} | total iterations {} | wall {:?} | {} telemetry events",
        independent.winner.is_some(),
        independent
            .winning_iterations()
            .map_or_else(|| "-".to_string(), |i| i.to_string()),
        independent.total_iterations(),
        independent.wall_time,
        log.len(),
    );

    // Dependent multi-walk (the paper's future work, implemented in
    // cbls-parallel::dependent).  The scheme is deterministic whatever the
    // back-end, so the sequential executor here gives the same result as
    // ThreadsExecutor would.
    let dependent_config = DependentWalkConfig::new(walks)
        .with_master_seed(99)
        .with_search(search)
        .with_segment_iterations(2_000)
        .with_max_segments(200);
    let dependent = run_dependent_on(
        &|| CostasArray::new(order),
        &dependent_config,
        &SequentialExecutor,
    );
    println!(
        "dependent:   solved {} | best cost {} | segments {} | elite adoptions {} | total iterations {}",
        dependent.solved,
        dependent.best_cost,
        dependent.segments,
        dependent.elite_adoptions,
        dependent.stats.iterations
    );

    println!(
        "\nThe paper predicts that beating independent walks is hard because the global\n\
         cost is heuristic information only; the ablation bench (cargo bench -p cbls-bench\n\
         --bench ablation) quantifies the comparison over many seeds."
    );
}
