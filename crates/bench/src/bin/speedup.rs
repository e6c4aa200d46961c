//! The paper's speedup tables: Figures 1–3, the Figure 3 trend, the
//! headline claim, the size trend and CAP hardness against backtracking,
//! each benchmark sampled once.
//!
//! ```text
//! cargo run --release -p cbls-bench --bin speedup
//! CBLS_SAMPLES=12 CBLS_SEED=7 cargo run --release -p cbls-bench --bin speedup
//! ```

use cbls_bench::report::default_figure_dir;
use cbls_bench::speedup::{Samples, Sampling, TABLES};

fn main() {
    let sampling = Sampling::from_env().unwrap_or_else(|error| {
        eprintln!("speedup: {error}");
        std::process::exit(2);
    });
    eprintln!(
        "{} sequential runs per benchmark, {} for CAP orders 9-11 \
         (override both with CBLS_SAMPLES, the seed with CBLS_SEED) ...",
        sampling.samples, sampling.trend_samples
    );
    let mut samples = Samples::new(sampling);
    for (stem, table) in TABLES {
        let table = table(&mut samples);
        println!("{}", table.to_ascii());
        match table.write_csv(default_figure_dir(), stem) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write CSV: {e}"),
        }
    }
}
