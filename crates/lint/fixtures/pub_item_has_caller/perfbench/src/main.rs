//! The benchmark: its uses count.

fn main() {
    let _ = demo::Batch.reseeded();
}
