//! Concurrent `Store` throughput: lock-free reads under writer load, and
//! group-committed write scaling.
use gh_harness::{experiments::concurrent, Args};

fn main() {
    let args = Args::parse();
    for t in concurrent::run(&args) {
        t.emit(args.out_dir.as_deref(), "concurrent");
    }
}
