//! Runs every table/figure harness in sequence (the full reproduction).
//! Pass --quick for a smoke run.
use pnw_bench::{figures, Scale};

fn main() -> std::io::Result<()> {
    figures::write_all(Scale::from_env(), &mut std::io::stdout().lock())
}
