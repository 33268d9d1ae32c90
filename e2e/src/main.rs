//! `e2e` — the wall-clock benchmark's command line. See `README.md`.

use antarex_e2e::alloc::CountingAlloc;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    antarex_e2e::cli::main(std::env::args().skip(1).collect())
}
