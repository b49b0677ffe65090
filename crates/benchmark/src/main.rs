//! The benchmark binary: installs the counting allocator (here only —
//! the product crates never see it) and hands over to [`cli::main`].

use itdos_benchmark::{alloc, cli};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::main(&args));
}
