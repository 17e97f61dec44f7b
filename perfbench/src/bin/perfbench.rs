//! Untraced runs of the benchmark; see the library docs.

fn main() {
    std::process::exit(perfbench::run(std::env::args().skip(1)));
}
