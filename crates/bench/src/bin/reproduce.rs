//! `reproduce [OUT_DIR]`: regenerate every table, figure and ablation of
//! the paper into `OUT_DIR/results/` (default: the current directory),
//! pricing each distinct grid cell once. Prints nothing to stdout.

use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = match args.as_slice() {
        [] => ".",
        [dir] if !dir.starts_with('-') => dir,
        _ => {
            eprintln!("usage: reproduce [OUT_DIR]");
            std::process::exit(2);
        }
    };
    if let Err(e) = transpim_bench::experiments::reproduce(Path::new(out)) {
        eprintln!("error: writing {out}/results: {e}");
        std::process::exit(1);
    }
}
