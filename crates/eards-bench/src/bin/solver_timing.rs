//! Times the incremental hill-climb engine against the full-rescan
//! reference solver.
fn main() {
    eards_bench::emit(&eards_bench::exp_solver_timing::run());
}
