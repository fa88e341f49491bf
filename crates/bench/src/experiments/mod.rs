//! The experiment suite. Each module prints one table/figure of the
//! paper's evaluation to stdout; `run_all` executes the full suite.

pub mod e01_two_ecss_ratio;
pub mod e02_tap_ratio;
pub mod e03_round_scaling;
pub mod e04_epsilon_tradeoff;
pub mod e05_shortcut_families;
pub mod e06_unweighted;
pub mod e07_weight_split;
pub mod e08_decompositions;
pub mod e09_internals;
pub mod e10_ablation;
pub mod e11_calibration;
pub mod e12_paper_figure;
pub mod e13_shortcut_ablation;
pub mod e14_phase_dynamics;

/// Effort level: `Quick` for CI smoke runs, `Full` for the recorded
/// numbers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// Small sizes, one seed.
    Quick,
    /// The full sweep sizes (the default without `--quick`).
    Full,
}

impl Scale {
    /// Instance sizes for ratio sweeps.
    pub fn ratio_sizes(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[32, 64],
            Scale::Full => &[32, 64, 128, 256],
        }
    }

    /// Instance sizes for round-scaling sweeps.
    pub fn scaling_sizes(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[64, 128],
            Scale::Full => &[64, 128, 256, 512, 1024],
        }
    }

    /// Seeds per configuration.
    pub fn seeds(self) -> u64 {
        match self {
            Scale::Quick => 1,
            Scale::Full => 3,
        }
    }
}

/// Runs every experiment at the given scale.
pub fn run_all(scale: Scale) {
    e01_two_ecss_ratio::run(scale);
    e02_tap_ratio::run(scale);
    e03_round_scaling::run(scale);
    e04_epsilon_tradeoff::run(scale);
    e05_shortcut_families::run(scale);
    e06_unweighted::run(scale);
    e07_weight_split::run(scale);
    e08_decompositions::run(scale);
    e09_internals::run(scale);
    e10_ablation::run(scale);
    e11_calibration::run(scale);
    e12_paper_figure::run(scale);
    e13_shortcut_ablation::run(scale);
    e14_phase_dynamics::run(scale);
}

/// Dispatches one experiment by id (`e1`..`e12` or `all`). Returns false
/// for unknown ids.
pub fn dispatch(id: &str, scale: Scale) -> bool {
    match id {
        "e1" => e01_two_ecss_ratio::run(scale),
        "e2" => e02_tap_ratio::run(scale),
        "e3" => e03_round_scaling::run(scale),
        "e4" => e04_epsilon_tradeoff::run(scale),
        "e5" => e05_shortcut_families::run(scale),
        "e6" => e06_unweighted::run(scale),
        "e7" => e07_weight_split::run(scale),
        "e8" => e08_decompositions::run(scale),
        "e9" => e09_internals::run(scale),
        "e10" => e10_ablation::run(scale),
        "e11" => e11_calibration::run(scale),
        "e12" => e12_paper_figure::run(scale),
        "e13" => e13_shortcut_ablation::run(scale),
        "e14" => e14_phase_dynamics::run(scale),
        "all" => run_all(scale),
        _ => return false,
    }
    true
}
