//! One module per paper table/figure. Each `run` function regenerates the
//! corresponding result on a [`Harness`].

pub mod ablation;
pub mod amplification;
pub mod churn;
pub mod fig1;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod policy_matrix;
pub mod table1;

use crate::Harness;

/// Regenerates one figure or table on a harness.
pub type Experiment = fn(&mut Harness);

/// Every experiment by name, in paper order: what the `experiments`
/// binary looks names up in and what [`run_all`] runs.
pub const ALL: &[(&str, Experiment)] = &[
    ("fig1", fig1::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("table1", table1::run),
    ("fig7", fig7::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("ablation", ablation::run),
    ("churn", churn::run),
    ("policy_matrix", policy_matrix::run),
    ("amplification", amplification::run),
];

/// Runs every experiment in paper order.
pub fn run_all(harness: &mut Harness) {
    for (_, run) in ALL {
        run(harness);
    }
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn all_lists_thirteen_unique_names_in_paper_order() {
        let names: Vec<&str> = ALL.iter().map(|&(name, _)| name).collect();
        // Equal to thirteen distinct literals: count, uniqueness and
        // order in one assertion.
        assert_eq!(
            names,
            [
                "fig1",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "table1",
                "fig7",
                "fig8",
                "fig9",
                "ablation",
                "churn",
                "policy_matrix",
                "amplification",
            ]
        );
    }
}
