//! The experiment suite: one module per group of paper artifacts, a
//! [`Suite`] that caches shared datasets/results, and a registry mapping
//! experiment ids to runners.

pub mod approx;
pub mod chaos;
pub mod illustrate;
pub mod numeric;
pub mod queries;
pub mod structure;
pub mod sweeps;
pub mod tlb;

use crate::report::Report;
use crate::BenchConfig;
use sofa::data::{registry, Dataset, DatasetSpec};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Shared state for one harness run: configuration plus caches, so `all`
/// does not regenerate datasets or recompute shared measurements per
/// experiment.
pub struct Suite {
    /// Sizing configuration.
    pub cfg: BenchConfig,
    specs: Vec<DatasetSpec>,
    datasets: RefCell<HashMap<String, Rc<Dataset>>>,
    comparison: RefCell<Option<Rc<Vec<queries::DatasetComparison>>>>,
    tlb_ucr: RefCell<Option<Rc<tlb::TlbMatrix>>>,
    tlb_sofa: RefCell<Option<Rc<tlb::TlbMatrix>>>,
}

impl Suite {
    /// Creates a suite over the full 17-dataset registry.
    #[must_use]
    pub fn new(cfg: BenchConfig) -> Self {
        Suite {
            cfg,
            specs: registry(),
            datasets: RefCell::new(HashMap::new()),
            comparison: RefCell::new(None),
            tlb_ucr: RefCell::new(None),
            tlb_sofa: RefCell::new(None),
        }
    }

    /// The dataset specs (paper Table I).
    #[must_use]
    pub fn specs(&self) -> &[DatasetSpec] {
        &self.specs
    }

    /// Materializes (and caches) the scaled dataset for `spec`.
    #[must_use]
    pub fn dataset(&self, spec: &DatasetSpec) -> Rc<Dataset> {
        if let Some(d) = self.datasets.borrow().get(spec.name) {
            return Rc::clone(d);
        }
        let count = spec.scaled_count(self.cfg.scale, self.cfg.min_series);
        let d = Rc::new(spec.generate(count, self.cfg.n_queries));
        self.datasets.borrow_mut().insert(spec.name.to_string(), Rc::clone(&d));
        d
    }

    /// A reduced dataset slice for expensive sweeps: one dataset per
    /// frequency profile plus the extremes of Figure 12's ordering.
    #[must_use]
    pub fn sweep_specs(&self) -> Vec<DatasetSpec> {
        let names = ["LenDB", "SCEDC", "OBS", "Iquique", "SALD", "Deep1b"];
        self.specs.iter().filter(|s| names.contains(&s.name)).cloned().collect()
    }

    /// Cached per-dataset SOFA-vs-MESSI comparison (fig12/fig13 share it).
    #[must_use]
    pub fn comparison(&self) -> Rc<Vec<queries::DatasetComparison>> {
        if let Some(c) = self.comparison.borrow().as_ref() {
            return Rc::clone(c);
        }
        let c = Rc::new(queries::compute_comparison(self));
        *self.comparison.borrow_mut() = Some(Rc::clone(&c));
        c
    }

    /// Cached TLB matrix over the UCR-like archive.
    #[must_use]
    pub fn tlb_ucr(&self) -> Rc<tlb::TlbMatrix> {
        if let Some(m) = self.tlb_ucr.borrow().as_ref() {
            return Rc::clone(m);
        }
        let m = Rc::new(tlb::compute_ucr_matrix(self));
        *self.tlb_ucr.borrow_mut() = Some(Rc::clone(&m));
        m
    }

    /// Cached TLB matrix over the 17-dataset registry.
    #[must_use]
    pub fn tlb_sofa(&self) -> Rc<tlb::TlbMatrix> {
        if let Some(m) = self.tlb_sofa.borrow().as_ref() {
            return Rc::clone(m);
        }
        let m = Rc::new(tlb::compute_sofa_matrix(self));
        *self.tlb_sofa.borrow_mut() = Some(Rc::clone(&m));
        m
    }
}

/// An experiment id with its runner.
pub struct Experiment {
    /// Id accepted by the `repro` binary (e.g. `tab2`).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Runner.
    pub run: fn(&Suite) -> Report,
}

/// All experiments in paper order.
#[must_use]
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab1",
            title: "Table I: benchmark characteristics",
            run: illustrate::tab1,
        },
        Experiment {
            id: "fig1",
            title: "Figure 1: PAA vs DFT on high-frequency series",
            run: illustrate::fig1,
        },
        Experiment {
            id: "fig2-3",
            title: "Figures 2-3: SAX vs SFA words",
            run: illustrate::fig2_3,
        },
        Experiment { id: "fig4", title: "Figure 4: mindist worked example", run: illustrate::fig4 },
        Experiment { id: "fig7", title: "Figure 7: index creation times", run: structure::fig7 },
        Experiment { id: "fig8", title: "Figure 8: index structure", run: structure::fig8 },
        Experiment { id: "tab2", title: "Table II: 1-NN query times", run: queries::tab2 },
        Experiment {
            id: "tab3",
            title: "Table III / Figure 9: k-NN query times",
            run: queries::tab3,
        },
        Experiment {
            id: "fig10",
            title: "Figure 10: query-time distribution by cores",
            run: queries::fig10,
        },
        Experiment { id: "fig11", title: "Figure 11: leaf-size sweep", run: sweeps::fig11 },
        Experiment {
            id: "fig12",
            title: "Figure 12: relative query time per dataset",
            run: queries::fig12,
        },
        Experiment {
            id: "fig13",
            title: "Figure 13: coefficient index vs speedup",
            run: queries::fig13,
        },
        Experiment { id: "tab4", title: "Table IV: sampling-rate sweep", run: sweeps::tab4 },
        Experiment {
            id: "tab5",
            title: "Table V / Figure 14 left: TLB on UCR-like data",
            run: tlb::tab5,
        },
        Experiment {
            id: "tab6",
            title: "Table VI / Figure 14 right: TLB on SOFA datasets",
            run: tlb::tab6,
        },
        Experiment {
            id: "fig15",
            title: "Figure 15: critical-difference analysis",
            run: tlb::fig15,
        },
        Experiment {
            id: "ext-approx",
            title: "Extension: approximate search quality",
            run: approx::ext_approx,
        },
        Experiment {
            id: "ext-numeric",
            title: "Extension: numeric summarization pruning power",
            run: numeric::ext_numeric,
        },
        Experiment {
            id: "ext-chaos",
            title: "Extension: serving robustness under fault injection",
            run: chaos::ext_chaos,
        },
    ]
}

/// Looks up one experiment by id (case-insensitive, `fig2_3` == `fig2-3`).
#[must_use]
pub fn find(id: &str) -> Option<Experiment> {
    let norm = id.to_lowercase().replace('_', "-");
    all_experiments().into_iter().find(|e| e.id == norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_all_paper_artifacts() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for required in [
            "tab1",
            "fig1",
            "fig2-3",
            "fig4",
            "fig7",
            "fig8",
            "tab2",
            "tab3",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "tab4",
            "tab5",
            "tab6",
            "fig15",
            "ext-approx",
            "ext-numeric",
            "ext-chaos",
        ] {
            assert!(ids.contains(&required), "missing experiment {required}");
        }
    }

    #[test]
    fn find_normalizes_ids() {
        assert!(find("FIG2_3").is_some());
        assert!(find("tab2").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn suite_caches_datasets() {
        let suite = Suite::new(BenchConfig::quick());
        let spec = suite.specs()[6].clone();
        let a = suite.dataset(&spec);
        let b = suite.dataset(&spec);
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn sweep_specs_subset() {
        let suite = Suite::new(BenchConfig::quick());
        let s = suite.sweep_specs();
        assert_eq!(s.len(), 6);
    }
}
