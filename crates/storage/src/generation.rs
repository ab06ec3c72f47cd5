//! Generation pinning: the immutable unit a query executes against.
//!
//! A [`StoreGeneration`] bundles everything one *physical generation* of the
//! store consists of — the dictionary and whichever store layouts have been
//! built. The built layouts are the only resident copy of the base triples:
//! before the first build the base is a staged, SPO-sorted triple vector;
//! the first build consumes it, and from then on every reader of the base
//! (rebuilds, checkpoints, deletes, counts) goes through
//! [`StoreGeneration::base_triples`] and [`StoreGeneration::contains`],
//! which read the baseline SPO permutation or the CS segments plus their
//! irregular remainder.
//!
//! A generation is immutable once published, with one carefully-scoped
//! exception: the dictionary keeps growing *within* a generation (inserts
//! intern new terms, strictly append-only, through the dictionary's own
//! internal pool locks), which never invalidates an OID a reader already
//! holds.
//!
//! Queries pin a [`GenerationHandle`] (an `Arc` clone) plus a delta view at
//! query start and never look back at shared mutable state: a concurrent
//! reorganization builds a *new* `StoreGeneration` — with its own,
//! renumbered dictionary — and swaps the handle; in-flight queries keep the
//! old generation alive until they drop their pins. Readers never block on
//! a rebuild, and since the dictionary interns through `&self` (lock-free
//! reads, short internal writer locks per pool), a pinned dictionary never
//! blocks interning writers either — pins are plain `Arc` clones.

use std::ops::Deref;
use std::sync::Arc;

use sordf_columnar::{BufferPool, ColumnEncoding};
use sordf_model::{Dictionary, Triple};
use sordf_schema::EmergentSchema;

use crate::baseline::BaselineStore;
use crate::clustered::ClusteredStore;
use crate::delta::DeltaView;
use crate::reorg::{ClusterSpec, ReorgReport};

/// One physical generation of the store. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct StoreGeneration {
    /// The dictionary this generation's OIDs are numbered by. Append-only
    /// within the generation (interning goes through the dictionary's
    /// internal pool locks, `&self`); replaced wholesale — never renumbered
    /// in place — by a generation swap.
    pub dict: Arc<Dictionary>,
    /// The base while no layout is built: SPO-sorted and distinct, encoded
    /// under `dict`'s numbering. Empty once any layout is built — the
    /// layouts are then the base.
    pub staged: Vec<Triple>,
    /// Exhaustive permutation indexes (ParseOrder scheme), if built.
    pub baseline: Option<Arc<BaselineStore>>,
    /// The frozen emergent schema, if discovered.
    pub schema: Option<Arc<EmergentSchema>>,
    /// Sparse CS tables over parse-order OIDs (with the schema they use).
    pub cs_parse_order: Option<(Arc<ClusteredStore>, Arc<EmergentSchema>)>,
    /// The fully self-organized store (clustered OIDs, dense segments).
    pub clustered: Option<Arc<ClusteredStore>>,
    /// Clustering spec used for the clustered build (kept for reporting).
    pub spec: ClusterSpec,
    /// The clustering report, if self-organized.
    pub reorg_report: Option<ReorgReport>,
    /// String-pool size at the last string sort: interning past this
    /// watermark breaks string-OID value order until the next swap.
    pub strings_sorted_len: usize,
    /// Page-encoding scheme every layout of this generation is built with;
    /// part of the physical identity a plan cache must key on.
    pub encoding: ColumnEncoding,
}

/// The shared handle queries clone at query start and a swap replaces
/// atomically (under the owner's state lock).
pub type GenerationHandle = Arc<StoreGeneration>;

impl StoreGeneration {
    /// A staging generation: a dictionary and a base, nothing built yet.
    /// `triples` may be in any order and hold duplicates; they are staged
    /// as a set.
    pub fn staging(
        dict: Arc<Dictionary>,
        triples: Vec<Triple>,
        encoding: ColumnEncoding,
    ) -> StoreGeneration {
        let mut gen = StoreGeneration {
            dict,
            staged: Vec::new(),
            baseline: None,
            schema: None,
            cs_parse_order: None,
            clustered: None,
            spec: ClusterSpec::none(),
            reorg_report: None,
            strings_sorted_len: 0,
            encoding,
        };
        gen.stage(triples);
        gen
    }

    /// Has any store layout been built over this generation?
    pub fn any_built(&self) -> bool {
        self.baseline.is_some() || self.cs_parse_order.is_some() || self.clustered.is_some()
    }

    /// Add `batch` to the staged base, keeping it SPO-sorted and distinct.
    /// Only valid while no layout is built.
    pub fn stage(&mut self, mut batch: Vec<Triple>) {
        debug_assert!(!self.any_built(), "staging into a built generation");
        // Two sorted runs: the (run-adaptive) stable sort merges them in
        // linear time.
        batch.sort_unstable();
        self.staged.append(&mut batch);
        self.staged.sort();
        self.staged.dedup();
    }

    /// Number of base triples: the staged set, or what the built layouts
    /// hold (they all agree — see [`StoreGeneration::debug_validate`]).
    pub fn n_triples(&self) -> usize {
        if let Some(b) = &self.baseline {
            b.len()
        } else if let Some(c) = &self.clustered {
            c.n_triples()
        } else if let Some((c, _)) = &self.cs_parse_order {
            c.n_triples()
        } else {
            self.staged.len()
        }
    }

    /// Every base triple, each once: a copy of the staged set or a scan of
    /// the baseline SPO permutation (both SPO-sorted), or a reconstruction
    /// from CS segments (columns, side tables and the irregular remainder,
    /// in storage order).
    pub fn base_triples(&self, pool: &BufferPool) -> Vec<Triple> {
        if let Some(b) = &self.baseline {
            b.triples(pool)
        } else if let (Some(c), Some(schema)) = (&self.clustered, &self.schema) {
            c.triples(pool, schema)
        } else if let Some((c, schema)) = &self.cs_parse_order {
            c.triples(pool, schema)
        } else {
            self.staged.clone()
        }
    }

    /// Is `t` a base triple? A binary search of the staged set, or a point
    /// probe of one built layout (a segment row or side table for a
    /// regular subject, then the irregular remainder).
    pub fn contains(&self, pool: &BufferPool, t: &Triple) -> bool {
        if let (Some(c), Some(schema)) = (&self.clustered, &self.schema) {
            c.contains(pool, schema, t)
        } else if let Some((c, schema)) = &self.cs_parse_order {
            c.contains(pool, schema, t)
        } else if let Some(b) = &self.baseline {
            b.contains(pool, t)
        } else {
            self.staged.binary_search(t).is_ok()
        }
    }

    /// Pin this generation's dictionary: an `Arc` clone that keeps the
    /// dictionary alive for the pin's lifetime. Pins are free — they hold
    /// no lock, so they never block (or are blocked by) interning writers.
    pub fn pin_dict(&self) -> DictPin {
        DictPin::new(Arc::clone(&self.dict))
    }

    /// The visible triples this generation + `view` describe: the base
    /// triples without the view's tombstoned ones, then its visible inserts.
    /// Distinct, in no particular order. This is what a checkpoint writes
    /// and what a background rebuild folds into its fresh layouts.
    pub fn visible_triples(&self, pool: &BufferPool, view: Option<&DeltaView>) -> Vec<Triple> {
        let mut triples = self.base_triples(pool);
        if let Some(v) = view {
            if v.n_tombstones() > 0 {
                triples.retain(|t| !v.is_deleted(*t));
            }
            triples.extend_from_slice(v.inserts());
        }
        triples
    }

    /// Check this generation's cross-structure invariants; panics (via
    /// `assert!`) on violation. Debug/stress builds call this after every
    /// build and swap — it is deliberately cheap enough (no per-triple work
    /// beyond the layouts' counts) to run there unconditionally.
    pub fn debug_validate(&self) {
        assert!(
            self.strings_sorted_len <= self.dict.n_strings(),
            "strings_sorted_len {} exceeds string pool size {} — the sort \
             watermark may only lag the (append-only) pool, never lead it",
            self.strings_sorted_len,
            self.dict.n_strings()
        );
        if self.any_built() {
            assert!(
                self.staged.is_empty(),
                "a built generation keeps no staged copy of the base ({} staged)",
                self.staged.len()
            );
        }
        let n = self.n_triples();
        for (store, label) in [
            (
                self.cs_parse_order.as_ref().map(|(c, _)| c),
                "cs_parse_order",
            ),
            (self.clustered.as_ref(), "clustered"),
        ] {
            let Some(store) = store else { continue };
            assert_eq!(
                store.n_triples(),
                n,
                "{label} store triple count must match every other built layout \
                 (regular + irregular partitions are exhaustive)"
            );
            let n_classes = match label {
                "cs_parse_order" => self
                    .cs_parse_order
                    .as_ref()
                    .map(|(_, s)| s.classes.len())
                    .unwrap_or(0),
                _ => self.schema.as_ref().map(|s| s.classes.len()).unwrap_or(0),
            };
            for seg in &store.segments {
                assert!(
                    (seg.class.0 as usize) < n_classes,
                    "{label} segment references class {} outside its schema \
                     ({} classes)",
                    seg.class.0,
                    n_classes
                );
            }
        }
    }
}

/// An owned pin on a generation's dictionary: an `Arc` clone that keeps
/// the dictionary alive for the pin's lifetime, so a query can carry one
/// pinned `&Dictionary` through parsing and execution without borrowing
/// from the database's internal state. Holds no lock — the dictionary's
/// interning is interior-mutable, so pinned readers and interning writers
/// proceed independently.
#[must_use = "bind the DictPin for the query's lifetime; it keeps the pinned dictionary alive"]
pub struct DictPin {
    dict: Arc<Dictionary>,
}

impl DictPin {
    /// Pin `dict`.
    pub fn new(dict: Arc<Dictionary>) -> DictPin {
        DictPin { dict }
    }
}

impl Deref for DictPin {
    type Target = Dictionary;

    fn deref(&self) -> &Dictionary {
        &self.dict
    }
}

impl std::fmt::Debug for DictPin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DictPin").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustered::build_clustered;
    use crate::reorg::reorganize;
    use crate::triple_set::TripleSet;
    use sordf_columnar::DiskManager;
    use sordf_model::{Oid, Term, TermTriple};
    use sordf_schema::SchemaConfig;

    fn sample_generation() -> StoreGeneration {
        let mut ts = TripleSet::new();
        for i in 0..4u64 {
            ts.add(&TermTriple::new(
                Term::iri(format!("http://e/s{i}")),
                Term::iri("http://e/p"),
                Term::int(i as i64),
            ))
            .unwrap();
        }
        StoreGeneration::staging(Arc::new(ts.dict), ts.triples, ColumnEncoding::default())
    }

    fn pool() -> BufferPool {
        BufferPool::new(Arc::new(DiskManager::temp().unwrap()), 64)
    }

    /// Regular subjects with a NULL-heavy optional column, a multi-valued
    /// property, type exceptions, irregular subjects and duplicate input.
    fn mixed_triple_set() -> TripleSet {
        let mut ts = TripleSet::new();
        let mut add = |s: String, p: &str, o: Term| {
            ts.add(&TermTriple::new(
                Term::iri(s),
                Term::iri(format!("http://e/{p}")),
                o,
            ))
            .unwrap();
        };
        for i in 0..40u64 {
            let s = format!("http://e/item{i}");
            add(s.clone(), "price", Term::int(i as i64));
            add(s.clone(), "price", Term::int(i as i64)); // duplicate
            if i % 4 == 0 {
                add(s.clone(), "note", Term::str(format!("n{i}")));
            }
            if i % 5 == 0 {
                add(s.clone(), "price", Term::str("n/a"));
            }
            add(s.clone(), "tag", Term::iri(format!("http://e/t{}", i % 3)));
            if i % 2 == 0 {
                add(
                    s.clone(),
                    "tag",
                    Term::iri(format!("http://e/t{}", (i + 1) % 3)),
                );
            }
        }
        for i in 0..5u64 {
            add(
                format!("http://e/odd{i}"),
                &format!("rare{i}"),
                Term::int(1),
            );
        }
        ts
    }

    #[test]
    fn dict_pin_outlives_generation_handle() {
        let gen = Arc::new(sample_generation());
        let pin = gen.pin_dict();
        let s0 = pin.iri_oid("http://e/s0").unwrap();
        // Drop every other handle: the pin alone keeps the dictionary alive.
        drop(gen);
        assert_eq!(pin.iri_oid("http://e/s0"), Some(s0));
    }

    #[test]
    fn concurrent_pins_and_interning_coexist() {
        let gen = sample_generation();
        let a = gen.pin_dict();
        let b = gen.pin_dict();
        assert_eq!(a.n_iris(), b.n_iris());
        // A held pin does not block interning — the pool grows in place and
        // both pins observe the new entry.
        let fresh = gen.dict.encode_iri("http://e/fresh");
        assert_eq!(a.iri_oid("http://e/fresh"), Some(fresh));
    }

    #[test]
    fn fold_applies_tombstones_and_inserts() {
        let gen = sample_generation();
        let pool = pool();
        let p = gen.dict.iri_oid("http://e/p").unwrap();
        let s0 = gen.dict.iri_oid("http://e/s0").unwrap();
        let mut delta = crate::delta::DeltaStore::new();
        let extra = Triple::new(s0, p, Oid::from_int(99).unwrap());
        let _ = delta.insert_run(vec![extra]);
        let _ = delta.delete(&[Triple::new(s0, p, Oid::from_int(0).unwrap())]);
        let visible = gen.visible_triples(&pool, delta.current_view());
        assert_eq!(visible.len(), 4, "one deleted, one inserted");
        assert!(visible.contains(&extra));
        // No view: the base alone.
        assert_eq!(gen.visible_triples(&pool, None).len(), 4);
    }

    #[test]
    fn staging_is_a_sorted_set() {
        let mut gen = sample_generation();
        let base = gen.staged.clone();
        assert!(base.windows(2).all(|w| w[0] < w[1]));
        let p = gen.dict.iri_oid("http://e/p").unwrap();
        let s9 = gen.dict.encode_iri("http://e/s9");
        let fresh = Triple::new(s9, p, Oid::from_int(9).unwrap());
        gen.stage(vec![base[2], fresh, base[0], fresh]);
        assert_eq!(
            gen.n_triples(),
            5,
            "duplicates and re-staged triples collapse"
        );
        assert!(gen.staged.windows(2).all(|w| w[0] < w[1]));
        assert!(gen.contains(&pool(), &fresh));
    }

    #[test]
    fn every_layout_reads_back_the_same_base() {
        let mut ts = mixed_triple_set();
        let expect = ts.sorted_spo();
        assert!(expect.len() < ts.len(), "the input holds duplicates");
        let dm = Arc::new(DiskManager::temp().unwrap());
        let pool = BufferPool::new(Arc::clone(&dm), 256);
        let absent = |dict: &Dictionary| {
            let p = dict.iri_oid("http://e/price").unwrap();
            let s = dict.iri_oid("http://e/item1").unwrap();
            let note = dict.iri_oid("http://e/note").unwrap();
            let tag = dict.iri_oid("http://e/tag").unwrap();
            let t0 = dict.iri_oid("http://e/t0").unwrap();
            vec![
                Triple::new(s, p, Oid::from_int(1000).unwrap()),
                Triple::new(s, note, Oid::from_int(1).unwrap()),
                Triple::new(s, tag, t0),
                Triple::new(p, p, p),
            ]
        };
        let check = |gen: &StoreGeneration, expect: &[Triple], label: &str| {
            let mut base = gen.base_triples(&pool);
            base.sort_unstable();
            assert_eq!(base, expect, "{label}");
            assert_eq!(gen.n_triples(), expect.len(), "{label}");
            for t in expect {
                assert!(gen.contains(&pool, t), "{label}: {t:?} missing");
            }
            for t in absent(&gen.dict) {
                assert!(!gen.contains(&pool, &t), "{label}: {t:?} present");
            }
            gen.debug_validate();
        };

        let staged = StoreGeneration::staging(
            Arc::new(ts.dict.clone()),
            ts.triples.clone(),
            ColumnEncoding::default(),
        );
        check(&staged, &expect, "staged");

        let mut schema = sordf_schema::discover(&expect, &ts.dict, &SchemaConfig::default());
        assert!(!schema.classes.is_empty());
        let spec = ClusterSpec::auto(&schema);
        let mut parse_order = staged.clone();
        parse_order.staged = Vec::new();
        parse_order.baseline = Some(Arc::new(BaselineStore::build(&dm, &expect)));
        check(&parse_order, &expect, "baseline");
        let mut cs_schema = schema.clone();
        let cs = build_clustered(&dm, &expect, &mut cs_schema, &spec, false);
        parse_order.baseline = None;
        parse_order.cs_parse_order = Some((Arc::new(cs), Arc::new(cs_schema)));
        check(&parse_order, &expect, "cs_parse_order");

        reorganize(&mut ts, &mut schema, &spec);
        let expect = ts.sorted_spo();
        let store = build_clustered(&dm, &expect, &mut schema, &spec, true);
        let mut clustered =
            StoreGeneration::staging(Arc::new(ts.dict), Vec::new(), ColumnEncoding::default());
        clustered.schema = Some(Arc::new(schema));
        clustered.clustered = Some(Arc::new(store));
        check(&clustered, &expect, "clustered");
    }
}
