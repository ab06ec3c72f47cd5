//! The in-memory staging area: parsed, dictionary-encoded triples.

use sordf_model::{ntriples, Dictionary, ModelError, Term, TermTriple, Triple};

/// A dictionary plus the encoded triples, in parse order. This is the input
/// to both store builders and to schema discovery.
#[derive(Debug, Default, Clone)]
pub struct TripleSet {
    pub dict: Dictionary,
    pub triples: Vec<Triple>,
}

impl TripleSet {
    pub fn new() -> TripleSet {
        TripleSet::default()
    }

    /// Number of loaded triples.
    pub fn len(&self) -> usize {
        self.triples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Encode and add one term triple. Blank nodes are *skolemized* into
    /// IRIs (`urn:sordf:blank:<label>`) so that blank subjects participate
    /// in subject clustering like any other subject.
    pub fn add(&mut self, t: &TermTriple) -> Result<(), ModelError> {
        let enc = self.encode(t)?;
        self.triples.push(enc);
        Ok(())
    }

    /// Encode one term triple against this set's dictionary *without*
    /// adding it to the base triples — the write path of the delta store
    /// (new IRIs/strings are interned; the triple itself lands in a delta
    /// run, not in the base set).
    pub fn encode(&mut self, t: &TermTriple) -> Result<Triple, ModelError> {
        encode_triple_skolemized(&self.dict, t)
    }

    /// Load an N-Triples document.
    pub fn load_ntriples(&mut self, text: &str) -> Result<usize, ModelError> {
        let parsed = ntriples::parse_document(text)?;
        for t in &parsed {
            self.add(t)?;
        }
        Ok(parsed.len())
    }

    /// Bulk-add term triples (from a generator).
    pub fn extend_terms<'a>(
        &mut self,
        triples: impl IntoIterator<Item = &'a TermTriple>,
    ) -> Result<usize, ModelError> {
        let mut n = 0;
        for t in triples {
            self.add(t)?;
            n += 1;
        }
        Ok(n)
    }

    /// A copy of the triples sorted in SPO order and deduplicated (the
    /// input schema discovery and every store builder require: RDF graphs
    /// are sets).
    pub fn sorted_spo(&self) -> Vec<Triple> {
        let mut v = self.triples.clone();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Encode one term against a bare dictionary, skolemizing blank nodes into
/// IRIs the same way [`TripleSet::add`] does — the write path of a live
/// generation interns against the generation's dictionary directly, without
/// owning a `TripleSet`.
pub fn encode_term_skolemized(dict: &Dictionary, t: &Term) -> Result<sordf_model::Oid, ModelError> {
    match t {
        Term::Blank(label) => Ok(dict.encode_iri(&Term::skolem_blank_iri(label))),
        other => dict.encode_term(other),
    }
}

/// Encode one term triple against a bare dictionary (see
/// [`encode_term_skolemized`]).
pub fn encode_triple_skolemized(dict: &Dictionary, t: &TermTriple) -> Result<Triple, ModelError> {
    let s = encode_term_skolemized(dict, &t.s)?;
    let p = encode_term_skolemized(dict, &t.p)?;
    let o = encode_term_skolemized(dict, &t.o)?;
    Ok(Triple::new(s, p, o))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sordf_model::Oid;

    #[test]
    fn load_and_encode() {
        let mut ts = TripleSet::new();
        let n = ts
            .load_ntriples(
                r#"<http://e/s1> <http://e/p> <http://e/o> .
<http://e/s1> <http://e/q> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
_:b <http://e/p> <http://e/s1> ."#,
            )
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(ts.len(), 3);
        // Blank skolemized to an IRI.
        assert!(ts.dict.iri_oid("urn:sordf:blank:b").is_some());
        assert_eq!(ts.triples[1].o, Oid::from_int(42).unwrap());
    }

    #[test]
    fn dedup_removes_duplicates() {
        let mut ts = TripleSet::new();
        ts.load_ntriples(
            "<http://e/s> <http://e/p> <http://e/o> .\n<http://e/s> <http://e/p> <http://e/o> .",
        )
        .unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.sorted_spo().len(), 1);
    }

    #[test]
    fn sorted_spo_is_sorted() {
        let mut ts = TripleSet::new();
        ts.load_ntriples(
            "<http://e/b> <http://e/p> <http://e/o> .\n<http://e/a> <http://e/p> <http://e/o> .",
        )
        .unwrap();
        ts.load_ntriples("<http://e/b> <http://e/p> <http://e/o> .")
            .unwrap();
        let sorted = ts.sorted_spo();
        assert_eq!(sorted.len(), 2, "duplicates dropped");
        assert!(sorted.windows(2).all(|w| w[0].key_spo() < w[1].key_spo()));
        // Original parse order untouched.
        assert_ne!(ts.triples[0].s, ts.triples[1].s);
    }
}
