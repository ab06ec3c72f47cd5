//! Property-based tests (proptest) over the core invariants:
//!
//! * OID inline encodings are order-preserving and roundtrip;
//! * the N-Triples writer/parser roundtrip is the identity;
//! * dictionary encoding roundtrips arbitrary terms;
//! * subject clustering (reorganize) is a bijective renaming: the decoded
//!   triple set is unchanged, and query answers are invariant across all
//!   plan schemes and storage generations on random graphs.

use proptest::prelude::*;
use sordf::{Database, ExecConfig, Generation, PlanScheme, QueryRequest};
use sordf_model::{ntriples, Dictionary, Oid, Term, TermTriple, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
        (-1_000_000i64..1_000_000).prop_map(Value::Int),
        (-10_000_000i64..10_000_000).prop_map(Value::Decimal),
        (-30_000i64..60_000).prop_map(Value::Date),
        (-4_000_000_000i64..4_000_000_000).prop_map(Value::DateTime),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0u32..40).prop_map(|i| Term::iri(format!("http://t/e{i}"))),
        arb_value().prop_map(Term::literal),
    ]
}

fn arb_triple() -> impl Strategy<Value = TermTriple> {
    (
        (0u32..25).prop_map(|i| Term::iri(format!("http://t/s{i}"))),
        (0u32..6).prop_map(|i| Term::iri(format!("http://t/p{i}"))),
        arb_term(),
    )
        .prop_map(|(s, p, o)| TermTriple::new(s, p, o))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn oid_int_roundtrip_and_order(a in -4_000_000_000i64..4_000_000_000, b in -4_000_000_000i64..4_000_000_000) {
        let (oa, ob) = (Oid::from_int(a).unwrap(), Oid::from_int(b).unwrap());
        prop_assert_eq!(oa.as_int(), a);
        prop_assert_eq!(a.cmp(&b), oa.cmp(&ob));
    }

    #[test]
    fn oid_date_roundtrip_and_order(a in -100_000i64..100_000, b in -100_000i64..100_000) {
        let (oa, ob) = (Oid::from_date_days(a).unwrap(), Oid::from_date_days(b).unwrap());
        prop_assert_eq!(oa.as_date_days(), a);
        prop_assert_eq!(a.cmp(&b), oa.cmp(&ob));
    }

    #[test]
    fn decimal_lexical_roundtrip(u in -10_000_000i64..10_000_000) {
        let text = sordf_model::term::format_decimal(u);
        prop_assert_eq!(sordf_model::term::parse_decimal(&text), Some(u));
    }

    #[test]
    fn date_lexical_roundtrip(days in -100_000i64..100_000) {
        let text = sordf_model::date::format_date(days);
        prop_assert_eq!(sordf_model::date::parse_date(&text).unwrap(), days);
    }

    #[test]
    fn dictionary_roundtrips_terms(terms in proptest::collection::vec(arb_term(), 1..30)) {
        let dict = Dictionary::new();
        let oids: Vec<Oid> = terms.iter().map(|t| dict.encode_term(t).unwrap()).collect();
        for (t, o) in terms.iter().zip(&oids) {
            prop_assert_eq!(&dict.decode(*o).unwrap(), t);
        }
    }

    #[test]
    fn ntriples_roundtrip(triples in proptest::collection::vec(arb_triple(), 0..30)) {
        let mut buf = Vec::new();
        ntriples::write_document(&mut buf, &triples).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed = ntriples::parse_document(&text).unwrap();
        prop_assert_eq!(parsed, triples);
    }
}

proptest! {
    // Heavier end-to-end properties with fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Self-organization never changes the logical graph.
    #[test]
    fn reorganize_is_a_bijective_renaming(triples in proptest::collection::vec(arb_triple(), 1..80)) {
        let mut ts = sordf_storage::TripleSet::new();
        ts.extend_terms(&triples).unwrap();
        ts.triples = ts.sorted_spo();
        let decode = |ts: &sordf_storage::TripleSet| -> Vec<(Term, Term, Term)> {
            let mut v: Vec<_> = ts.triples.iter().map(|t| (
                ts.dict.decode(t.s).unwrap(),
                ts.dict.decode(t.p).unwrap(),
                ts.dict.decode(t.o).unwrap(),
            )).collect();
            v.sort();
            v
        };
        let before = decode(&ts);
        let spo = ts.sorted_spo();
        let mut schema = sordf_schema::discover(&spo, &ts.dict, &sordf_schema::SchemaConfig::default());
        let spec = sordf_storage::ClusterSpec::auto(&schema);
        sordf_storage::reorganize(&mut ts, &mut schema, &spec);
        prop_assert_eq!(decode(&ts), before);
    }

    /// Query answers are invariant under plan scheme, storage generation
    /// and zone maps, on arbitrary graphs.
    #[test]
    fn query_equivalence_on_random_graphs(triples in proptest::collection::vec(arb_triple(), 5..80)) {
        // A two-pattern star on the most common predicates.
        let q = "SELECT ?s ?a ?b WHERE { ?s <http://t/p0> ?a . ?s <http://t/p1> ?b . }";

        let po = Database::in_temp_dir().unwrap();
        po.load_terms(&triples).unwrap();
        po.build_baseline().unwrap();
        po.build_cs_tables().unwrap();
        let cl = Database::in_temp_dir().unwrap();
        cl.load_terms(&triples).unwrap();
        cl.self_organize().unwrap();

        let runs = [
            (&po, Generation::Baseline, PlanScheme::Default, false),
            (&po, Generation::CsParseOrder, PlanScheme::RdfScanJoin, true),
            (&cl, Generation::Clustered, PlanScheme::Default, true),
            (&cl, Generation::Clustered, PlanScheme::RdfScanJoin, false),
            (&cl, Generation::Clustered, PlanScheme::RdfScanJoin, true),
        ];
        let mut reference: Option<Vec<String>> = None;
        for (db, generation, scheme, zm) in runs {
            let exec = ExecConfig { scheme, zonemaps: zm, ..Default::default() };
            let rs = db
                .execute(&QueryRequest::sparql(q).generation(generation).config(exec))
                .unwrap()
                .results;
            let canon = rs.canonical(&db.dict());
            match &reference {
                None => reference = Some(canon),
                Some(r) => prop_assert_eq!(&canon, r),
            }
        }
    }
}
