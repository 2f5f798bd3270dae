//! Output checks made apart from the program: properties every answer
//! of the method must have, and a brute-force window scan of the
//! generated collection that says which documents an answer must hold.

use hdk_core::max_lookups;
use hdk_corpus::Collection;
use hdk_text::TermId;
use std::collections::{BTreeSet, HashMap};

/// One query's answer as the benchmark saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// `(doc id, f64 score bits)` in answer order.
    pub results: Vec<(u32, u64)>,
    pub lookups: u32,
    pub postings: u64,
}

impl Answer {
    pub fn from_outcome(outcome: &hdk_core::QueryOutcome) -> Self {
        Answer {
            results: outcome
                .results
                .iter()
                .map(|r| (r.doc.0, r.score.to_bits()))
                .collect(),
            lookups: outcome.lookups,
            postings: outcome.postings_fetched,
        }
    }
}

/// The model parameters an answer is checked against.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    pub dfmax: u32,
    pub smax: usize,
    pub window: usize,
    pub k: usize,
}

/// The brute-force reference over a collection: term → documents, and
/// window scans over the documents' token sequences.
pub struct Reference<'a> {
    collection: &'a Collection,
    docs_of: HashMap<TermId, Vec<u32>>,
    limits: Limits,
}

impl<'a> Reference<'a> {
    pub fn new(collection: &'a Collection, limits: Limits) -> Self {
        let mut docs_of: HashMap<TermId, Vec<u32>> = HashMap::new();
        for doc in collection.docs() {
            let distinct: BTreeSet<TermId> = doc.tokens.iter().copied().collect();
            for t in distinct {
                docs_of.entry(t).or_default().push(doc.id.0);
            }
        }
        Reference {
            collection,
            docs_of,
            limits,
        }
    }

    /// Documents holding every one of `terms` inside one window of
    /// `limits.window` consecutive tokens.
    pub fn window_docs(&self, terms: &[TermId]) -> Vec<u32> {
        let Some(first) = terms.first() else {
            return Vec::new();
        };
        let w = self.limits.window;
        let mut out = Vec::new();
        for &d in self.docs_of.get(first).map(Vec::as_slice).unwrap_or(&[]) {
            let tokens = &self.collection.docs()[d as usize].tokens;
            let hit = (0..tokens.len()).any(|start| {
                let window = &tokens[start..(start + w).min(tokens.len())];
                terms.iter().all(|t| window.contains(t))
            });
            if hit {
                out.push(d);
            }
        }
        out
    }

    /// Every document of every discriminative key of `query`: each term
    /// subset of at most `smax` terms whose window document frequency is
    /// between 1 and `DFmax`. The method must return all of them when
    /// asked for every match.
    pub fn required_docs(&self, query: &[TermId]) -> BTreeSet<u32> {
        let terms: Vec<TermId> = query
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut required = BTreeSet::new();
        let n = terms.len();
        for mask in 1u32..(1 << n) {
            if mask.count_ones() as usize > self.limits.smax {
                continue;
            }
            let subset: Vec<TermId> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| terms[i])
                .collect();
            let docs = self.window_docs(&subset);
            if !docs.is_empty() && docs.len() as u32 <= self.limits.dfmax {
                required.extend(docs);
            }
        }
        required
    }

    /// The property checks every answer must pass.
    pub fn check(&self, query: &[TermId], answer: &Answer) -> Result<(), String> {
        let l = &self.limits;
        let bound = max_lookups(query.len(), l.smax);
        if u64::from(answer.lookups) > bound {
            return Err(format!(
                "{} lookups exceed max_lookups = {bound}",
                answer.lookups
            ));
        }
        if answer.postings > u64::from(answer.lookups) * u64::from(l.dfmax) {
            return Err(format!(
                "{} postings exceed lookups * DFmax = {}",
                answer.postings,
                u64::from(answer.lookups) * u64::from(l.dfmax)
            ));
        }
        if answer.results.len() > l.k {
            return Err(format!(
                "{} results exceed k = {}",
                answer.results.len(),
                l.k
            ));
        }
        for pair in answer.results.windows(2) {
            if f64::from_bits(pair[0].1) < f64::from_bits(pair[1].1) {
                return Err(format!("scores ascend at doc {}", pair[1].0));
            }
        }
        let distinct: BTreeSet<u32> = answer.results.iter().map(|r| r.0).collect();
        if distinct.len() != answer.results.len() {
            return Err("duplicate doc ids in the results".to_string());
        }
        for &(doc, _) in &answer.results {
            let Some(d) = self.collection.docs().get(doc as usize) else {
                return Err(format!("doc {doc} is not in the collection"));
            };
            if !query.iter().any(|t| d.tokens.contains(t)) {
                return Err(format!("doc {doc} holds no query term"));
            }
        }
        Ok(())
    }

    /// Checks an exhaustive answer (asked with `k` = every document)
    /// against the window scan.
    pub fn check_exhaustive(
        &self,
        query: &[TermId],
        all_docs: &BTreeSet<u32>,
    ) -> Result<(), String> {
        let missed: Vec<u32> = self
            .required_docs(query)
            .difference(all_docs)
            .copied()
            .collect();
        if missed.is_empty() {
            Ok(())
        } else {
            Err(format!("missed docs {missed:?} of discriminative keys"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdk_corpus::{DocId, Document};
    use hdk_text::Vocabulary;

    fn toy() -> Collection {
        let mut vocab = Vocabulary::new();
        for t in 0..6 {
            vocab.intern(&format!("t{t}"));
        }
        let docs = [
            vec![0, 1, 2, 3],       // 0 and 1 adjacent
            vec![0, 4, 4, 4, 4, 1], // 0 and 1 five tokens apart
            vec![1, 5, 0],          // 0 and 1 inside three tokens
            vec![2, 2, 2],
            vec![3, 4, 4, 5], // 3 and 5 exactly one window apart
        ];
        let docs = docs
            .iter()
            .enumerate()
            .map(|(i, toks)| Document {
                id: DocId(i as u32),
                tokens: toks.iter().map(|&t| TermId(t)).collect(),
            })
            .collect();
        Collection::new(docs, vocab)
    }

    fn limits(dfmax: u32) -> Limits {
        Limits {
            dfmax,
            smax: 3,
            window: 3,
            k: 10,
        }
    }

    #[test]
    fn window_scan_matches_hand_count() {
        let c = toy();
        let r = Reference::new(&c, limits(2));
        let t = |v: &[u32]| v.iter().map(|&x| TermId(x)).collect::<Vec<_>>();
        assert_eq!(r.window_docs(&t(&[0])), vec![0, 1, 2]);
        // Doc 1 holds both terms, but never inside three tokens.
        assert_eq!(r.window_docs(&t(&[0, 1])), vec![0, 2]);
        assert_eq!(r.window_docs(&t(&[0, 1, 2])), vec![0]);
        assert_eq!(r.window_docs(&t(&[2])), vec![0, 3]);
        assert_eq!(r.window_docs(&t(&[3, 4])), vec![4]);
        // Three tokens apart: no window of three holds both.
        assert!(r.window_docs(&t(&[3, 5])).is_empty());
    }

    #[test]
    fn required_docs_are_those_of_discriminative_subsets() {
        let c = toy();
        let t = |v: &[u32]| v.iter().map(|&x| TermId(x)).collect::<Vec<_>>();
        // DFmax 2: {0} (df 3) and {1} (df 3) are not discriminative;
        // {0,1} (docs 0, 2) is, and so is {2} (docs 0, 3).
        let r = Reference::new(&c, limits(2));
        assert_eq!(r.required_docs(&t(&[0, 1])), BTreeSet::from([0, 2]));
        assert_eq!(r.required_docs(&t(&[0, 1, 2])), BTreeSet::from([0, 2, 3]));
        // DFmax 1: only {0,1,2} (doc 0) and {0,2}, {1,2} (doc 0) qualify.
        let r = Reference::new(&c, limits(1));
        assert_eq!(r.required_docs(&t(&[0, 1, 2])), BTreeSet::from([0]));
        assert!(r
            .check_exhaustive(&t(&[0, 1]), &BTreeSet::from([0]))
            .is_ok());
        let r = Reference::new(&c, limits(2));
        assert!(r
            .check_exhaustive(&t(&[0, 1]), &BTreeSet::from([0]))
            .is_err());
    }

    #[test]
    fn property_checks_catch_bad_answers() {
        let c = toy();
        let r = Reference::new(&c, limits(2));
        let q = [TermId(0), TermId(1)];
        let good = Answer {
            results: vec![(2, 2.0f64.to_bits()), (0, 1.0f64.to_bits())],
            lookups: 3,
            postings: 6,
        };
        assert!(r.check(&q, &good).is_ok());
        let mut bad = good.clone();
        bad.results.reverse();
        assert!(r.check(&q, &bad).is_err(), "ascending scores");
        let mut bad = good.clone();
        bad.results[1].0 = 3;
        assert!(r.check(&q, &bad).is_err(), "doc without a query term");
        let mut bad = good.clone();
        bad.results[1].0 = 2;
        assert!(r.check(&q, &bad).is_err(), "duplicate doc");
        let mut bad = good.clone();
        bad.postings = 7;
        assert!(r.check(&q, &bad).is_err(), "postings above lookups * DFmax");
        let mut bad = good;
        bad.lookups = 4;
        bad.postings = 0;
        assert!(
            r.check(&q, &bad).is_err(),
            "lookups above the lattice bound"
        );
    }
}
