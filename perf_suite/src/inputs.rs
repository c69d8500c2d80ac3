//! Everything the workloads feed the program: databases, queries, the
//! request mix, replacement sessions, and reference answers. `--seed`
//! reaches only `PollsConfig::seed` (through the seed walk of `polls`) and
//! the update stride below; the program under test sees the generated
//! inputs, never the seed.

use ppd_core::{
    BatchAnswer, CompareOp, ConjunctiveQuery, Engine, EvalConfig, MallowsModel, PpdDatabase,
    Ranking, Session, SessionScore, Term, TopKStrategy, Update, Value,
};
use ppd_datagen::{polls_database, polls_q1_query, PollsConfig};
use ppd_service::{Answer, Request};
use std::sync::Mutex;

/// The p-relation every query ranges over.
pub const PRELATION: &str = "Polls";
/// `k` of every top-k request.
pub const TOP_K: usize = 5;
/// The top-k strategy of every top-k request (the paper's "2-edge" bound).
pub const TOP_K_STRATEGY: TopKStrategy = TopKStrategy::UpperBound {
    edges_per_pattern: 2,
};

/// The three ways the workloads' queries split the candidates in two: by
/// sex (Q1), by party, and at age 50.
fn splits(db: &PpdDatabase) -> [usize; 3] {
    let candidates = db.item_relation().tuples();
    let count = |holds: &dyn Fn(&[Value]) -> bool| candidates.iter().filter(|t| holds(t)).count();
    [
        count(&|t| t[SEX] == Value::from("F")),
        count(&|t| t[PARTY] == Value::from("D")),
        count(&|t| matches!(t[AGE], Value::Int(age) if age >= 50)),
    ]
}

/// Step between the generator seeds tried for one `--seed`: odd, so the
/// walk visits every `u64`, and large, so neighbouring `--seed`s do not end
/// on the same database.
const SEED_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// Where the walk ended for each `(--seed, voters, candidates)` it has made:
/// a run sets its workload up several times to time it, and only the first
/// set-up should pay for the walk, which is the harness's work, not the
/// program's.
static BALANCED_SEEDS: Mutex<Vec<((u64, usize, usize), u64)>> = Mutex::new(Vec::new());

/// The Polls database of a workload: the first database on the seed walk
/// `seed, seed + SEED_STEP, …` whose candidates split evenly all three ways.
///
/// The generator draws each candidate's sex, party and age independently, so
/// with ten or twelve candidates the sizes of a query's two sides — and with
/// them the number of patterns per union and the cost of every solve — swing
/// with the seed (iteration p50 95–151 ms over ten seeds of `cold_exact`).
/// Holding the split sizes fixed keeps the seed choosing *which* candidates,
/// rankings and voters the program sees while the amount of work stays the
/// workload's, so a run on another seed measures the code, not the draw.
/// About one generator seed in 70–90 qualifies.
pub fn polls(seed: u64, num_voters: usize, num_candidates: usize) -> PpdDatabase {
    let key = (seed, num_voters, num_candidates);
    let mut found = BALANCED_SEEDS
        .lock()
        .expect("no holder of this lock panics");
    let known = found.iter().find(|(k, _)| *k == key).map(|&(_, s)| s);
    let mut walk = known.unwrap_or(seed);
    loop {
        let db = polls_database(&PollsConfig {
            num_candidates,
            num_voters,
            seed: walk,
        });
        if splits(&db) == [num_candidates / 2; 3] {
            if known.is_none() {
                found.push((key, walk));
            }
            return db;
        }
        walk = walk.wrapping_add(SEED_STEP);
    }
}

fn prefers(query: ConjunctiveQuery, better: &str, worse: &str) -> ConjunctiveQuery {
    query.prefer(
        PRELATION,
        vec![Term::any(), Term::any()],
        Term::val(better),
        Term::val(worse),
    )
}

/// `cand0 ≻ cand1`: one two-label pattern per session.
pub fn pair_query() -> ConjunctiveQuery {
    prefers(ConjunctiveQuery::new("pair"), "cand0", "cand1")
}

/// `cand0 ≻ cand1 ≻ cand2`: a chain, which the general solver takes.
pub fn chain_query() -> ConjunctiveQuery {
    prefers(
        prefers(ConjunctiveQuery::new("chain"), "cand0", "cand1"),
        "cand1",
        "cand2",
    )
}

/// The three distinct queries behind every workload: the paper's Q1 (a join
/// over candidate attributes, grounded to a union of two-label patterns), a
/// chain and a pair.
pub fn queries() -> Vec<ConjunctiveQuery> {
    vec![polls_q1_query(), chain_query(), pair_query()]
}

/// Columns of the Polls `Candidates` relation: candidate, party, sex, age,
/// edu, reg.
const CANDIDATE_COLUMNS: usize = 6;
const PARTY: usize = 1;
const SEX: usize = 2;
const AGE: usize = 3;

/// `c1 ≻ c2` over all sessions, with one `Candidates` atom per side whose
/// `column` holds the given term: the shape of the paper's Q1.
fn two_sided(name: &str, column: usize, better: Term, worse: Term) -> ConjunctiveQuery {
    let candidate = |item: &str, attribute: Term| {
        let mut terms = vec![Term::any(); CANDIDATE_COLUMNS];
        terms[0] = Term::var(item);
        terms[column] = attribute;
        terms
    };
    ConjunctiveQuery::new(name)
        .prefer(
            PRELATION,
            vec![Term::any(), Term::any()],
            Term::var("c1"),
            Term::var("c2"),
        )
        .atom("Candidates", candidate("c1", better))
        .atom("Candidates", candidate("c2", worse))
}

/// The sampling workload's queries: Q1 ("a female candidate is preferred to
/// a male one") and five more two-label queries of its shape — its reverse,
/// both directions of the party split, and both directions of an age split
/// (50 and over against under 50, a derived predicate label). `polls` holds
/// all three splits even, so every query grounds to the same number of
/// patterns on every seed. Not the `chain`/`pair` queries of the other
/// workloads: on those a sampled unit's cost is heavy-tailed (a rare event
/// keeps the adaptive loop adding proposals), and the iteration time then
/// follows the seed, not the code.
pub fn split_queries() -> Vec<ConjunctiveQuery> {
    let by_value = |name: &str, column: usize, better: &str, worse: &str| {
        two_sided(name, column, Term::val(better), Term::val(worse))
    };
    let by_age = |name: &str, older: &str, younger: &str| {
        two_sided(name, AGE, Term::var(older), Term::var(younger))
            .compare("old", CompareOp::Ge, 50i64)
            .compare("young", CompareOp::Lt, 50i64)
    };
    vec![
        polls_q1_query(),
        by_value("M-over-F", SEX, "M", "F"),
        by_value("D-over-R", PARTY, "D", "R"),
        by_value("R-over-D", PARTY, "R", "D"),
        by_age("old-over-young", "old", "young"),
        by_age("young-over-old", "young", "old"),
    ]
}

/// The service workloads' request mix: every answer kind, cycled per client
/// with a per-client offset so concurrent waves blend kinds.
pub fn mix() -> Vec<Request> {
    vec![
        Request::Boolean(polls_q1_query()),
        Request::Count(chain_query()),
        Request::SessionProbabilities(pair_query()),
        Request::TopK {
            query: polls_q1_query(),
            k: TOP_K,
            strategy: TOP_K_STRATEGY,
        },
        Request::Boolean(pair_query()),
    ]
}

/// The engine reference answers are computed on: serial and ungrouped, so
/// every session is solved on its own and neither the scheduler nor the
/// dedup the workloads exercise can hide a wrong bit.
pub fn reference_engine() -> Engine {
    Engine::new(EvalConfig::exact().with_threads(1).without_grouping())
}

/// Answers `request` by calling `engine` directly, bypassing the service.
pub fn direct(engine: &Engine, db: &PpdDatabase, request: &Request) -> Answer {
    let eval = "the mix's queries evaluate on a Polls database";
    match request {
        Request::Boolean(q) => Answer::Boolean(engine.evaluate_boolean(db, q).expect(eval)),
        Request::Count(q) => Answer::Count(engine.count_sessions(db, q).expect(eval)),
        Request::SessionProbabilities(q) => {
            Answer::SessionProbabilities(engine.session_probabilities(db, q).expect(eval))
        }
        Request::TopK { query, k, strategy } => Answer::TopK(
            engine
                .most_probable_sessions(db, query, *k, *strategy)
                .expect(eval)
                .0,
        ),
    }
}

/// Bit-for-bit equality of two answers (`==` on `f64` would let `-0.0`
/// pass for `0.0`).
pub fn same_bits(a: &Answer, b: &Answer) -> bool {
    match (a, b) {
        (Answer::Boolean(x), Answer::Boolean(y)) | (Answer::Count(x), Answer::Count(y)) => {
            x.to_bits() == y.to_bits()
        }
        (Answer::SessionProbabilities(x), Answer::SessionProbabilities(y)) => {
            same_probabilities(x, y)
        }
        (Answer::TopK(x), Answer::TopK(y)) => same_scores(x, y),
        _ => false,
    }
}

/// Bit-for-bit equality of per-session probabilities.
pub fn same_probabilities(a: &[(usize, f64)], b: &[(usize, f64)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

/// Bit-for-bit equality of top-k answers.
pub fn same_scores(a: &[SessionScore], b: &[SessionScore]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.session_index == y.session_index && x.probability.to_bits() == y.probability.to_bits()
        })
}

/// Bit-for-bit equality of one query's batch answer.
pub fn same_batch_answer(a: &BatchAnswer, b: &BatchAnswer) -> bool {
    same_probabilities(&a.session_probabilities, &b.session_probabilities)
        && a.boolean.to_bits() == b.boolean.to_bits()
        && a.expected_count.to_bits() == b.expected_count.to_bits()
}

/// Strides of the update stream, all coprime with every voter count used,
/// so successive updates walk the whole p-relation before repeating.
const STRIDES: [usize; 4] = [7, 11, 13, 17];

/// The update stream's stride for a seed.
pub fn update_stride(seed: u64) -> usize {
    STRIDES[(seed % STRIDES.len() as u64) as usize]
}

/// The `round`-th update of the stream: replaces the session at
/// `(round × stride) mod voters` with one whose reference ranking is the
/// current one rotated by one position (same voter, same dispersion), so
/// the session's model — and every cached unit covering it — changes.
pub fn replacement(db: &PpdDatabase, round: usize, stride: usize) -> Update {
    let sessions = db
        .preference_relation(PRELATION)
        .expect("the Polls database has a Polls p-relation")
        .sessions();
    let index = (round * stride) % sessions.len();
    let old = &sessions[index];
    let mut items = old.model().sigma().items().to_vec();
    items.rotate_left(1);
    let model = MallowsModel::new(
        Ranking::new(items).expect("a rotation of a ranking is a ranking"),
        old.model().phi(),
    )
    .expect("the dispersion was valid before");
    Update::ReplaceSession {
        prelation: PRELATION.to_string(),
        index,
        session: Session::new(old.attrs().to_vec(), model),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replacement_rotates_the_reference_ranking_in_place() {
        let mut db = polls(3, 12, 6);
        let before = db.preference_relation(PRELATION).unwrap().sessions()[7]
            .model()
            .sigma()
            .items()
            .to_vec();
        let update = replacement(&db, 1, update_stride(0));
        let Update::ReplaceSession { index, .. } = &update else {
            panic!("the stream only replaces");
        };
        assert_eq!(*index, 7);
        db.apply(update).unwrap();
        let after = db.preference_relation(PRELATION).unwrap().sessions()[7]
            .model()
            .sigma()
            .items()
            .to_vec();
        assert_eq!(after[..5], before[1..]);
        assert_eq!(after[5], before[0]);
    }

    #[test]
    fn every_seed_gets_its_own_evenly_split_candidates() {
        let candidates = |seed| polls(seed, 5, 10).item_relation().tuples().to_vec();
        for seed in [0, 1, 2, 7, 2016, u64::MAX] {
            assert_eq!(splits(&polls(seed, 5, 10)), [5; 3], "seed {seed}");
            // The remembered end of the walk gives the same database again.
            assert_eq!(candidates(seed), candidates(seed), "seed {seed}");
        }
        assert_ne!(candidates(1), candidates(2));
        assert_eq!(splits(&polls(3, 4, 12)), [6; 3]);
    }

    #[test]
    fn strides_visit_every_session_of_every_size_used() {
        for voters in [24usize, 40, 60, 300, 400, 1000] {
            for stride in STRIDES {
                let mut seen = vec![false; voters];
                (0..voters).for_each(|round| seen[(round * stride) % voters] = true);
                assert!(seen.iter().all(|&s| s), "{stride} vs {voters}");
            }
        }
    }

    #[test]
    fn every_split_query_asks_something() {
        // A split query whose comparison the grounder cannot evaluate would
        // ground to patterns no ranking satisfies and measure nothing.
        let db = polls(2016, 12, 10);
        let engine = reference_engine();
        for (query, answer) in split_queries()
            .iter()
            .zip(engine.evaluate_batch(&db, &split_queries()).unwrap())
        {
            assert_eq!(answer.session_probabilities.len(), 12, "{}", query.name());
            assert!(
                answer.expected_count > 0.01,
                "{} can never hold: count {}",
                query.name(),
                answer.expected_count
            );
        }
    }

    #[test]
    fn bit_equality_tells_zero_signs_apart() {
        assert!(!same_bits(&Answer::Boolean(0.0), &Answer::Boolean(-0.0)));
        assert!(same_bits(&Answer::Count(1.5), &Answer::Count(1.5)));
        assert!(!same_bits(&Answer::Count(1.5), &Answer::Boolean(1.5)));
    }
}
