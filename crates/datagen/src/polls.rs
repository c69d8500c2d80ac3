//! The synthetic `Polls` database (Section 6.1), modelled on the 2016 US
//! presidential election example of Figure 1.

use ppd_core::{
    ConjunctiveQuery, DatabaseBuilder, PpdDatabase, PreferenceRelation, Relation, Session, Term,
    Value,
};
use ppd_rim::{Item, MallowsModel, Ranking};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of the Polls generator.
#[derive(Debug, Clone, Copy)]
pub struct PollsConfig {
    /// Number of candidates (items).
    pub num_candidates: usize,
    /// Number of voters; each voter yields one polling session.
    pub num_voters: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PollsConfig {
    fn default() -> Self {
        PollsConfig {
            num_candidates: 20,
            num_voters: 1000,
            seed: 2016,
        }
    }
}

/// Q1 of the paper over the Polls schema: "a female candidate is preferred
/// to a male candidate". The canonical workload query of the engine's
/// benches and determinism tests — kept here, next to the schema it is
/// written against, so a schema change cannot silently leave the harnesses
/// querying different shapes.
pub fn polls_q1_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new("Q1")
        .prefer(
            "Polls",
            vec![Term::any(), Term::any()],
            Term::var("c1"),
            Term::var("c2"),
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c1"),
                Term::any(),
                Term::val("F"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
        .atom(
            "Candidates",
            vec![
                Term::var("c2"),
                Term::any(),
                Term::val("M"),
                Term::any(),
                Term::any(),
                Term::any(),
            ],
        )
}

const PARTIES: [&str; 2] = ["D", "R"];
const SEXES: [&str; 2] = ["F", "M"];
const REGIONS: [&str; 6] = ["NE", "MW", "S", "W", "SW", "NW"];
const EDUS: [&str; 6] = ["HS", "BS", "BA", "MS", "JD", "PhD"];
const AGES: [i64; 6] = [20, 30, 40, 50, 60, 70];
const DATES: [&str; 2] = ["5/5", "6/5"];

/// Generates the Polls database: a `Candidates` item relation, a `Voters`
/// o-relation, and a `Polls` p-relation with one session per voter.
///
/// Voters fall into 72 demographic groups (sex × age bracket × education);
/// each group owns 9 Mallows models (3 random reference rankings × 3
/// dispersions {0.2, 0.5, 0.8}), and every voter is assigned one model from
/// their group and a random poll date — the recipe described in Section 6.1.
pub fn polls_database(config: &PollsConfig) -> PpdDatabase {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let m = config.num_candidates.max(2);

    // Candidates.
    let mut candidate_tuples = Vec::with_capacity(m);
    for i in 0..m {
        candidate_tuples.push(vec![
            Value::from(format!("cand{i}")),
            Value::from(PARTIES[rng.gen_range(0..PARTIES.len())]),
            Value::from(SEXES[rng.gen_range(0..SEXES.len())]),
            Value::from(AGES[rng.gen_range(0..AGES.len())]),
            Value::from(EDUS[rng.gen_range(0..EDUS.len())]),
            Value::from(REGIONS[rng.gen_range(0..REGIONS.len())]),
        ]);
    }
    let candidates = Relation::new(
        "Candidates",
        vec!["candidate", "party", "sex", "age", "edu", "reg"],
        candidate_tuples,
    )
    .expect("well-formed candidate tuples");

    // Demographic groups: sex × age × edu, each with 9 Mallows models.
    let phis = [0.2, 0.5, 0.8];
    let mut group_models: Vec<Vec<MallowsModel>> = Vec::new();
    let num_groups = SEXES.len() * AGES.len() * EDUS.len();
    for _ in 0..num_groups {
        let mut models = Vec::with_capacity(9);
        for _ in 0..3 {
            let mut items: Vec<Item> = (0..m as Item).collect();
            items.shuffle(&mut rng);
            let sigma = Ranking::new(items).expect("shuffled permutation");
            for &phi in &phis {
                models.push(MallowsModel::new(sigma.clone(), phi).expect("valid phi"));
            }
        }
        group_models.push(models);
    }
    let group_of = |sex: usize, age: usize, edu: usize| -> usize {
        sex * AGES.len() * EDUS.len() + age * EDUS.len() + edu
    };

    // Voters and their polling sessions.
    let mut voter_tuples = Vec::with_capacity(config.num_voters);
    let mut sessions = Vec::with_capacity(config.num_voters);
    for v in 0..config.num_voters {
        let sex = rng.gen_range(0..SEXES.len());
        let age = rng.gen_range(0..AGES.len());
        let edu = rng.gen_range(0..EDUS.len());
        let name = format!("voter{v}");
        voter_tuples.push(vec![
            Value::from(name.clone()),
            Value::from(SEXES[sex]),
            Value::from(AGES[age]),
            Value::from(EDUS[edu]),
        ]);
        let models = &group_models[group_of(sex, age, edu)];
        let model = models[rng.gen_range(0..models.len())].clone();
        let date = DATES[rng.gen_range(0..DATES.len())];
        sessions.push(Session::new(
            vec![Value::from(name), Value::from(date)],
            model,
        ));
    }
    let voters = Relation::new("Voters", vec!["voter", "sex", "age", "edu"], voter_tuples)
        .expect("well-formed voter tuples");
    let polls =
        PreferenceRelation::new("Polls", vec!["voter", "date"], sessions).expect("valid sessions");

    DatabaseBuilder::new()
        .item_relation(candidates, "candidate")
        .relation(voters)
        .preference_relation(polls)
        .build()
        .expect("polls database is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_core::{ConjunctiveQuery, Engine, EvalConfig, Term as T};

    #[test]
    fn generates_requested_sizes() {
        let db = polls_database(&PollsConfig {
            num_candidates: 12,
            num_voters: 50,
            seed: 1,
        });
        assert_eq!(db.num_items(), 12);
        assert_eq!(db.relation("Voters").unwrap().len(), 50);
        assert_eq!(db.preference_relation("Polls").unwrap().num_sessions(), 50);
        // Every session ranks all candidates.
        for s in db.preference_relation("Polls").unwrap().sessions() {
            assert_eq!(s.model().num_items(), 12);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = polls_database(&PollsConfig {
            num_candidates: 8,
            num_voters: 10,
            seed: 3,
        });
        let b = polls_database(&PollsConfig {
            num_candidates: 8,
            num_voters: 10,
            seed: 3,
        });
        let sa = a.preference_relation("Polls").unwrap().sessions();
        let sb = b.preference_relation("Polls").unwrap().sessions();
        for (x, y) in sa.iter().zip(sb) {
            assert_eq!(x.model().sigma().items(), y.model().sigma().items());
            assert_eq!(x.model().phi(), y.model().phi());
        }
    }

    #[test]
    fn figure_4_query_is_evaluable_on_a_small_instance() {
        // The Figure 4 query: a male candidate preferred to a female
        // candidate of the same party.
        let db = polls_database(&PollsConfig {
            num_candidates: 8,
            num_voters: 6,
            seed: 5,
        });
        let q = ConjunctiveQuery::new("fig4")
            .prefer("Polls", vec![T::any(), T::any()], T::var("l"), T::var("r"))
            .atom(
                "Candidates",
                vec![
                    T::var("l"),
                    T::var("p"),
                    T::val("M"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            )
            .atom(
                "Candidates",
                vec![
                    T::var("r"),
                    T::var("p"),
                    T::val("F"),
                    T::any(),
                    T::any(),
                    T::any(),
                ],
            );
        let p = Engine::new(EvalConfig::exact())
            .evaluate_boolean(&db, &q)
            .unwrap();
        assert!((0.0..=1.0).contains(&p));
    }
}
