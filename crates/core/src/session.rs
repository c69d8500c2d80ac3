//! Preference relations (*p-relations*) and their sessions.

use crate::value::Value;
use crate::{PpdError, Result};
use ppd_rim::{Item, MallowsModel};

/// One session of a preference relation: the session attributes (e.g. voter
/// and poll date in Figure 1) together with the ranking model that describes
/// this session's uncertain preferences.
#[derive(Debug, Clone)]
pub struct Session {
    attrs: Vec<Value>,
    model: MallowsModel,
    /// [`Session::model_key_hash`], folded once here: every request the
    /// engine plans for this session reads it.
    model_hash: u64,
    /// The items σ ranks, sorted ascending, once here: planning matches a
    /// session to the item sets it has already resolved by comparing these
    /// slices, and resolves selectors against them.
    sorted_items: Box<[Item]>,
}

impl Session {
    /// Creates a session.
    pub fn new(attrs: Vec<Value>, model: MallowsModel) -> Self {
        let model_hash = model_key_fold(model.sigma().items(), model.phi().to_bits());
        let mut sorted_items: Box<[Item]> = model.sigma().items().into();
        sorted_items.sort_unstable();
        Session {
            attrs,
            model,
            model_hash,
            sorted_items,
        }
    }

    /// The session-attribute values, aligned with the p-relation's session
    /// columns.
    pub fn attrs(&self) -> &[Value] {
        &self.attrs
    }

    /// The session's Mallows model.
    pub fn model(&self) -> &MallowsModel {
        &self.model
    }

    /// A key identifying the model's content, used to group sessions that
    /// share the same model (Section 6.4). Two sessions with equal centre
    /// rankings and dispersions share a key.
    pub fn model_key(&self) -> (Vec<u32>, u64) {
        (
            self.model.sigma().items().to_vec(),
            self.model.phi().to_bits(),
        )
    }

    /// A stable 64-bit content hash of [`Session::model_key`].
    ///
    /// Unlike `std`'s `DefaultHasher`, this FNV-1a hash is specified, so it
    /// is identical across processes, platforms, and toolchain versions. The
    /// evaluation engine's work-unit keys fold it into per-unit RNG seeds
    /// (see `engine::UnitKey::stable_hash`), which is what makes approximate
    /// results reproducible across runs and independent of session order,
    /// grouping, and thread count. Computed once, when the session is
    /// built.
    pub fn model_key_hash(&self) -> u64 {
        self.model_hash
    }

    /// The items the session's centre ranking holds, in ascending order. A
    /// ranking holds each item once, so two sessions rank the same item set
    /// exactly when these slices are equal.
    pub(crate) fn sorted_items(&self) -> &[Item] {
        &self.sorted_items
    }
}

/// The FNV-1a fold underlying [`Session::model_key_hash`] — over the parts
/// of a [`Session::model_key`], borrowed — shared with the engine's
/// `UnitKey::stable_hash` so the two can never drift apart.
pub(crate) fn model_key_fold(sigma: &[u32], phi_bits: u64) -> u64 {
    let mut h = FNV_OFFSET;
    for &item in sigma {
        h = fnv1a_extend(h, &item.to_le_bytes());
    }
    fnv1a_extend(h, &phi_bits.to_le_bytes())
}

/// FNV-1a offset basis (64-bit).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running 64-bit FNV-1a hash. Stable by construction:
/// the engine relies on it for cross-run-reproducible seed derivation.
pub(crate) fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A preference relation: a session schema plus one [`Session`] per tuple.
///
/// Conceptually each session tuple expands into pairwise preference facts
/// `(session; a; b)` for a random ranking drawn from the session's model; the
/// p-relation stores the model rather than materialising those facts.
#[derive(Debug, Clone)]
pub struct PreferenceRelation {
    name: String,
    session_columns: Vec<String>,
    sessions: Vec<Session>,
}

impl PreferenceRelation {
    /// Builds a p-relation, validating session-attribute arities.
    pub fn new(
        name: impl Into<String>,
        session_columns: Vec<impl Into<String>>,
        sessions: Vec<Session>,
    ) -> Result<Self> {
        let name = name.into();
        let session_columns: Vec<String> = session_columns.into_iter().map(Into::into).collect();
        for (i, c) in session_columns.iter().enumerate() {
            if session_columns[..i].contains(c) {
                return Err(PpdError::Malformed(format!(
                    "p-relation {name}: duplicate session column {c}"
                )));
            }
        }
        for (idx, s) in sessions.iter().enumerate() {
            if s.attrs().len() != session_columns.len() {
                return Err(PpdError::Malformed(format!(
                    "p-relation {name}: session {idx} has {} attributes but the schema has {}",
                    s.attrs().len(),
                    session_columns.len()
                )));
            }
        }
        Ok(PreferenceRelation {
            name,
            session_columns,
            sessions,
        })
    }

    /// The p-relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The session-attribute column names.
    pub fn session_columns(&self) -> &[String] {
        &self.session_columns
    }

    /// The sessions.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Number of sessions.
    pub fn num_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Appends a session (arity-checked).
    pub fn push(&mut self, session: Session) -> Result<()> {
        if session.attrs().len() != self.session_columns.len() {
            return Err(PpdError::Malformed(format!(
                "p-relation {}: session arity mismatch",
                self.name
            )));
        }
        self.sessions.push(session);
        Ok(())
    }

    /// Replaces the session at `index` (arity- and bounds-checked),
    /// returning the session it displaced.
    pub fn replace(&mut self, index: usize, session: Session) -> Result<Session> {
        if session.attrs().len() != self.session_columns.len() {
            return Err(PpdError::Malformed(format!(
                "p-relation {}: session arity mismatch",
                self.name
            )));
        }
        if index >= self.sessions.len() {
            return Err(PpdError::Malformed(format!(
                "p-relation {}: no session at index {index} ({} sessions)",
                self.name,
                self.sessions.len()
            )));
        }
        Ok(std::mem::replace(&mut self.sessions[index], session))
    }

    /// Removes and returns the session at `index` (bounds-checked). Later
    /// sessions shift down by one, exactly like `Vec::remove`.
    pub fn remove(&mut self, index: usize) -> Result<Session> {
        if index >= self.sessions.len() {
            return Err(PpdError::Malformed(format!(
                "p-relation {}: no session at index {index} ({} sessions)",
                self.name,
                self.sessions.len()
            )));
        }
        Ok(self.sessions.remove(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppd_rim::Ranking;

    fn model(phi: f64) -> MallowsModel {
        MallowsModel::new(Ranking::identity(4), phi).unwrap()
    }

    #[test]
    fn construction_validates() {
        let s = Session::new(vec![Value::from("Ann")], model(0.3));
        assert!(PreferenceRelation::new("P", vec!["voter", "voter"], vec![]).is_err());
        assert!(PreferenceRelation::new("P", vec!["voter", "date"], vec![s.clone()]).is_err());
        let mut p = PreferenceRelation::new("P", vec!["voter"], vec![s]).unwrap();
        assert_eq!(p.num_sessions(), 1);
        assert!(p
            .push(Session::new(vec![Value::from("Bob")], model(0.5)))
            .is_ok());
        assert!(p
            .push(Session::new(
                vec![Value::from("Bob"), Value::Null],
                model(0.5)
            ))
            .is_err());
    }

    #[test]
    fn replace_and_remove_validate_and_return_the_displaced_session() {
        let ann = Session::new(vec![Value::from("Ann")], model(0.3));
        let bob = Session::new(vec![Value::from("Bob")], model(0.5));
        let mut p = PreferenceRelation::new("P", vec!["voter"], vec![ann, bob]).unwrap();
        // Arity and bounds are checked before anything mutates.
        assert!(p.replace(0, Session::new(vec![], model(0.3))).is_err());
        assert!(p
            .replace(2, Session::new(vec![Value::from("Cat")], model(0.3)))
            .is_err());
        assert!(p.remove(2).is_err());
        assert_eq!(p.num_sessions(), 2);
        let displaced = p
            .replace(0, Session::new(vec![Value::from("Cat")], model(0.9)))
            .unwrap();
        assert_eq!(displaced.attrs(), &[Value::from("Ann")]);
        assert_eq!(p.sessions()[0].attrs(), &[Value::from("Cat")]);
        let removed = p.remove(0).unwrap();
        assert_eq!(removed.attrs(), &[Value::from("Cat")]);
        // Removal shifts later sessions down.
        assert_eq!(p.num_sessions(), 1);
        assert_eq!(p.sessions()[0].attrs(), &[Value::from("Bob")]);
    }

    #[test]
    fn model_keys_group_identical_models() {
        let a = Session::new(vec![Value::from("Ann")], model(0.3));
        let b = Session::new(vec![Value::from("Bob")], model(0.3));
        let c = Session::new(vec![Value::from("Cat")], model(0.5));
        assert_eq!(a.model_key(), b.model_key());
        assert_ne!(a.model_key(), c.model_key());
    }

    #[test]
    fn sorted_items_are_the_ranked_items_ascending() {
        let s = Session::new(
            vec![Value::from("Ann")],
            MallowsModel::new(Ranking::new(vec![7, 2, 9, 0]).unwrap(), 0.3).unwrap(),
        );
        assert_eq!(s.sorted_items(), [0, 2, 7, 9]);
        assert_eq!(s.clone().sorted_items(), [0, 2, 7, 9]);
    }

    #[test]
    fn model_key_hash_follows_model_content() {
        let a = Session::new(vec![Value::from("Ann")], model(0.3));
        let b = Session::new(vec![Value::from("Bob")], model(0.3));
        let c = Session::new(vec![Value::from("Cat")], model(0.5));
        assert_eq!(a.model_key_hash(), b.model_key_hash());
        assert_ne!(a.model_key_hash(), c.model_key_hash());
        // FNV-1a is fully specified: pin one value so the seed-derivation
        // contract cannot silently drift across toolchains or refactors.
        assert_eq!(
            super::fnv1a_extend(super::FNV_OFFSET, &[1, 2, 3]),
            0xd0aa_6218_672c_f5ab
        );
    }
}
