//! The probabilistic preference database (RIM-PPD).

use crate::relation::Relation;
use crate::session::{PreferenceRelation, Session};
use crate::value::Value;
use crate::{PpdError, Result};
use ppd_patterns::{LabelInterner, Labeling};
use ppd_rim::Item;
use std::collections::{HashMap, HashSet};

/// One mutation of a live database, applied with [`PpdDatabase::apply`].
///
/// Updates address sessions of a p-relation by positional index (the order
/// [`PreferenceRelation::sessions`] exposes). Deleting shifts later indices
/// down by one, exactly like `Vec::remove`.
#[derive(Debug, Clone)]
pub enum Update {
    /// Appends a session to the named p-relation.
    InsertSession {
        /// The p-relation to mutate.
        prelation: String,
        /// The session to append.
        session: Session,
    },
    /// Replaces the session at `index` of the named p-relation.
    ReplaceSession {
        /// The p-relation to mutate.
        prelation: String,
        /// The positional index of the session to replace.
        index: usize,
        /// The replacement session.
        session: Session,
    },
    /// Removes the session at `index` of the named p-relation.
    DeleteSession {
        /// The p-relation to mutate.
        prelation: String,
        /// The positional index of the session to remove.
        index: usize,
    },
}

/// A probabilistic preference database: o-relations, one item relation whose
/// attribute values become item labels, and p-relations whose sessions carry
/// Mallows models over the items.
#[derive(Debug, Clone)]
pub struct PpdDatabase {
    item_relation: Relation,
    item_key_column: usize,
    relations: HashMap<String, Relation>,
    preference_relations: HashMap<String, PreferenceRelation>,
    interner: LabelInterner,
    labeling: Labeling,
    version: u64,
}

impl PpdDatabase {
    /// Starts a [`DatabaseBuilder`].
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::new()
    }

    /// Number of items described by the item relation.
    pub fn num_items(&self) -> usize {
        self.item_relation.len()
    }

    /// All item identifiers, in item-relation order.
    pub fn items(&self) -> Vec<Item> {
        (0..self.num_items() as Item).collect()
    }

    /// The item relation (e.g. `Candidates` or `Movies`).
    pub fn item_relation(&self) -> &Relation {
        &self.item_relation
    }

    /// Index of the item relation's key column.
    pub(crate) fn item_key_column(&self) -> usize {
        self.item_key_column
    }

    /// An attribute value of an item, by column name.
    pub fn item_attribute(&self, item: Item, column: &str) -> Option<&Value> {
        let col = self.item_relation.column_index(column)?;
        self.item_relation
            .tuples()
            .get(item as usize)
            .map(|t| &t[col])
    }

    /// A non-item o-relation by name (the item relation is also reachable by
    /// its own name).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        if name == self.item_relation.name() {
            Some(&self.item_relation)
        } else {
            self.relations.get(name)
        }
    }

    /// A p-relation by name.
    pub fn preference_relation(&self, name: &str) -> Option<&PreferenceRelation> {
        self.preference_relations.get(name)
    }

    /// Names of all p-relations.
    pub fn preference_relation_names(&self) -> Vec<&str> {
        self.preference_relations
            .keys()
            .map(|s| s.as_str())
            .collect()
    }

    /// The label interner (labels are `column=value` strings plus an
    /// `@item=key` identity label per item).
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// The labeling function `λ` derived from the item relation.
    pub fn labeling(&self) -> &Labeling {
        &self.labeling
    }

    /// The database's version id: `1` for a freshly built database, bumped
    /// by one on every successful [`PpdDatabase::apply`]. Monotone, never
    /// reused — engines use it to tell which snapshot an answer was
    /// computed against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies one [`Update`], returning the new version id together with
    /// the `model_key_hash`es of every session model the update touched
    /// (for a replacement: the displaced model's hash *and* the new one,
    /// deduplicated). Engines invalidate exactly the cached work units
    /// covering those hashes.
    ///
    /// Validation happens before anything mutates: an unknown p-relation,
    /// a session ranking unknown items, an arity mismatch, or an
    /// out-of-bounds index leaves the database (and its version) untouched.
    pub fn apply(&mut self, update: Update) -> Result<(u64, Vec<u64>)> {
        let name = match &update {
            Update::InsertSession { prelation, .. }
            | Update::ReplaceSession { prelation, .. }
            | Update::DeleteSession { prelation, .. } => prelation.clone(),
        };
        // New sessions must rank only catalogued items — the same check the
        // builder runs, so an updated database is always one `build` could
        // have produced.
        if let Update::InsertSession { session, .. } | Update::ReplaceSession { session, .. } =
            &update
        {
            for &item in session.model().sigma().items() {
                if item as usize >= self.num_items() {
                    return Err(PpdError::Malformed(format!(
                        "p-relation {name}: update ranks unknown item {item}"
                    )));
                }
            }
        }
        let prel = self
            .preference_relations
            .get_mut(&name)
            .ok_or_else(|| PpdError::UnknownName(format!("p-relation {name}")))?;
        let mut changed = match update {
            Update::InsertSession { session, .. } => {
                let hash = session.model_key_hash();
                prel.push(session)?;
                vec![hash]
            }
            Update::ReplaceSession { index, session, .. } => {
                let new_hash = session.model_key_hash();
                let old = prel.replace(index, session)?;
                vec![old.model_key_hash(), new_hash]
            }
            Update::DeleteSession { index, .. } => {
                let old = prel.remove(index)?;
                vec![old.model_key_hash()]
            }
        };
        changed.sort_unstable();
        changed.dedup();
        self.version += 1;
        Ok((self.version, changed))
    }
}

/// Builder for [`PpdDatabase`].
#[derive(Debug, Default)]
pub struct DatabaseBuilder {
    item_relation: Option<(Relation, String)>,
    relations: Vec<Relation>,
    preference_relations: Vec<PreferenceRelation>,
}

impl DatabaseBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DatabaseBuilder::default()
    }

    /// Sets the item relation and the name of its key column. Every item of
    /// every preference model must correspond to a tuple of this relation.
    pub fn item_relation(mut self, relation: Relation, key_column: &str) -> Self {
        self.item_relation = Some((relation, key_column.to_string()));
        self
    }

    /// Adds an ordinary relation.
    pub fn relation(mut self, relation: Relation) -> Self {
        self.relations.push(relation);
        self
    }

    /// Adds a preference relation.
    pub fn preference_relation(mut self, prel: PreferenceRelation) -> Self {
        self.preference_relations.push(prel);
        self
    }

    /// Builds the database: assigns item ids in item-relation order, derives
    /// the labeling from item attributes, and validates that preference
    /// models only rank known items.
    pub fn build(self) -> Result<PpdDatabase> {
        let (item_relation, key_column) = self
            .item_relation
            .ok_or_else(|| PpdError::Malformed("an item relation is required".into()))?;
        let item_key_column = item_relation
            .column_index(&key_column)
            .ok_or_else(|| PpdError::UnknownName(format!("key column {key_column}")))?;

        let mut item_keys = HashSet::with_capacity(item_relation.len());
        let mut interner = LabelInterner::new();
        let mut labeling = Labeling::new();
        for (idx, tuple) in item_relation.tuples().iter().enumerate() {
            let name = tuple[item_key_column].render();
            if !item_keys.insert(name.clone()) {
                return Err(PpdError::Malformed(format!(
                    "duplicate item key {name} in relation {}",
                    item_relation.name()
                )));
            }
            let item = idx as Item;
            labeling.add_item(item);
            labeling.add(item, interner.intern(&format!("@item={name}")));
            for (col, value) in item_relation.columns().iter().zip(tuple) {
                if col == &key_column || value.is_null() {
                    continue;
                }
                labeling.add(item, interner.intern(&format!("{col}={}", value.render())));
            }
        }

        let mut relations = HashMap::new();
        for r in self.relations {
            if relations.insert(r.name().to_string(), r).is_some() {
                return Err(PpdError::Malformed("duplicate relation name".into()));
            }
        }
        let mut preference_relations = HashMap::new();
        for p in self.preference_relations {
            for (si, session) in p.sessions().iter().enumerate() {
                for &item in session.model().sigma().items() {
                    if item as usize >= item_relation.len() {
                        return Err(PpdError::Malformed(format!(
                            "p-relation {} session {si} ranks unknown item {item}",
                            p.name()
                        )));
                    }
                }
            }
            if preference_relations
                .insert(p.name().to_string(), p)
                .is_some()
            {
                return Err(PpdError::Malformed("duplicate p-relation name".into()));
            }
        }

        Ok(PpdDatabase {
            item_relation,
            item_key_column,
            relations,
            preference_relations,
            interner,
            labeling,
            version: 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdb::polling_database;
    use ppd_rim::{MallowsModel, Ranking};

    #[test]
    fn labels_are_derived_from_item_attributes() {
        let db = polling_database();
        assert_eq!(db.num_items(), 4);
        let f = db.interner().get("sex=F").unwrap();
        let m = db.interner().get("sex=M").unwrap();
        assert!(db.labeling().has_label(1, f));
        assert!(db.labeling().has_label(0, m));
        assert!(!db.labeling().has_label(0, f));
        assert!(db.interner().get("sex=X").is_none());
        // Identity labels exist and are unique to their item.
        let id_label = db.interner().get("@item=Sanders").unwrap();
        assert!(db.labeling().has_label(2, id_label));
        assert!(!db.labeling().has_label(1, id_label));
        assert_eq!(
            db.item_attribute(1, "party").cloned(),
            Some(Value::from("D"))
        );
        assert_eq!(db.item_attribute(1, "nope"), None);
    }

    #[test]
    fn apply_bumps_the_version_and_reports_changed_model_hashes() {
        let mut db = polling_database();
        assert_eq!(db.version(), 1);
        let eve = crate::session::Session::new(
            vec![Value::from("Eve"), Value::from("7/5")],
            MallowsModel::new(Ranking::new(vec![3, 2, 1, 0]).unwrap(), 0.7).unwrap(),
        );
        let eve_hash = eve.model_key_hash();
        let (v, changed) = db
            .apply(Update::InsertSession {
                prelation: "Polls".into(),
                session: eve.clone(),
            })
            .unwrap();
        assert_eq!(v, 2);
        assert_eq!(db.version(), 2);
        assert_eq!(changed, vec![eve_hash]);
        assert_eq!(db.preference_relation("Polls").unwrap().num_sessions(), 4);

        // Replacing reports both the displaced and the new model hash.
        let old_hash = db.preference_relation("Polls").unwrap().sessions()[0].model_key_hash();
        let (v, changed) = db
            .apply(Update::ReplaceSession {
                prelation: "Polls".into(),
                index: 0,
                session: eve.clone(),
            })
            .unwrap();
        assert_eq!(v, 3);
        assert_eq!(changed.len(), 2);
        assert!(changed.contains(&old_hash) && changed.contains(&eve_hash));

        // Replacing a session with an identical model dedups to one hash.
        let (_, changed) = db
            .apply(Update::ReplaceSession {
                prelation: "Polls".into(),
                index: 0,
                session: eve,
            })
            .unwrap();
        assert_eq!(changed, vec![eve_hash]);

        let (v, changed) = db
            .apply(Update::DeleteSession {
                prelation: "Polls".into(),
                index: 0,
            })
            .unwrap();
        assert_eq!(v, 5);
        assert_eq!(changed, vec![eve_hash]);
        assert_eq!(db.preference_relation("Polls").unwrap().num_sessions(), 3);
    }

    #[test]
    fn invalid_updates_leave_the_database_and_version_untouched() {
        let mut db = polling_database();
        let good = crate::session::Session::new(
            vec![Value::from("Eve"), Value::from("7/5")],
            MallowsModel::new(Ranking::new(vec![0, 1, 2, 3]).unwrap(), 0.5).unwrap(),
        );
        // Unknown p-relation.
        assert!(matches!(
            db.apply(Update::InsertSession {
                prelation: "Nope".into(),
                session: good.clone(),
            }),
            Err(PpdError::UnknownName(_))
        ));
        // Session ranking an unknown item.
        let bad_items = crate::session::Session::new(
            vec![Value::from("Eve"), Value::from("7/5")],
            MallowsModel::new(Ranking::new(vec![0, 9]).unwrap(), 0.5).unwrap(),
        );
        assert!(db
            .apply(Update::InsertSession {
                prelation: "Polls".into(),
                session: bad_items,
            })
            .is_err());
        // Arity mismatch and out-of-bounds index.
        let short = crate::session::Session::new(
            vec![Value::from("Eve")],
            MallowsModel::new(Ranking::new(vec![0, 1, 2, 3]).unwrap(), 0.5).unwrap(),
        );
        assert!(db
            .apply(Update::InsertSession {
                prelation: "Polls".into(),
                session: short,
            })
            .is_err());
        assert!(db
            .apply(Update::DeleteSession {
                prelation: "Polls".into(),
                index: 99,
            })
            .is_err());
        assert_eq!(db.version(), 1, "failed updates must not bump the version");
        assert_eq!(db.preference_relation("Polls").unwrap().num_sessions(), 3);
    }

    #[test]
    fn build_rejects_unknown_items_and_duplicates() {
        let items = Relation::new(
            "Items",
            vec!["id", "kind"],
            vec![
                vec![Value::from("a"), Value::from("x")],
                vec![Value::from("b"), Value::from("y")],
            ],
        )
        .unwrap();
        // A session ranking an item id that does not exist in the catalogue.
        let bad_session = crate::session::Session::new(
            vec![Value::from("s1")],
            MallowsModel::new(Ranking::new(vec![0, 7]).unwrap(), 0.5).unwrap(),
        );
        let prel = PreferenceRelation::new("P", vec!["sid"], vec![bad_session]).unwrap();
        let err = DatabaseBuilder::new()
            .item_relation(items.clone(), "id")
            .preference_relation(prel)
            .build();
        assert!(err.is_err());

        // Duplicate item keys are rejected.
        let dup = Relation::new(
            "Items",
            vec!["id", "kind"],
            vec![
                vec![Value::from("a"), Value::from("x")],
                vec![Value::from("a"), Value::from("y")],
            ],
        )
        .unwrap();
        assert!(DatabaseBuilder::new()
            .item_relation(dup, "id")
            .build()
            .is_err());

        // Missing key column.
        assert!(DatabaseBuilder::new()
            .item_relation(items, "nope")
            .build()
            .is_err());
    }
}
