//! Labels and labeling functions.
//!
//! Labels are values of item attributes (e.g. `sex=F`, `party=D`,
//! `genre=Thriller`). The labeling function `λ` maps every item to the finite
//! set of labels it carries. Patterns select items through conjunctions of
//! labels.

use ppd_rim::Item;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Interned identifier of a label.
pub type LabelId = u32;

/// Interns human-readable label names (e.g. `"sex=F"`) into dense
/// [`LabelId`]s, so patterns and labelings can use compact integer sets.
#[derive(Debug, Clone, Default)]
pub struct LabelInterner {
    by_name: HashMap<String, LabelId>,
    names: Vec<String>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        LabelInterner::default()
    }

    /// Interns a label name, returning its id (existing id if already known).
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.names.len() as LabelId;
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up the id of a label name without interning it.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.by_name.get(name).copied()
    }

    /// The name of a label id, if known.
    pub fn name(&self, id: LabelId) -> Option<&str> {
        self.names.get(id as usize).map(|s| s.as_str())
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when no label has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The labeling function `λ`: maps each item to the set of labels it carries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Labeling {
    labels_of: BTreeMap<Item, BTreeSet<LabelId>>,
}

impl Labeling {
    /// Creates an empty labeling (every item maps to the empty label set).
    pub fn new() -> Self {
        Labeling::default()
    }

    /// Adds a label to an item.
    pub fn add(&mut self, item: Item, label: LabelId) {
        self.labels_of.entry(item).or_default().insert(label);
    }

    /// Adds several labels to an item.
    pub fn add_all(&mut self, item: Item, labels: impl IntoIterator<Item = LabelId>) {
        self.labels_of.entry(item).or_default().extend(labels);
    }

    /// Registers an item with no labels (so it is reported by
    /// [`Labeling::items`] even if unlabeled).
    pub fn add_item(&mut self, item: Item) {
        self.labels_of.entry(item).or_default();
    }

    /// `true` when `item` carries `label`.
    pub fn has_label(&self, item: Item, label: LabelId) -> bool {
        self.labels_of
            .get(&item)
            .map(|s| s.contains(&label))
            .unwrap_or(false)
    }

    /// `true` when `item` carries every label in `labels`.
    pub(crate) fn has_all_labels(&self, item: Item, labels: &BTreeSet<LabelId>) -> bool {
        match self.labels_of.get(&item) {
            Some(set) => labels.iter().all(|l| set.contains(l)),
            None => labels.is_empty(),
        }
    }

    /// All items known to the labeling.
    pub fn items(&self) -> Vec<Item> {
        self.labels_of.keys().copied().collect()
    }

    /// Items carrying every label in `labels`, restricted to `universe`.
    pub(crate) fn matching_items(
        &self,
        universe: &[Item],
        labels: &BTreeSet<LabelId>,
    ) -> Vec<Item> {
        universe
            .iter()
            .copied()
            .filter(|&it| self.has_all_labels(it, labels))
            .collect()
    }

    /// Number of items known to the labeling.
    pub fn len(&self) -> usize {
        self.labels_of.len()
    }

    /// `true` when the labeling knows no items.
    pub fn is_empty(&self) -> bool {
        self.labels_of.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interner_roundtrip() {
        let mut interner = LabelInterner::new();
        let f = interner.intern("sex=F");
        let m = interner.intern("sex=M");
        assert_ne!(f, m);
        assert_eq!(interner.intern("sex=F"), f);
        assert_eq!(interner.get("sex=M"), Some(m));
        assert_eq!(interner.get("missing"), None);
        assert_eq!(interner.name(f), Some("sex=F"));
        assert_eq!(interner.name(99), None);
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn labeling_queries() {
        let mut lab = Labeling::new();
        lab.add(0, 1);
        lab.add(0, 2);
        lab.add(1, 2);
        lab.add_item(5);
        assert!(lab.has_label(0, 1));
        assert!(!lab.has_label(1, 1));
        assert!(!lab.has_label(42, 1));
        let both: BTreeSet<LabelId> = [1, 2].into_iter().collect();
        assert!(lab.has_all_labels(0, &both));
        assert!(!lab.has_all_labels(1, &both));
        assert!(lab.has_all_labels(42, &BTreeSet::new()));
        assert_eq!(lab.items(), vec![0, 1, 5]);
        assert_eq!(lab.matching_items(&[0, 1, 5], &both), vec![0]);
        let just_two: BTreeSet<LabelId> = [2].into_iter().collect();
        assert_eq!(lab.matching_items(&[0, 1, 5], &just_two), vec![0, 1]);
    }
}
