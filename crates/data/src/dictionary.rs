//! Dictionary encoding of `attribute = value` items.
//!
//! Transactions are sets of *items*; an item is one `(attribute, value)`
//! pair, e.g. `sex=female` or `region=north`. The dictionary interns each
//! distinct pair once and hands out dense `u32` ids, which every downstream
//! structure (FP-trees, tidset postings, cube coordinates) uses instead of
//! strings.

use scube_common::{FxHashMap, Result};

use crate::schema::AttrId;
use crate::transactions::next_id;

/// Dense id of an interned `(attribute, value)` item.
pub type ItemId = u32;

#[derive(Debug, Clone)]
struct ItemInfo {
    attr: AttrId,
    value: String,
}

/// Interning dictionary for items.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    items: Vec<ItemInfo>,
    /// `lookup[attr]`: value → id, queried by `&str`, so a lookup that hits
    /// allocates nothing.
    lookup: Vec<FxHashMap<Box<str>, ItemId>>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Intern `(attr, value)`, returning its id (existing or fresh).
    /// Errors, interning nothing, when a fresh id would not fit a `u32`.
    pub fn intern(&mut self, attr: AttrId, value: &str) -> Result<ItemId> {
        if let Some(id) = self.get(attr, value) {
            return Ok(id);
        }
        let id = next_id(self.items.len(), "dictionary items")?;
        self.items.push(ItemInfo { attr, value: value.to_string() });
        let attr = usize::from(attr);
        if self.lookup.len() <= attr {
            self.lookup.resize_with(attr + 1, FxHashMap::default);
        }
        self.lookup[attr].insert(value.into(), id);
        Ok(id)
    }

    /// Id of an already-interned item.
    pub fn get(&self, attr: AttrId, value: &str) -> Option<ItemId> {
        self.lookup.get(usize::from(attr))?.get(value).copied()
    }

    /// Attribute of an item.
    pub fn attr_of(&self, item: ItemId) -> AttrId {
        self.items[item as usize].attr
    }

    /// Value string of an item.
    pub fn value_of(&self, item: ItemId) -> &str {
        &self.items[item as usize].value
    }

    /// Number of interned items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// All items of a given attribute.
    pub fn items_of_attr(&self, attr: AttrId) -> Vec<ItemId> {
        self.items
            .iter()
            .enumerate()
            .filter(|(_, info)| info.attr == attr)
            .map(|(i, _)| i as ItemId)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern(0, "female").unwrap();
        let b = d.intern(0, "female").unwrap();
        let c = d.intern(1, "female").unwrap(); // same value, different attribute
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn reverse_lookup() {
        let mut d = Dictionary::new();
        let id = d.intern(3, "north").unwrap();
        assert_eq!(d.attr_of(id), 3);
        assert_eq!(d.value_of(id), "north");
        assert_eq!(d.get(3, "north"), Some(id));
        assert_eq!(d.get(3, "south"), None);
        assert_eq!(d.get(4, "north"), None); // an attribute with no items
    }

    #[test]
    fn items_of_attr_filters() {
        let mut d = Dictionary::new();
        let a = d.intern(0, "f").unwrap();
        let _b = d.intern(1, "x").unwrap();
        let c = d.intern(0, "m").unwrap();
        assert_eq!(d.items_of_attr(0), vec![a, c]);
    }
}
