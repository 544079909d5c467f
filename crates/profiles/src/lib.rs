//! # sparker-profiles
//!
//! Data model and I/O for entity resolution: entity profiles, attribute
//! values, tokenization, dataset loaders (CSV and a minimal JSON dialect) and
//! ground-truth handling.
//!
//! An *entity profile* is the paper's unit of data: a bag of
//! attribute–value pairs describing one record of one source, with no
//! assumption that sources share a schema. A [`ProfileCollection`] bundles
//! the profiles of an ER task together with the task kind:
//!
//! * **Dirty ER** — a single source that may contain duplicates; every
//!   profile pair is comparable.
//! * **Clean–clean ER** — two individually duplicate-free sources (e.g.
//!   Abt.com vs Buy.com in the paper's demo dataset); only cross-source
//!   pairs are comparable.
//!
//! ```
//! use sparker_profiles::{Profile, ProfileCollection, SourceId};
//!
//! let p1 = Profile::builder(SourceId(0), "abt-1")
//!     .attr("name", "Sony Bravia 40in TV")
//!     .attr("price", "699.99")
//!     .build();
//! let p2 = Profile::builder(SourceId(1), "buy-7")
//!     .attr("title", "Sony BRAVIA 40\" Television")
//!     .build();
//! let coll = ProfileCollection::clean_clean(vec![p1], vec![p2]);
//! assert_eq!(coll.len(), 2);
//! assert!(coll.is_comparable(coll.profiles()[0].id, coll.profiles()[1].id));
//! ```
//!
//! ## Dictionary encoding
//!
//! Tokens are the currency of the whole blocker — blocking keys, graph
//! edges, matcher token sets. This crate therefore provides [`TokenDict`]: the
//! distinct normalized tokens of a collection interned once to dense `u32`
//! [`TokenId`]s — by [`TokenDict::build`], or by the token pass
//! [`intern_profiles`], which also returns every profile's sorted token
//! ids and runs one profile range per worker on an engine context. Ids are assigned in **lexicographic token order**,
//! so sorting by id is sorting by key string, and structures built over ids
//! come out in exactly the order their string-keyed equivalents would.
//! Downstream crates key every hot path on `TokenId` (flat counting-sort
//! buckets, CSR block graphs, merge-joined matcher token sets) and only
//! resolve ids back to strings at the edges via [`TokenDict::resolve`].
//!
//! Single-pass pipelines use [`DictBuilder`] instead of build-then-lookup:
//! it interns tokens to provisional insertion-order ids while the caller
//! streams the collection, then [`DictBuilder::finish`] sorts the
//! vocabulary and returns the permutation that turns the recorded
//! provisional ids into final lexicographic ids — one tokenization pass,
//! one hash probe per occurrence, no binary searches.
//!
//! ```
//! use sparker_profiles::{Profile, ProfileCollection, SourceId, TokenDict};
//!
//! let coll = ProfileCollection::dirty(vec![
//!     Profile::builder(SourceId(0), "a").attr("name", "Sony BRAVIA").build(),
//! ]);
//! let dict = TokenDict::build(&coll);
//! let id = dict.lookup("bravia").unwrap();
//! assert_eq!(dict.resolve(id), "bravia");
//! ```

mod attribute;
mod collection;
mod csv;
mod dict;
mod error;
mod groundtruth;
mod json;
mod pair;
mod profile;
mod spillcodec;
mod tokenize;

pub use attribute::Attribute;
pub use collection::{ErKind, ProfileCollection};
pub use csv::{parse_csv, profiles_from_csv, push_csv_row, write_csv, CsvOptions};
pub use dict::{
    intern_profile_keys, intern_profiles, DictBuilder, InternedRanges, ProfileKeys, TokenDict,
    TokenId,
};
pub use error::{Error, Result};
pub use groundtruth::GroundTruth;
pub use json::{
    parse_json, profiles_from_json_lines, profiles_from_json_lines_on, token_pass_from_json_lines,
    JsonValue,
};
pub use pair::Pair;
pub use profile::{Profile, ProfileBuilder, ProfileId, SourceId};
pub use tokenize::{each_token, tokenize, tokenize_filtered, Token};
