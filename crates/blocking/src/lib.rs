//! # sparker-blocking
//!
//! The first half of SparkER's blocker: schema-agnostic Token Blocking plus
//! the block-collection cleaning steps (Block Purging and Block Filtering)
//! that the paper applies before meta-blocking.
//!
//! * [`token_blocking`] — every token appearing anywhere in a profile is a
//!   blocking key (Figure 1(b) of the paper). Runs on the interned fast
//!   path: tokens are mapped to dense `TokenId`s once and blocks are built
//!   by counting sort into a CSR-packed [`CompactBlocks`]
//!   ([`token_blocking_pass`] is that path with the tokenization split over
//!   an engine context's workers, returning the per-profile token ids too;
//!   [`TokenBlocks::from_pass`] builds from a token pass taken while
//!   loading; [`token_blocking_string`] is the original map-based
//!   reference).
//! * [`keyed_blocking`] — the generalization used by Blast's loose-schema
//!   blocking, where the caller derives the keys (token ⧺ attribute-partition
//!   id, Figure 2(b)); [`keyed_blocking_pass`] is its CSR key pass.
//! * [`purge_oversized`] — Block Purging: drop blocks containing more than
//!   half of all profiles (stop-word-like keys); [`purge_by_comparison_level`]
//!   picks the cap from the block-size distribution ([`PurgeConfig`]).
//! * [`block_filtering`] — Block Filtering: remove each profile from the
//!   largest 20 % of the blocks it appears in.
//! * [`CompactBlocks::clean`] — both cleaning steps in one pass over the CSR
//!   blocks, identical to the string-keyed functions above (which stay as
//!   its oracle).
//! * [`dataflow`] — the same operators expressed on the
//!   [`sparker_dataflow`] engine, mirroring SparkER's Spark implementation.
//!
//! ```
//! use sparker_profiles::{Profile, ProfileCollection, SourceId};
//! use sparker_blocking::token_blocking;
//!
//! let coll = ProfileCollection::clean_clean(
//!     vec![Profile::builder(SourceId(0), "1").attr("title", "Blast meta-blocking").build()],
//!     vec![Profile::builder(SourceId(1), "2").attr("name", "BLAST").build()],
//! );
//! let blocks = token_blocking(&coll);
//! assert_eq!(blocks.len(), 1); // only "blast" co-occurs
//! assert_eq!(blocks.total_comparisons(), 1);
//! ```

mod block;
mod collection;
mod csr;
pub mod dataflow;
mod filtering;
mod purging;
mod tokenblocking;

pub use block::{Block, BlockId};
pub use collection::{BlockCollection, ProfileBlocksIndex};
pub use csr::{BlockSizes, CompactBlocks};
pub use filtering::block_filtering;
pub use purging::{purge_by_comparison_level, purge_oversized, PurgeCap, PurgeConfig};
pub use sparker_profiles::ProfileKeys;
pub use tokenblocking::{
    keyed_blocking, keyed_blocking_pass, keyed_blocking_string, token_blocking,
    token_blocking_pass, token_blocking_string, token_blocking_with_dict,
    token_blocking_with_dict_budgeted, TokenBlocks,
};
