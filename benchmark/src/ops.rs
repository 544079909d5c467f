//! The op sequence of a resolver workload, shared by the HTTP clients of
//! the untraced run and the in-process replay of the traced run.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparker_profiles::Profile;

use crate::data::{self, Truth};
use crate::spec::{Mix, Workload, CLIENTS};

/// A dataset split for a resolver: the warm set that is resident before
/// measuring and the held-out profiles that inserts draw from.
pub struct Plan {
    pub warm: Vec<Profile>,
    pub held: Vec<Profile>,
    pub truth: Truth,
}

impl Plan {
    /// The first `w.warm` profiles of the workload's dataset are warm, the
    /// rest held out.
    pub fn generate(w: &Workload, seed: u64) -> Plan {
        let (mut profiles, truth) = data::generate(w, seed);
        let held = profiles.split_off(w.warm.min(profiles.len()));
        Plan {
            warm: profiles,
            held,
            truth,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// `GET /clusters/{id}` of warm profile `.0`.
    Query(usize),
    /// `POST /profiles` of held-out profile `.0`.
    Insert(usize),
    /// `POST /profiles` re-posting warm profile `.0` at revision `.1`.
    Update(usize, usize),
}

/// One client's op sequence. Client `c` inserts held-out profiles and
/// updates warm profiles whose index is `c` modulo [`CLIENTS`], so what the
/// collection ends up holding does not depend on how clients interleave.
pub struct OpStream {
    rng: StdRng,
    mix: Mix,
    client: usize,
    warm: usize,
    held: usize,
    next_held: usize,
    revision: usize,
}

impl OpStream {
    pub fn new(plan: &Plan, mix: Mix, seed: u64, client: usize) -> OpStream {
        OpStream {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(CLIENTS as u64 + 1) + client as u64),
            mix,
            client,
            warm: plan.warm.len(),
            held: plan.held.len(),
            next_held: client,
            revision: 0,
        }
    }

    pub fn next_op(&mut self) -> Op {
        if !self.rng.gen_bool(self.mix.write_share) {
            return Op::Query(self.rng.gen_range(0..self.warm));
        }
        // An exhausted held-out pool turns further inserts into updates.
        if self.next_held >= self.held || self.rng.gen_bool(self.mix.update_share) {
            let owned = (self.warm - self.client).div_ceil(CLIENTS);
            self.revision += 1;
            let index = self.client + CLIENTS * self.rng.gen_range(0..owned);
            return Op::Update(index, self.revision);
        }
        let index = self.next_held;
        self.next_held += CLIENTS;
        Op::Insert(index)
    }
}

/// The writes one client has had acknowledged, i.e. its part of the final
/// collection.
#[derive(Default)]
pub struct Applied {
    pub inserted: Vec<usize>,
    /// Warm index → latest revision posted.
    pub updated: HashMap<usize, usize>,
}

impl Applied {
    pub fn record(&mut self, op: Op) {
        match op {
            Op::Query(_) => {}
            Op::Insert(i) => self.inserted.push(i),
            Op::Update(i, rev) => {
                self.updated.insert(i, rev);
            }
        }
    }
}

/// The profile a write posts.
pub fn written(plan: &Plan, op: Op) -> Option<Profile> {
    match op {
        Op::Query(_) => None,
        Op::Insert(i) => Some(plan.held[i].clone()),
        Op::Update(i, rev) => Some(data::edited(&plan.warm[i], rev)),
    }
}

/// The collection a resolver holds after `applied`: the warm set with the
/// latest revisions in place, then each client's inserts.
pub fn final_collection(plan: &Plan, applied: &[Applied]) -> Vec<Profile> {
    let mut out = plan.warm.clone();
    for a in applied {
        for (&i, &rev) in &a.updated {
            out[i] = data::edited(&plan.warm[i], rev);
        }
    }
    for a in applied {
        out.extend(a.inserted.iter().map(|&i| plan.held[i].clone()));
    }
    out
}
