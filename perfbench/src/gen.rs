//! Seeded inputs. Everything the runtime sees is made here from the
//! seed, before or outside the timed region, and checked against a
//! sequential reference afterwards.

use crate::util::{mix, Rng};

/// Stream ids, so each input family draws from its own sequence.
pub const STREAM_ECHO: u64 = 1;
pub const STREAM_TREE: u64 = 2;
pub const STREAM_OBJECTS: u64 = 3;
pub const STREAM_SCRIPT: u64 = 4;

/// The input of echo request `id`, derived from the seed alone, so a
/// reply can be checked without keeping the request.
pub fn echo_input(seed: u64, id: u64) -> u64 {
    mix(mix(seed ^ STREAM_ECHO) ^ mix(id))
}

/// What the echo action returns for `(id, x)`; the caller checks it.
pub fn echo_of(id: u64, x: u64) -> u64 {
    mix(x ^ id.rotate_left(17))
}

/// An unbalanced tree in compressed form. Node 0 is the root; node
/// `i > 0` hangs under a parent drawn as `floor(i * u^2)`, so early
/// nodes collect many children (the root about `2 * sqrt(n)`) and the
/// depth stays near `ln(n) / 2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    /// `children[first[p]..first[p + 1]]` are the children of `p`.
    first: Vec<u32>,
    children: Vec<u32>,
    pub weight: Vec<u64>,
    /// Whether a node is spawned at the other locality (about 1 in 8).
    pub remote: Vec<bool>,
}

impl Tree {
    pub fn generate(seed: u64, nodes: usize) -> Tree {
        assert!(nodes >= 1 && nodes < u32::MAX as usize);
        let mut rng = Rng::stream(seed, STREAM_TREE);
        let mut parent = vec![0u32; nodes];
        let mut weight = Vec::with_capacity(nodes);
        let mut remote = Vec::with_capacity(nodes);
        for (i, p) in parent.iter_mut().enumerate() {
            let u = rng.unit();
            *p = ((i as f64) * u * u) as u32;
            weight.push(rng.next_u64() >> 8);
            remote.push(i > 0 && rng.below(8) == 0);
        }
        let mut first = vec![0u32; nodes + 1];
        for &p in &parent[1..] {
            first[p as usize + 1] += 1;
        }
        for i in 0..nodes {
            first[i + 1] += first[i];
        }
        let mut fill = first.clone();
        let mut children = vec![0u32; nodes - 1];
        for (i, &p) in parent.iter().enumerate().skip(1) {
            children[fill[p as usize] as usize] = i as u32;
            fill[p as usize] += 1;
        }
        Tree {
            first,
            children,
            weight,
            remote,
        }
    }

    pub fn len(&self) -> usize {
        self.weight.len()
    }

    pub fn children(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.children[self.first[n] as usize..self.first[n + 1] as usize]
    }

    /// The reference answer: the wrapping sum of every weight, walked
    /// sequentially the way the parallel version combines it.
    pub fn sequential_sum(&self) -> u64 {
        let mut stack = vec![0u32];
        let mut sum = 0u64;
        while let Some(n) = stack.pop() {
            sum = sum.wrapping_add(self.weight[n as usize]);
            stack.extend_from_slice(self.children(n));
        }
        sum
    }

    pub fn depth(&self) -> usize {
        let mut depth = vec![0usize; self.len()];
        for p in 0..self.len() as u32 {
            for &c in self.children(p) {
                depth[c as usize] = depth[p as usize] + 1;
            }
        }
        depth.into_iter().max().unwrap_or(0)
    }
}

/// One step of the migration script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Object migrated to the other rank.
    pub migrate: usize,
    /// A different object, then accessed by an action.
    pub access: usize,
    /// Whether the access is relayed through rank 1.
    pub relay: bool,
    /// Whether the step also resolves the process-scoped name.
    pub lookup: bool,
}

/// The object contents: `objects` blobs of `bytes` each.
pub fn objects(seed: u64, objects: usize, bytes: usize) -> Vec<Vec<u8>> {
    let mut rng = Rng::stream(seed, STREAM_OBJECTS);
    (0..objects)
        .map(|_| (0..bytes).map(|_| rng.next_u64() as u8).collect())
        .collect()
}

/// An endless, seeded migration script over `objects` objects.
pub struct Script {
    rng: Rng,
    objects: usize,
    step: u64,
}

impl Script {
    pub fn new(seed: u64, objects: usize) -> Script {
        assert!(objects >= 2);
        Script {
            rng: Rng::stream(seed, STREAM_SCRIPT),
            objects,
            step: 0,
        }
    }
}

impl Iterator for Script {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let n = self.objects as u64;
        let migrate = self.rng.below(n);
        let access = (migrate + 1 + self.rng.below(n - 1)) % n;
        let relay = self.rng.below(2) == 1;
        self.step += 1;
        Some(Step {
            migrate: migrate as usize,
            access: access as usize,
            relay,
            lookup: self.step.is_multiple_of(8),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(Tree::generate(11, 5000), Tree::generate(11, 5000));
        assert_ne!(Tree::generate(11, 5000), Tree::generate(12, 5000));
        assert_eq!(objects(3, 4, 16), objects(3, 4, 16));
        assert_ne!(objects(3, 4, 16), objects(4, 4, 16));
        let a: Vec<Step> = Script::new(9, 32).take(100).collect();
        let b: Vec<Step> = Script::new(9, 32).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn tree_is_a_tree() {
        let t = Tree::generate(5, 20_000);
        let mut seen = vec![false; t.len()];
        let mut stack = vec![0u32];
        while let Some(n) = stack.pop() {
            assert!(!seen[n as usize], "node reached twice");
            seen[n as usize] = true;
            stack.extend_from_slice(t.children(n));
        }
        assert!(
            seen.iter().all(|&s| s),
            "every node reachable from the root"
        );
        let remote = t.remote.iter().filter(|&&r| r).count();
        assert!(
            (1500..3500).contains(&remote),
            "about 1 in 8 remote: {remote}"
        );
        assert!(t.children(0).len() > 100, "unbalanced: a bushy root");
        assert!(t.depth() > 4);
        let sum = t.weight.iter().fold(0u64, |a, &w| a.wrapping_add(w));
        assert_eq!(t.sequential_sum(), sum);
    }

    #[test]
    fn script_steps_are_well_formed() {
        for s in Script::new(1, 32).take(1000) {
            assert_ne!(s.migrate, s.access);
            assert!(s.migrate < 32 && s.access < 32);
        }
        let lookups = Script::new(1, 32).take(64).filter(|s| s.lookup).count();
        assert_eq!(lookups, 8, "every 8th step resolves the name");
        let relays = Script::new(1, 32).take(1000).filter(|s| s.relay).count();
        assert!((400..600).contains(&relays), "about half relayed");
    }

    #[test]
    fn echo_is_not_the_identity() {
        assert_ne!(echo_of(1, 5), 5);
        assert_ne!(echo_of(1, 5), echo_of(2, 5));
    }
}
