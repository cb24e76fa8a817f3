//! Seeded inputs: the writer's request script, the dashboard's read
//! cycle, and the tagger-session draws. Everything here is a pure
//! function of the seed, so an in-process twin can replay exactly what a
//! wire client sent.

use itag_core::project::ProjectSpec;
use itag_model::ids::{ProjectId, TagId};
use itag_model::vocab::TagsPerPost;
use itag_model::zipf::ZipfSampler;
use itag_model::DeliciousConfig;
use itag_server::proto::{DatasetSpec, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Campaigns the provider runs rounds over.
pub const CAMPAIGNS: u32 = 8;
/// Tasks per `RunRound`.
pub const ROUND_TASKS: u32 = 40;
/// Budget of each writer campaign: far beyond what any run can spend, so
/// no round comes back empty.
pub const WRITER_BUDGET: u32 = 2_000_000;
/// `MonitorTable` row limit on the dashboard.
pub const TABLE_LIMIT: u32 = 10;

/// A seed for one part of the inputs, derived from the run's seed.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    StdRng::seed_from_u64(seed ^ salt).gen()
}

/// The corpus behind writer campaign `i`.
pub fn writer_dataset(seed: u64, i: u32) -> DatasetSpec {
    DatasetSpec {
        resources: 120,
        vocab: 300,
        initial_posts: 360,
        eval_posts: 240,
        taggers: 24,
        seed: sub_seed(seed, 0x5eed_0000 + i as u64),
    }
}

/// The writer's setup: one provider account and its campaigns. Provider
/// and project ids are assigned in order from 0 on a fresh engine.
pub fn writer_setup(seed: u64) -> Vec<Request> {
    let mut script = vec![Request::RegisterProvider {
        name: "bench-provider".into(),
    }];
    script.extend((0..CAMPAIGNS).map(|i| Request::CreateProject {
        provider: 0,
        spec: ProjectSpec::demo(&format!("campaign-{i}"), WRITER_BUDGET),
        dataset: writer_dataset(seed, i),
        audience: false,
    }));
    script
}

/// The `k`-th round of the writer: round-robin over the campaigns.
pub fn writer_round(k: u64) -> Request {
    Request::RunRound {
        project: ProjectId((k % CAMPAIGNS as u64) as u32),
        max_tasks: ROUND_TASKS,
    }
}

/// The writer's full script for `rounds` rounds.
#[cfg(test)]
pub fn writer_script(seed: u64, rounds: u64) -> Vec<Request> {
    let mut script = writer_setup(seed);
    script.extend((0..rounds).map(writer_round));
    script
}

/// The `k`-th dashboard read: the verb cycles fastest, then the campaign.
pub fn dashboard_read(k: u64) -> Request {
    let project = ProjectId(((k / 4) % CAMPAIGNS as u64) as u32);
    match k % 4 {
        0 => Request::Monitor { project },
        1 => Request::MonitorTable {
            project,
            limit: TABLE_LIMIT,
        },
        2 => Request::BrowseProjects,
        _ => Request::ExportCsv { project },
    }
}

/// Tagger-session sizing.
pub const POPULATION: u32 = 600_000;
pub const AUDIENCE_RESOURCES: u32 = 2_000;
pub const AUDIENCE_VOCAB: u32 = 500;
pub const AUDIENCE_BUDGET: u32 = 50_000_000;
/// Tasks each session pulls.
pub const PULL: u32 = 4;
/// Sessions between two provider-side `Collect`s.
pub const COLLECT_EVERY: u64 = 4;

pub fn audience_setup(seed: u64) -> Vec<Request> {
    vec![
        Request::RegisterProvider {
            name: "audience-provider".into(),
        },
        Request::CreateProject {
            provider: 0,
            spec: ProjectSpec::demo("audience", AUDIENCE_BUDGET),
            dataset: DatasetSpec {
                resources: AUDIENCE_RESOURCES,
                vocab: AUDIENCE_VOCAB,
                initial_posts: 4_000,
                eval_posts: 0,
                taggers: 64,
                seed: sub_seed(seed, 0xa0d1),
            },
            audience: true,
        },
        Request::PublishBatch {
            project: ProjectId(0),
            want: (2 * PULL as u64 * COLLECT_EVERY) as u32,
        },
    ]
}

/// The seeded draws of one tagger session.
pub struct SessionDraws {
    /// The registered tagger whose reputation the session looks up.
    pub peer: u32,
    /// Tags for each pulled task, Zipf over the campaign vocabulary.
    pub tags: Vec<Vec<TagId>>,
}

/// Draws tagger sessions with the statistics of the corpus they are scored
/// against: tags and post sizes come from the generator's own defaults
/// (`DeliciousConfig::default()`). Tagger activity is heavy-tailed in
/// tagging systems (Liu et al., *Self-organization in social tagging
/// systems*), but no exponent for it is on record here, so peers are drawn
/// with the generator's popularity exponent (≈1, Golder & Huberman).
pub struct SessionPlan {
    rng: StdRng,
    peers: ZipfSampler,
    tags: ZipfSampler,
    post_size: TagsPerPost,
}

impl SessionPlan {
    pub fn new(seed: u64) -> Self {
        let corpus = DeliciousConfig::default();
        SessionPlan {
            rng: StdRng::seed_from_u64(seed ^ 0x7a66),
            peers: ZipfSampler::new(POPULATION as usize, corpus.popularity_exponent),
            tags: ZipfSampler::new(AUDIENCE_VOCAB as usize, corpus.tag_exponent),
            post_size: corpus.tags_per_post,
        }
    }

    pub fn next(&mut self) -> SessionDraws {
        let peer = self.peers.sample(&mut self.rng) as u32;
        let tags = (0..PULL)
            .map(|_| {
                let n = self.post_size.sample(&mut self.rng);
                let mut t: Vec<TagId> = (0..n)
                    .map(|_| TagId(self.tags.sample(&mut self.rng) as u32))
                    .collect();
                t.sort();
                t.dedup();
                t
            })
            .collect();
        SessionDraws { peer, tags }
    }
}

/// Wire name of a request's verb.
pub fn verb(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "Hello",
        Request::Ping => "Ping",
        Request::RegisterProvider { .. } => "RegisterProvider",
        Request::CreateProject { .. } => "CreateProject",
        Request::PublishBatch { .. } => "PublishBatch",
        Request::RunRound { .. } => "RunRound",
        Request::Collect { .. } => "Collect",
        Request::Monitor { .. } => "Monitor",
        Request::MonitorTable { .. } => "MonitorTable",
        Request::ResourceDetail { .. } => "ResourceDetail",
        Request::AddBudget { .. } => "AddBudget",
        Request::SwitchStrategy { .. } => "SwitchStrategy",
        Request::StopProject { .. } => "StopProject",
        Request::ExportCsv { .. } => "ExportCsv",
        Request::ExportDownload { .. } => "ExportDownload",
        Request::RegisterTagger { .. } => "RegisterTagger",
        Request::BrowseProjects => "BrowseProjects",
        Request::PullTasks { .. } => "PullTasks",
        Request::SubmitPost { .. } => "SubmitPost",
        Request::Reputation { .. } => "Reputation",
        Request::Checksum => "Checksum",
        Request::Quit => "Quit",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_scripts_are_deterministic_in_the_seed() {
        assert_eq!(writer_script(7, 50), writer_script(7, 50));
        assert_ne!(writer_script(7, 50), writer_script(8, 50));
        // A longer run replays the shorter run's script as its prefix.
        let long = writer_script(7, 80);
        assert_eq!(
            &long[..writer_script(7, 50).len()],
            &writer_script(7, 50)[..]
        );
        let reads: Vec<Request> = (0..64).map(dashboard_read).collect();
        assert_eq!(reads, (0..64).map(dashboard_read).collect::<Vec<_>>());
    }

    #[test]
    fn session_draws_are_deterministic_in_the_seed() {
        let draw = |seed| {
            let mut plan = SessionPlan::new(seed);
            (0..200)
                .map(|_| {
                    let d = plan.next();
                    (d.peer, d.tags)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        assert_eq!(audience_setup(3), audience_setup(3));
    }
}
