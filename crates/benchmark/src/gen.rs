//! Everything `--seed` drives: the stacked programs of `compile_catalogue`,
//! the order kernels run in, and the request schedule of `daemon_mix`.
//! The same seed gives byte-identical programs and schedules; the program
//! under test only ever sees what is generated here.

use ss_interp::json;
use ss_npb::{study_kernels, StudyKernel};

/// SplitMix64: small, seedable, and the same on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so two uses of one
    /// seed (programs, schedules) do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `source` with `suffix` appended to every identifier (keywords kept), so
/// copies of one kernel can share a program without sharing a variable.
pub fn suffix_identifiers(source: &str, suffix: &str) -> String {
    const KEYWORDS: [&str; 6] = ["int", "long", "for", "while", "if", "else"];
    let mut out = String::with_capacity(source.len() * 2);
    let mut chars = source.char_indices().peekable();
    while let Some((start, c)) = chars.next() {
        if c.is_ascii_alphabetic() || c == '_' {
            let mut end = start + c.len_utf8();
            while let Some(&(i, n)) = chars.peek() {
                if n.is_ascii_alphanumeric() || n == '_' {
                    end = i + n.len_utf8();
                    chars.next();
                } else {
                    break;
                }
            }
            let word = &source[start..end];
            out.push_str(word);
            if !KEYWORDS.contains(&word) {
                out.push_str(suffix);
            }
        } else if c.is_ascii_digit() {
            // A number (or its trailing letters) is not an identifier.
            out.push(c);
            while let Some(&(_, n)) = chars.peek() {
                if n.is_ascii_alphanumeric() || n == '_' {
                    out.push(n);
                    chars.next();
                } else {
                    break;
                }
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// One input program of a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Name the program is compiled and reported under.
    pub name: String,
    /// Mini-C source text.
    pub source: String,
    /// The catalogue kernels (or benchmark-owned programs) the source is
    /// made of, in order: the per-loop verdict oracle is their expected
    /// verdicts concatenated.
    pub parts: Vec<String>,
}

/// The benchmark-owned programs (`programs/*.c`).
pub const OWNED_PROGRAMS: [(&str, &str); 2] = [
    ("spmv_iter", include_str!("../programs/spmv_iter.c")),
    ("sptrsv_iter", include_str!("../programs/sptrsv_iter.c")),
];

/// A catalogue kernel or benchmark-owned program by name.
pub fn named_program(name: &str) -> Option<Program> {
    let source = study_kernels()
        .into_iter()
        .find(|k| k.name == name)
        .map(|k| k.source)
        .or_else(|| {
            OWNED_PROGRAMS
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, s)| *s)
        })?;
    Some(Program {
        name: name.to_string(),
        source: source.to_string(),
        parts: vec![name.to_string()],
    })
}

/// Catalogue kernels (by index) each stacked program is made of: 2, 4 and 8
/// copies, so program size varies ~8x over the set.  The composition is
/// fixed so that the work is the same for every seed; the seed decides the
/// order of the copies and the identifier suffixes.
pub const STACKS: [&[usize]; 6] = [
    &[0, 1],
    &[2, 3],
    &[4, 5, 6, 7],
    &[8, 9, 10, 11],
    &[0, 2, 4, 6, 8, 10, 12, 14],
    &[1, 3, 5, 7, 9, 11, 13, 14],
];

/// Stacked program `tag`: its kernels concatenated in seeded order,
/// identifiers suffixed per copy.
pub fn stacked_program(rng: &mut Rng, catalogue: &[StudyKernel], tag: usize) -> Program {
    let mut kernels: Vec<&StudyKernel> = STACKS[tag].iter().map(|&i| &catalogue[i]).collect();
    rng.shuffle(&mut kernels);
    let salt = rng.below(1000);
    let mut source = String::new();
    for (copy, kernel) in kernels.iter().enumerate() {
        source.push_str(&suffix_identifiers(
            kernel.source,
            &format!("_s{salt}c{copy}"),
        ));
        source.push('\n');
    }
    Program {
        name: format!("stack{}_{tag}", kernels.len()),
        source,
        parts: kernels.iter().map(|k| k.name.to_string()).collect(),
    }
}

/// The fixed program set of `compile_catalogue`: the 15 catalogue kernels
/// plus the six stacked programs of [`STACKS`].
pub fn compile_set(seed: u64) -> Vec<Program> {
    let catalogue = study_kernels();
    let mut rng = Rng::new(seed, 1);
    let mut set: Vec<Program> = catalogue
        .iter()
        .map(|k| named_program(k.name).expect("catalogue kernel"))
        .collect();
    for tag in 0..STACKS.len() {
        set.push(stacked_program(&mut rng, &catalogue, tag));
    }
    set
}

/// What a `daemon_mix` request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `analyze` of a catalogue kernel the tenant has cached.
    AnalyzeHit,
    /// `analyze` of a unique inline source: always compiles.
    AnalyzeMiss,
    /// `run` of a catalogue kernel at a small scale, final heap included.
    Run,
    /// `stats` or `engines`.
    Meta,
}

impl Kind {
    /// Row label in reports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::AnalyzeHit => "analyze_hit",
            Kind::AnalyzeMiss => "analyze_miss",
            Kind::Run => "run",
            Kind::Meta => "meta",
        }
    }
}

/// One scheduled request, before its line is rendered.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// What the request exercises.
    pub kind: Kind,
    /// Catalogue kernel (`stats`/`engines` for [`Kind::Meta`]).
    pub target: String,
}

/// Requests per block: 8 analyze hits, 3 misses, 8 runs, 1 stats/engines —
/// the 40 / 15 / 40 / 5 % mix, exactly, in every block.
pub const BLOCK: usize = 20;

/// The block connection `conn` replays every round.  What is asked for is
/// the same for every seed and connection — hits on catalogue kernels 0–7,
/// misses derived from kernels 8–10, runs of kernels 7–14 — so the work is
/// too; the seed decides the order.
pub fn request_block(seed: u64, conn: usize) -> Vec<RequestSpec> {
    let catalogue = study_kernels();
    let of = |kind: Kind, kernels: std::ops::Range<usize>| {
        kernels
            .map(|i| RequestSpec {
                kind,
                target: catalogue[i].name.to_string(),
            })
            .collect::<Vec<_>>()
    };
    let mut block = of(Kind::AnalyzeHit, 0..8);
    block.extend(of(Kind::AnalyzeMiss, 8..11));
    block.extend(of(Kind::Run, 7..15));
    block.push(RequestSpec {
        kind: Kind::Meta,
        target: if conn.is_multiple_of(2) {
            "stats"
        } else {
            "engines"
        }
        .to_string(),
    });
    debug_assert_eq!(block.len(), BLOCK);
    Rng::new(seed, 100 + conn as u64).shuffle(&mut block);
    block
}

/// The request line for `spec`.  `unique` makes a miss's source (and name)
/// one the daemon has never seen; `seed` and `scale` are a run's input seed
/// and scale.
pub fn request_line(
    spec: &RequestSpec,
    unique: u64,
    seed: u64,
    threads: usize,
    scale: i64,
) -> String {
    match spec.kind {
        Kind::AnalyzeHit => json::object([
            ("op", json::string("analyze")),
            ("kernel", json::string(&spec.target)),
        ]),
        Kind::AnalyzeMiss => {
            let kernel = named_program(&spec.target).expect("catalogue kernel");
            json::object([
                ("op", json::string("analyze")),
                ("name", json::string(&format!("miss{unique}"))),
                (
                    "source",
                    json::string(&suffix_identifiers(&kernel.source, &format!("_u{unique}"))),
                ),
            ])
        }
        Kind::Run => json::object([
            ("op", json::string("run")),
            ("kernel", json::string(&spec.target)),
            ("scale", scale.to_string()),
            ("seed", (seed % (1 << 31)).to_string()),
            ("threads", threads.to_string()),
            ("include_heap", "true".to_string()),
        ]),
        Kind::Meta => json::object([("op", json::string(&spec.target))]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suffixing_renames_identifiers_only() {
        assert_eq!(
            suffix_identifiers("for (i = 0; i < n1; i++) { a[i] = 2*x_y + 10; }", "_c0"),
            "for (i_c0 = 0; i_c0 < n1_c0; i_c0++) { a_c0[i_c0] = 2*x_y_c0 + 10; }"
        );
        assert_eq!(
            suffix_identifiers("int t[4]; if (t) {} else {}", "_k"),
            "int t_k[4]; if (t_k) {} else {}"
        );
    }

    #[test]
    fn same_seed_same_programs_and_schedule() {
        assert_eq!(compile_set(7), compile_set(7));
        assert_ne!(compile_set(7), compile_set(8));
        let lines = |seed: u64| -> Vec<String> {
            (0..2)
                .flat_map(|conn| {
                    request_block(seed, conn)
                        .iter()
                        .enumerate()
                        .map(|(i, spec)| request_line(spec, i as u64, seed, 2, 128))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
    }

    #[test]
    fn every_block_has_the_exact_mix() {
        for conn in 0..4 {
            let block = request_block(3, conn);
            assert_eq!(block.len(), BLOCK);
            let count = |k: Kind| block.iter().filter(|s| s.kind == k).count();
            assert_eq!(
                (
                    count(Kind::AnalyzeHit),
                    count(Kind::AnalyzeMiss),
                    count(Kind::Run),
                    count(Kind::Meta)
                ),
                (8, 3, 8, 1)
            );
        }
    }

    #[test]
    fn request_lines_parse_as_daemon_requests() {
        for (i, spec) in request_block(5, 0).iter().enumerate() {
            let line = request_line(spec, i as u64, 5, 2, 128);
            ss_daemon::protocol::parse_request(&line).expect("well-formed request");
        }
    }

    #[test]
    fn program_set_spans_the_size_range() {
        let set = compile_set(1);
        assert_eq!(set.len(), 15 + STACKS.len());
        assert_eq!(set.last().unwrap().parts.len(), 8);
        let bytes = |p: &Program| p.source.len();
        assert!(bytes(set.last().unwrap()) > 6 * set[..15].iter().map(bytes).min().unwrap());
        assert!(named_program("spmv_iter").is_some());
        assert!(named_program("no_such_kernel").is_none());
    }
}
