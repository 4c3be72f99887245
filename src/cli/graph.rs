//! The structure and path commands: `dbr sequence`, `census`,
//! `average`, `multipath`, `gdb` and `disjoint`.

use std::fmt::Write as _;

use debruijn_analysis::{average, Table};
use debruijn_core::{directed_average_distance, routing};
use debruijn_graph::{census, diameter, euler, DebruijnGraph};

use super::args::{number, Args};
use super::{parse_pair, parse_radix, space_of, USAGE};

/// `dbr sequence <d> <n> [--prefer-largest]`: a de Bruijn sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Digit radix.
    pub d: u8,
    /// Window length.
    pub n: usize,
    /// Use Martin's greedy generator instead of Hierholzer.
    pub prefer_largest: bool,
}

impl Sequence {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let args = Args::split(rest, USAGE, "sequence")?;
        let [d, n] = args.positional("sequence <d> <n>")?;
        Ok(Self {
            d: parse_radix(d)?,
            n: number(n, "n")?,
            prefer_largest: args.switch("--prefer-largest"),
        })
    }

    /// Prints the sequence, dot-separated for `d > 10`.
    pub fn run(&self) -> Result<String, String> {
        let (d, n) = (self.d, self.n);
        if d < 2 || n < 1 {
            return Err("sequence requires d >= 2 and n >= 1".into());
        }
        if (d as u128)
            .checked_pow(n as u32)
            .is_none_or(|v| v > 1 << 24)
        {
            return Err("sequence too long to print (d^n > 2^24)".into());
        }
        let seq = if self.prefer_largest {
            euler::de_bruijn_sequence_prefer_largest(d, n)
        } else {
            euler::de_bruijn_sequence(d, n)
        };
        let rendered: Vec<String> = seq.iter().map(u8::to_string).collect();
        let sep = if d > 10 { "." } else { "" };
        Ok(format!("{}\n", rendered.join(sep)))
    }
}

/// `dbr census <d> <k>`: sizes, diameters and degree histograms of the
/// directed and undirected `DG(d,k)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Census {
    /// Digit radix.
    pub d: u8,
    /// Word length.
    pub k: usize,
}

impl Census {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let [d, k] = Args::split(rest, USAGE, "census")?.positional("census <d> <k>")?;
        Ok(Self {
            d: parse_radix(d)?,
            k: number(k, "k")?,
        })
    }

    /// Prints the census table.
    pub fn run(&self) -> Result<String, String> {
        let (d, k) = (self.d, self.k);
        let space = space_of(d, k)?;
        let dg = DebruijnGraph::directed(space).map_err(|e| format!("cannot materialize: {e}"))?;
        let ug =
            DebruijnGraph::undirected(space).map_err(|e| format!("cannot materialize: {e}"))?;
        let dc = census::census(&dg);
        let uc = census::census(&ug);
        let mut out = String::new();
        writeln!(out, "DG({d},{k}): {} vertices", dc.nodes).expect("write");
        writeln!(
            out,
            "directed:   {} arcs, diameter {}",
            dc.edges,
            diameter::diameter(&dg)
        )
        .expect("write");
        writeln!(
            out,
            "undirected: {} edges, diameter {}",
            uc.edges,
            diameter::diameter(&ug)
        )
        .expect("write");
        let mut t = Table::new(vec![
            "degree".into(),
            "directed".into(),
            "undirected".into(),
        ]);
        let degrees: std::collections::BTreeSet<usize> = dc
            .degree_histogram
            .keys()
            .chain(uc.degree_histogram.keys())
            .copied()
            .collect();
        let count = |h: &std::collections::BTreeMap<usize, usize>, deg| {
            h.get(&deg).copied().unwrap_or(0).to_string()
        };
        for deg in degrees {
            t.row(vec![
                deg.to_string(),
                count(&dc.degree_histogram, deg),
                count(&uc.degree_histogram, deg),
            ]);
        }
        write!(out, "{t}").expect("write to string");
        Ok(out)
    }
}

/// `dbr average <d> <k> [--directed] [--samples N]`: the average
/// distance, exact or sampled, with Eq. (5)'s approximation when
/// directed.
#[derive(Debug, Clone, PartialEq)]
pub struct Average {
    /// Digit radix.
    pub d: u8,
    /// Word length.
    pub k: usize,
    /// Directed instead of undirected average.
    pub directed: bool,
    /// Monte-Carlo sample count (0 = exact enumeration).
    pub samples: usize,
}

impl Average {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let args = Args::split(rest, USAGE, "average")?;
        let [d, k] = args.positional("average <d> <k>")?;
        Ok(Self {
            d: parse_radix(d)?,
            k: number(k, "k")?,
            directed: args.switch("--directed"),
            samples: args.num("--samples")?.unwrap_or(0),
        })
    }

    /// Prints the average, then the Eq. (5) line when directed.
    pub fn run(&self) -> Result<String, String> {
        let space = space_of(self.d, self.k)?;
        let value = if self.samples > 0 {
            average::sampled(space, self.directed, self.samples, 0xC11)
        } else if self.directed {
            average::exact_directed(space)
        } else {
            average::exact_undirected(space)
        };
        let mut out = format!("{value:.6}\n");
        if self.directed {
            writeln!(
                out,
                "Eq.(5) approximation: {:.6}",
                directed_average_distance(self.d, self.k)
            )
            .expect("write to string");
        }
        Ok(out)
    }
}

/// `dbr multipath <d> <X> <Y>` and `dbr disjoint <d> <X> <Y>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Endpoints {
    /// Digit radix.
    pub d: u8,
    /// Source address text.
    pub x: String,
    /// Destination address text.
    pub y: String,
}

impl Endpoints {
    /// Parses the arguments of `dbr <cmd>`, `cmd` being `multipath` or
    /// `disjoint`.
    pub(super) fn parse(cmd: &str, rest: &[&str]) -> Result<Self, String> {
        let [d, x, y] = Args::split(rest, USAGE, cmd)?.positional(&format!("{cmd} <d> <X> <Y>"))?;
        Ok(Self {
            d: parse_radix(d)?,
            x: x.to_string(),
            y: y.to_string(),
        })
    }

    /// `dbr multipath`: every distinct shortest route.
    pub fn multipath(&self) -> Result<String, String> {
        let (x, y) = parse_pair(self.d, &self.x, &self.y)?;
        let routes = routing::all_shortest_routes(&x, &y);
        let mut out = format!(
            "{} shortest route(s) of length {}:\n",
            routes.len(),
            routes[0].len()
        );
        for r in &routes {
            writeln!(out, "  {r}").expect("write");
        }
        Ok(out)
    }

    /// `dbr disjoint`: internally vertex-disjoint paths in the
    /// undirected graph, up to its connectivity `d + 1`.
    pub fn disjoint(&self) -> Result<String, String> {
        let (x, y) = parse_pair(self.d, &self.x, &self.y)?;
        if x == y {
            return Err("endpoints must differ".into());
        }
        let space = space_of(self.d, x.len())?;
        let graph =
            DebruijnGraph::undirected(space).map_err(|e| format!("cannot materialize: {e}"))?;
        let paths = debruijn_graph::disjoint::vertex_disjoint_paths(
            &graph,
            graph.rank_of(&x),
            graph.rank_of(&y),
            self.d as usize + 1,
        );
        let mut out = format!("{} internally vertex-disjoint path(s):\n", paths.len());
        for p in &paths {
            let words: Vec<String> = p.iter().map(|&v| graph.word_of(v).to_string()).collect();
            writeln!(out, "  {}", words.join(" -> ")).expect("write");
        }
        Ok(out)
    }
}

/// `dbr gdb <d> <N> <i> <j>`: a route in the generalized de Bruijn
/// graph on any `N >= 2` vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct Gdb {
    /// Out-degree.
    pub d: u64,
    /// Vertex count (any `N >= 2`).
    pub n: u64,
    /// Source vertex.
    pub i: u64,
    /// Destination vertex.
    pub j: u64,
}

impl Gdb {
    pub(super) fn parse(rest: &[&str]) -> Result<Self, String> {
        let [d, n, i, j] = Args::split(rest, USAGE, "gdb")?.positional("gdb <d> <N> <i> <j>")?;
        Ok(Self {
            d: number(d, "d")?,
            n: number(n, "N")?,
            i: number(i, "i")?,
            j: number(j, "j")?,
        })
    }

    /// Prints the diameter bound, the distance and the route's digits.
    pub fn run(&self) -> Result<String, String> {
        let Self { d, n, i, j } = *self;
        let g = debruijn_graph::generalized::Gdb::new(d, n)?;
        if i >= n || j >= n {
            return Err(format!("vertices must be below N = {n}"));
        }
        let route = g.route(i, j);
        let rendered: Vec<String> = route.iter().map(u64::to_string).collect();
        Ok(format!(
            "GDB({d},{n}): diameter bound {}\ndistance {i} -> {j}: {}\ndigits: [{}]\n",
            g.diameter_bound(),
            route.len(),
            rendered.join(", ")
        ))
    }
}
