//! Golden walk and graph: pins what construction links and what a probe
//! visits, so a change to the search loop's bookkeeping (heaps, visited
//! set, adjacency access) can be held to "the same walk, bit for bit".
//!
//! `golden.txt` beside this file holds, per build, a hash of every adjacency
//! list plus the entry point and top layer, and per probe the neighbour ids,
//! score bits and [`ProbeStats`].  The data set carries exact duplicates
//! (score ties broken by id), zero rows (`±0.0` cosine scores) and a
//! Euclidean build (`-0.0` for a duplicate at distance zero), so the tie
//! rules are pinned along with the ordinary walk.

use super::*;

/// The goldens, one line per build and per (build, filter, probe).
const GOLDEN: &str = include_str!("golden.txt");

const DIM: usize = 24;
const K: usize = 8;

/// 12 clusters of 45 rows, 20 exact duplicates of earlier rows and 4 zero
/// rows.
fn rows() -> Matrix {
    let mut rng = StdRng::seed_from_u64(0x601d);
    let mut m = Matrix::zeros(0, DIM);
    for c in 0..12 {
        let centroid: Vec<f32> = (0..DIM)
            .map(|d| rng.gen_range(-1.0f32..1.0) + if d == c { 2.0 } else { 0.0 })
            .collect();
        for _ in 0..45 {
            let row: Vec<f32> = centroid
                .iter()
                .map(|v| v + rng.gen_range(-0.2f32..0.2))
                .collect();
            m.push_row(&row).unwrap();
        }
    }
    for i in 0..20 {
        let row = m.row(i * 23 + 5).unwrap().to_vec();
        m.push_row(&row).unwrap();
    }
    for _ in 0..4 {
        m.push_row(&[0.0; DIM]).unwrap();
    }
    m
}

/// 6 indexed rows (one a duplicated source, one a zero row), 9 random
/// vectors and one all-negative vector.
fn probes(data: &Matrix) -> Vec<Vec<f32>> {
    let mut out: Vec<Vec<f32>> = [0usize, 5, 97, 300, 541, 562]
        .iter()
        .map(|&r| data.row(r).unwrap().to_vec())
        .collect();
    let mut rng = StdRng::seed_from_u64(0x9e0b);
    for _ in 0..9 {
        out.push((0..DIM).map(|_| rng.gen_range(-1.5f32..1.5)).collect());
    }
    out.push((0..DIM).map(|d| -0.25 - d as f32 * 0.01).collect());
    out
}

/// No filter, then seeded bitmaps selecting about 50 % and 5 % of rows.
fn filters(n: usize) -> Vec<(&'static str, Option<SelectionBitmap>)> {
    let mut rng = StdRng::seed_from_u64(0xf117);
    let mut bitmap =
        |p: f64| SelectionBitmap::from_bools((0..n).map(|_| rng.gen_bool(p)).collect());
    vec![
        ("all", None),
        ("p50", Some(bitmap(0.5))),
        ("p05", Some(bitmap(0.05))),
    ]
}

/// FNV-1a 64 over the little-endian bytes of `words`.
fn fnv(hash: &mut u64, words: impl IntoIterator<Item = u32>) {
    for word in words {
        for byte in word.to_le_bytes() {
            *hash ^= u64::from(byte);
            *hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn adjacency_hash(idx: &HnswIndex) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv(&mut hash, [idx.neighbors.len() as u32]);
    for per_layer in &idx.neighbors {
        fnv(&mut hash, [per_layer.len() as u32]);
        for list in per_layer {
            fnv(&mut hash, [list.len() as u32]);
            fnv(&mut hash, list.iter().copied());
        }
    }
    hash
}

/// The builds the goldens cover, each deterministic regardless of the
/// process-wide pool.
fn builds(data: &Matrix) -> Vec<(&'static str, HnswIndex)> {
    let seq = ExecPool::new(1);
    let two = ExecPool::new(2);
    let build = |params: HnswParams, pool: &ExecPool| {
        HnswIndex::build_with_pool(data.clone(), params, pool).unwrap()
    };
    let mut head = Matrix::zeros(0, DIM);
    let mut tail = Matrix::zeros(0, DIM);
    for r in 0..data.rows() {
        let target = if r < 400 { &mut head } else { &mut tail };
        target.push_row(data.row(r).unwrap()).unwrap();
    }
    let extended = HnswIndex::build_with_pool(head, HnswParams::tiny(), &seq)
        .unwrap()
        .extend(&tail)
        .unwrap();
    vec![
        ("tiny/seq", build(HnswParams::tiny(), &seq)),
        ("tiny/pool2", build(HnswParams::tiny(), &two)),
        ("low_recall/seq", build(HnswParams::low_recall(), &seq)),
        ("low_recall/pool2", build(HnswParams::low_recall(), &two)),
        (
            "tiny_l2/seq",
            build(HnswParams::tiny().with_metric(Metric::Euclidean), &seq),
        ),
        ("tiny/extend", extended),
    ]
}

fn render() -> String {
    let data = rows();
    let probes = probes(&data);
    let filters = filters(data.rows());
    let mut out = String::new();
    for (name, idx) in builds(&data) {
        out.push_str(&format!(
            "build {name} entry={} max_level={} adjacency={:016x}\n",
            idx.entry_point,
            idx.max_level,
            adjacency_hash(&idx)
        ));
        for (filter_name, filter) in &filters {
            for (p, probe) in probes.iter().enumerate() {
                let res = idx.search(probe, K, filter.as_ref()).unwrap();
                out.push_str(&format!(
                    "probe {name} {filter_name} {p} dc={} nv={}",
                    res.stats.distance_computations, res.stats.nodes_visited
                ));
                for e in &res.neighbors {
                    out.push_str(&format!(" {}:{:08x}", e.id, e.score.to_bits()));
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn walk_and_graph_match_the_goldens() {
    let got = render();
    assert_eq!(
        got.lines().count(),
        GOLDEN.lines().count(),
        "golden line count"
    );
    for (i, (got, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
}
