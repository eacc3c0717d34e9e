//! `Partition::walk` pinned against the conversions it replaces: at every
//! rank of a set of shapes that mixes torus, mesh, size-2 and size-1
//! dimensions at arities 1 to 6, the walk's coordinate is `coord_of(rank)`
//! and each direction's neighbour rank is `rank_of(neighbor(coord, dir))`,
//! `None` exactly where `neighbor` is.

use bgl_torus::{Partition, Rank};

fn shapes() -> Vec<Partition> {
    let mut shapes: Vec<Partition> = [
        "4x3",
        "2x5x3",
        "4Mx3x2M",
        "8x1x4",
        "2x3x2x4",
        "3x2Mx1x2x3",
        "2x2x3x2x2x2",
    ]
    .map(|s| s.parse().unwrap())
    .into();
    // One-token shapes do not parse: the 1-D lines are built directly.
    shapes.push(Partition::new(&[5], &[false]));
    shapes.push(Partition::new(&[5], &[true]));
    shapes.push(Partition::new(&[2], &[true]));
    shapes
}

#[test]
fn the_walk_agrees_with_coord_of_and_neighbor_at_every_rank() {
    for part in shapes() {
        let walk = part.walk();
        assert_eq!(walk.len(), part.num_nodes() as usize, "{part}");
        let mut rank: Rank = 0;
        for site in walk {
            assert_eq!(site.rank, rank, "{part}");
            let c = part.coord_of(rank);
            assert_eq!(site.coord, c, "{part} rank {rank}");
            for d in part.directions() {
                assert_eq!(
                    site.neighbor_rank(d),
                    part.neighbor(c, d).map(|n| part.rank_of(n)),
                    "{part} rank {rank} direction {d}"
                );
            }
            rank += 1;
        }
        assert_eq!(rank, part.num_nodes(), "{part}");
    }
}

#[test]
fn a_walk_resumed_midway_sees_the_same_sites() {
    let part: Partition = "4Mx3x2M".parse().unwrap();
    let mut walk = part.walk();
    let head: Vec<_> = walk.by_ref().take(7).map(|s| s.rank).collect();
    assert_eq!(head, (0..7).collect::<Vec<_>>());
    assert_eq!(walk.len(), 24 - 7);
    let rest: Vec<_> = walk.map(|s| (s.rank, s.coord)).collect();
    let expected: Vec<_> = (7..24).map(|r| (r, part.coord_of(r))).collect();
    assert_eq!(rest, expected);
}
