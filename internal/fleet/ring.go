// Package fleet is the horizontal serving tier: a stateless router that
// spreads Predict/TopK/Similar queries over N serve replicas. Three routing
// mechanisms coexist:
//
//   - Cache affinity. Every query hashes by its anchor (serve.Query.Anchor,
//     the row it conditions on) onto a consistent-hash ring of replicas, so
//     repeats of the same query always land on the same replica and its LRU
//     result cache. The fleet's aggregate cache therefore grows with N —
//     which is where the QPS scaling comes from on cache-friendly traffic.
//   - Sharded scatter-gather. A TopK over a huge mode can instead be split
//     into contiguous row ranges, one per live replica, answered in
//     parallel as the same serve.Query with its Lo/Hi set, and merged with
//     serve.MergeTopK — bitwise-identical to a single-node scan because
//     ranges partition the mode and the tie-break order is total.
//   - Health-based failover. A prober drives dist.RetryPolicy backoff
//     against each replica's /healthz; dead replicas leave the ring (their
//     keys remap to survivors — ~1/N of the space, see ring_test.go) and
//     re-admission is automatic on recovery.
//
// Rolling reload drains one replica at a time (drain → wait inflight 0 →
// reload → health-check → re-admit) so a model version rolls across the
// fleet with zero failed queries.
package fleet

import (
	"fmt"
	"sort"

	"cstf/internal/rng"
)

// ringVnodes is the number of virtual nodes each replica contributes to
// the ring. More vnodes flatten the load split across replicas (the
// standard deviation of arc ownership shrinks like 1/sqrt(vnodes)) at the
// cost of a larger sorted array; 128 keeps the max/min ownership ratio
// within a few percent for small fleets.
const ringVnodes = 128

// Ring is an immutable consistent-hash ring over replica names. Hashing
// uses rng.HashAny (FNV over the vnode label), a pure function of the
// name — so every process that builds a ring from the same member set gets
// the identical ring, with no coordination. Lookups are O(log(N*vnodes)).
//
// The consistent-hashing property this buys (verified in ring_test.go):
// removing one of N members remaps only the keys that member owned —
// about 1/N of the space — while every other key keeps its replica and
// therefore its warmed cache.
type Ring struct {
	points  []ringPoint
	members []string
}

type ringPoint struct {
	hash   uint64
	member int32 // index into members
}

// NewRing builds a ring over the given replica names. Names must be
// non-empty and unique; order does not matter (the ring is a pure function
// of the member set).
func NewRing(members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fleet: ring needs at least one member")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("fleet: empty ring member name")
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("fleet: duplicate ring member %q", m)
		}
	}
	r := &Ring{
		points:  make([]ringPoint, 0, len(sorted)*ringVnodes),
		members: sorted,
	}
	for i, m := range sorted {
		for v := 0; v < ringVnodes; v++ {
			h := rng.Hash64(rng.HashAny(m), uint64(v))
			r.points = append(r.points, ringPoint{hash: h, member: int32(i)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// A hash collision between vnodes of different members is
		// astronomically unlikely but must still order deterministically.
		return r.points[a].member < r.points[b].member
	})
	return r, nil
}

// Owner returns the member owning hash key h: the first vnode clockwise
// from h, wrapping at the top of the space.
func (r *Ring) Owner(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.members[r.points[i].member]
}
