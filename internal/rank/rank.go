// Package rank evaluates a trained factorization as a recommender: a
// deterministic leave-out split carves held-out interactions from a
// (user x item x ...) tensor, and ranking metrics (HR@K, NDCG@K) score a
// serving model's TopK — with the user's training items excluded — against
// those held-out truths. A popularity baseline anchors the numbers: a
// model worth serving must beat "recommend whatever is globally popular".
//
// Everything is deterministic. The split is a pure function of
// (seed, tensor): each qualifying user's held-out interaction is the
// entry whose coordinate hash is smallest, so two runs — or two processes
// sharing only the seed — carve identical splits regardless of entry
// order. Evaluation queries go through serve.Model's deterministic TopK
// (descending score, ascending index on bitwise ties), so metrics are
// exactly reproducible run to run.
package rank

import (
	"fmt"
	"math"
	"sort"

	"cstf/internal/rng"
	"cstf/internal/serve"
	"cstf/internal/tensor"
)

// Split partitions t's nonzeros into a training tensor and a held-out
// tensor, leaving out exactly one interaction per user (the rows of
// userMode) for every user with at least two nonzeros. Users with a single
// nonzero keep it in training — holding it out would leave nothing to
// condition their queries on. The held-out entry of a user is the one
// minimizing rng.Hash64(seed, coordinates...), ties broken by coordinate
// order, so the split is reproducible from (seed, tensor) alone and
// train/held are disjoint by construction.
func Split(t *tensor.COO, seed uint64, userMode int) (train, held *tensor.COO, err error) {
	if userMode < 0 || userMode >= len(t.Dims) {
		return nil, nil, fmt.Errorf("rank: user mode %d out of range for order-%d tensor", userMode, len(t.Dims))
	}
	order := len(t.Dims)
	hash := func(e *tensor.Entry) uint64 {
		parts := make([]uint64, 0, order+1)
		parts = append(parts, seed)
		for n := 0; n < order; n++ {
			parts = append(parts, uint64(e.Idx[n]))
		}
		return rng.Hash64(parts...)
	}

	counts := make([]int, t.Dims[userMode])
	for i := range t.Entries {
		counts[t.Entries[i].Idx[userMode]]++
	}
	// best[u] is the index into t.Entries of u's held-out interaction.
	best := make([]int, t.Dims[userMode])
	for u := range best {
		best[u] = -1
	}
	for i := range t.Entries {
		e := &t.Entries[i]
		u := int(e.Idx[userMode])
		if counts[u] < 2 {
			continue
		}
		if best[u] == -1 {
			best[u] = i
			continue
		}
		b := &t.Entries[best[u]]
		hi, hb := hash(e), hash(b)
		if hi < hb || (hi == hb && tensor.Less(order, e, b)) {
			best[u] = i
		}
	}
	heldIdx := make(map[int]bool, len(best))
	for _, i := range best {
		if i >= 0 {
			heldIdx[i] = true
		}
	}

	train = tensor.New(t.Dims...)
	held = tensor.New(t.Dims...)
	for i := range t.Entries {
		if heldIdx[i] {
			held.Entries = append(held.Entries, t.Entries[i])
		} else {
			train.Entries = append(train.Entries, t.Entries[i])
		}
	}
	train.Sort()
	held.Sort()
	return train, held, nil
}

// Metrics is one evaluation's ranking quality at cutoff K.
type Metrics struct {
	K     int     `json:"k"`
	Cases int     `json:"cases"` // held-out interactions evaluated
	Hits  int     `json:"hits"`  // held-out items that appeared in the top K
	HR    float64 `json:"hr"`    // Hits / Cases
	NDCG  float64 `json:"ndcg"`  // mean 1/log2(2+position), 0 on miss
}

// seenItems maps each user row to the sorted set of itemMode rows the user
// interacted with in train — the exclude sets evaluation queries carry.
func seenItems(train *tensor.COO, userMode, itemMode int) map[int][]int {
	raw := make(map[int]map[int]bool)
	for i := range train.Entries {
		e := &train.Entries[i]
		u, it := int(e.Idx[userMode]), int(e.Idx[itemMode])
		if raw[u] == nil {
			raw[u] = make(map[int]bool)
		}
		raw[u][it] = true
	}
	out := make(map[int][]int, len(raw))
	for u, set := range raw {
		items := make([]int, 0, len(set))
		for it := range set {
			items = append(items, it)
		}
		sort.Ints(items)
		out[u] = items
	}
	return out
}

// excludeFor returns the user's seen set minus the target item: a held-out
// item that also occurs in training (same user, different context) must
// stay rankable, or the case could never be a hit.
func excludeFor(seen []int, target int) []int {
	out := make([]int, 0, len(seen))
	for _, it := range seen {
		if it != target {
			out = append(out, it)
		}
	}
	return out
}

func gain(position int) float64 { return 1 / math.Log2(float64(position)+2) }

// EvalModel scores m's TopK against every held-out interaction: the query
// conditions on the user's row AND the held-out entry's remaining
// coordinates (the context of the interaction), excludes the user's
// training items, and asks for the k best itemMode rows. A case is a hit
// when the held-out item appears; NDCG discounts by its position.
func EvalModel(m *serve.Model, train, held *tensor.COO, userMode, itemMode, k int) (Metrics, error) {
	if userMode == itemMode {
		return Metrics{}, fmt.Errorf("rank: user mode %d equals item mode", userMode)
	}
	seen := seenItems(train, userMode, itemMode)
	res := Metrics{K: k}
	for i := range held.Entries {
		e := &held.Entries[i]
		u, target := int(e.Idx[userMode]), int(e.Idx[itemMode])
		var given []serve.Cond
		for n := 0; n < len(held.Dims); n++ {
			if n != itemMode {
				given = append(given, serve.Cond{Mode: n, Row: int(e.Idx[n])})
			}
		}
		top, err := m.Rank(serve.Query{Mode: itemMode, Given: given, K: k, Exclude: excludeFor(seen[u], target)})
		if err != nil {
			return Metrics{}, err
		}
		res.Cases++
		for pos, s := range top {
			if s.Index == target {
				res.Hits++
				res.NDCG += gain(pos)
				break
			}
		}
	}
	res.finish()
	return res, nil
}

// EvalPopularity scores the non-personalized baseline: items ranked by
// training interaction count (descending, ascending index on ties), the
// same per-user exclusions applied. A trained model that cannot beat this
// has learned nothing user-specific.
func EvalPopularity(train, held *tensor.COO, userMode, itemMode, k int) (Metrics, error) {
	if userMode == itemMode {
		return Metrics{}, fmt.Errorf("rank: user mode %d equals item mode", userMode)
	}
	counts := make([]int, train.Dims[itemMode])
	for i := range train.Entries {
		counts[train.Entries[i].Idx[itemMode]]++
	}
	byPop := make([]int, len(counts))
	for i := range byPop {
		byPop[i] = i
	}
	sort.SliceStable(byPop, func(a, b int) bool {
		if counts[byPop[a]] != counts[byPop[b]] {
			return counts[byPop[a]] > counts[byPop[b]]
		}
		return byPop[a] < byPop[b]
	})

	seen := seenItems(train, userMode, itemMode)
	res := Metrics{K: k}
	for i := range held.Entries {
		e := &held.Entries[i]
		u, target := int(e.Idx[userMode]), int(e.Idx[itemMode])
		excluded := make(map[int]bool, len(seen[u]))
		for _, it := range excludeFor(seen[u], target) {
			excluded[it] = true
		}
		res.Cases++
		pos := 0
		for _, it := range byPop {
			if excluded[it] {
				continue
			}
			if pos >= k {
				break
			}
			if it == target {
				res.Hits++
				res.NDCG += gain(pos)
				break
			}
			pos++
		}
	}
	res.finish()
	return res, nil
}

func (m *Metrics) finish() {
	if m.Cases > 0 {
		m.HR = float64(m.Hits) / float64(m.Cases)
		m.NDCG /= float64(m.Cases)
	}
}
